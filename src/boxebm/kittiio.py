"""KITTI object-label and result-file text I/O.

The columns of a line are the fields of `KittiLabel` in declaration order:
15 for labels, 16 for results, which end in a score. The location x y z is
in the camera frame, with y at the box BOTTOM.

Camera frame -> library world frame: cx = z, cy = -x, cz = -y + h/2 (the
bottom-center location is lifted to the geometric center), yaw =
-rotation_y - pi/2 wrapped to [-pi, pi). This is a rigid ground-plane map,
so IoU and AP computed on converted boxes equal those computed in the
camera frame directly; nothing downstream depends on matching any
detector's internal frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import InputError, ParseError
from .geometry import Box3D

DONT_CARE = "DontCare"


def wrap_angle(a: float) -> float:
    """Wrap to [-pi, pi)."""
    return (a + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class KittiLabel:
    """One label or result line. The field order is the file's column order."""

    type: str
    truncated: float
    occluded: int
    alpha: float
    bbox_left: float
    bbox_top: float
    bbox_right: float
    bbox_bottom: float
    h: float
    w: float
    l: float
    x: float
    y: float
    z: float
    rotation_y: float
    score: float | None = None

    @property
    def is_evaluable(self) -> bool:
        return self.type != DONT_CARE and self.h > 0 and self.w > 0 and self.l > 0

    def numeric_fields(self) -> list[float]:
        """The numeric columns in file order, the score only when present."""
        values = (getattr(self, f.name) for f in fields(self)[1:])
        return [float(v) for v in values if v is not None]


N_RESULT_FIELDS = len(fields(KittiLabel))
N_LABEL_FIELDS = N_RESULT_FIELDS - 1  # no score


def parse_label_file(text: str) -> list[KittiLabel]:
    """Parse label (15-field) or result (16-field) lines."""
    labels = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) not in (N_LABEL_FIELDS, N_RESULT_FIELDS):
            raise ParseError(f"expected {N_LABEL_FIELDS} or {N_RESULT_FIELDS} fields, got {len(tokens)}", line=lineno)
        try:
            nums = [float(t) for t in tokens[1:]]
        except ValueError as exc:
            raise ParseError(f"unparsable number: {exc}", line=lineno) from None
        if not all(map(math.isfinite, nums)):
            raise ParseError("non-finite number", line=lineno)
        label = KittiLabel(tokens[0], nums[0], int(nums[1]), *nums[2:])
        if label.bbox_right < label.bbox_left or label.bbox_bottom < label.bbox_top:
            raise ParseError("2D bbox has right < left or bottom < top", line=lineno)
        labels.append(label)
    return labels


def to_box3d(label: KittiLabel) -> Box3D:
    """Convert a camera-frame label to a world-frame box."""
    if not label.is_evaluable:
        raise InputError(f"cannot convert non-evaluable label of type {label.type!r}")
    return Box3D(
        cx=label.z,
        cy=-label.x,
        cz=-label.y + label.h / 2.0,
        h=label.h,
        w=label.w,
        l=label.l,
        yaw=wrap_angle(-label.rotation_y - math.pi / 2.0),
    )


def from_box3d(box: Box3D, score: float | None = None) -> KittiLabel:
    """Inverse of to_box3d: a Car label with zero truncation, occlusion and
    2D box; alpha is derived from rotation_y and viewing ray."""
    x = -box.cy
    y = box.h / 2.0 - box.cz
    z = box.cx
    rotation_y = wrap_angle(-box.yaw - math.pi / 2.0)
    alpha = wrap_angle(rotation_y - math.atan2(x, z))
    return KittiLabel(
        type="Car", truncated=0.0, occluded=0, alpha=alpha,
        bbox_left=0.0, bbox_top=0.0, bbox_right=0.0, bbox_bottom=0.0,
        h=box.h, w=box.w, l=box.l, x=x, y=y, z=z,
        rotation_y=rotation_y, score=score,
    )


def format_label(label: KittiLabel) -> str:
    nums = " ".join(f"{v:.6f}" for v in label.numeric_fields())
    return f"{label.type} {nums}"


def write_result_file(labels: list[KittiLabel]) -> str:
    """Result-file text: 16 fields per line, fixed 6-decimal formatting."""
    lines = []
    for i, label in enumerate(labels):
        if label.score is None:
            raise InputError(f"result line {i} is missing a score")
        lines.append(format_label(label))
    return "".join(line + "\n" for line in lines)
