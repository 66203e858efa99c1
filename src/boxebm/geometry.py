"""Oriented box types and exact BEV / 3D intersection-over-union.

Boxes are gravity-aligned: the only rotation is the yaw angle about the
vertical axis. `l` is the extent along the heading direction, `w` the
perpendicular extent, and `cz` is the geometric center of the box (the
bottom face sits at cz - h/2). Yaw is stored unwrapped; every predicate
here is invariant (to floating-point accuracy) under yaw -> yaw + 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Vertices closer than this are merged after clipping; intersection areas
# below AREA_EPS count as empty. Keeps touching boxes stable.
VERTEX_MERGE_EPS = 1e-9
AREA_EPS = 1e-12
# Relative slack of the far-pair test in `iou_matrix`.
FAR_SLACK = 1e-9


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center (cx, cy, cz), size (h, w, l), heading yaw."""

    cx: float
    cy: float
    cz: float
    h: float
    w: float
    l: float
    yaw: float

    def __post_init__(self):
        if not (self.h > 0 and self.w > 0 and self.l > 0):
            raise ValueError(f"box dimensions must be positive, got h={self.h} w={self.w} l={self.l}")

    def as_array(self) -> np.ndarray:
        """Coordinates in the canonical order (cx, cy, cz, h, w, l, yaw)."""
        return np.array([self.cx, self.cy, self.cz, self.h, self.w, self.l, self.yaw], dtype=float)

    @staticmethod
    def from_array(a) -> "Box3D":
        cx, cy, cz, h, w, l, yaw = (float(v) for v in a)
        return Box3D(cx, cy, cz, h, w, l, yaw)

    @property
    def bottom(self) -> float:
        return self.cz - self.h / 2.0

    @property
    def top(self) -> float:
        return self.cz + self.h / 2.0


@dataclass(frozen=True)
class BoxBEV:
    """Bird's-eye-view box: center (cx, cy), size (w, l), heading yaw."""

    cx: float
    cy: float
    w: float
    l: float
    yaw: float

    def __post_init__(self):
        if not (self.w > 0 and self.l > 0):
            raise ValueError(f"box dimensions must be positive, got w={self.w} l={self.l}")

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.l, self.yaw], dtype=float)

    @staticmethod
    def from_array(a) -> "BoxBEV":
        cx, cy, w, l, yaw = (float(v) for v in a)
        return BoxBEV(cx, cy, w, l, yaw)


def to_bev(box: Box3D) -> BoxBEV:
    """Project a 3D box to its BEV version by dropping cz and h."""
    return BoxBEV(box.cx, box.cy, box.w, box.l, box.yaw)


def bev_corners(box: BoxBEV) -> np.ndarray:
    """The four corners (4, 2), counter-clockwise: center + R(yaw) @ (+-l/2, +-w/2)."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    hl, hw = box.l / 2.0, box.w / 2.0
    local = np.array([(hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)])
    rot = np.array([(c, -s), (s, c)])
    return local @ rot.T + np.array([box.cx, box.cy])


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area (absolute value); 0 for fewer than 3 vertices."""
    n = len(vertices)
    if n < 3:
        return 0.0
    x, y = vertices[:, 0], vertices[:, 1]
    nxt = np.arange(1, n + 1) % n  # index of each vertex's successor
    return abs(float(np.dot(x, y[nxt]) - np.dot(y, x[nxt]))) / 2.0


def _merge_close_vertices(poly: list) -> list:
    out = []
    for p in poly:
        if out and abs(p[0] - out[-1][0]) < VERTEX_MERGE_EPS and abs(p[1] - out[-1][1]) < VERTEX_MERGE_EPS:
            continue
        out.append(p)
    while len(out) >= 2 and abs(out[0][0] - out[-1][0]) < VERTEX_MERGE_EPS and abs(out[0][1] - out[-1][1]) < VERTEX_MERGE_EPS:
        out.pop()
    return out


def clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman intersection of two convex CCW polygons.

    Points exactly on a clip edge count as inside, so clipping a polygon
    against itself returns its own vertices.
    """
    output = [tuple(p) for p in subject]
    n = len(clip)
    for k in range(n):
        if not output:
            break
        ax, ay = clip[k]
        bx, by = clip[(k + 1) % n]
        ex, ey = bx - ax, by - ay
        inp = output
        output = []
        px, py = inp[-1]
        # inside = point is on or to the left of the directed edge a->b
        p_in = ex * (py - ay) - ey * (px - ax) >= 0.0
        for qx, qy in inp:
            q_in = ex * (qy - ay) - ey * (qx - ax) >= 0.0
            if q_in != p_in:
                # segment p->q crosses the edge line; compute the crossing
                dx, dy = qx - px, qy - py
                den = ex * dy - ey * dx
                if den != 0.0:
                    t = (ex * (ay - py) - ey * (ax - px)) / den
                    output.append((px + t * dx, py + t * dy))
            if q_in:
                output.append((qx, qy))
            px, py, p_in = qx, qy, q_in
    output = _merge_close_vertices(output)
    if len(output) < 3:
        return np.empty((0, 2))
    return np.array(output)


def _solid(box: BoxBEV, bottom: float = 0.0, top: float = 1.0):
    """What the pair routine needs of a box: BEV corners, bottom, top.

    The BEV default spans unit height, so the heights and the overlap are
    exactly 1.0 and every product with them is exact: the 3D formula then
    gives the BEV IoU bit for bit.
    """
    return bev_corners(box), bottom, top


def _iou_ordered(a, b) -> float:
    """IoU of one canonically ordered pair of `_solid`s: the one clip and IoU formula."""
    corners_a, bottom_a, top_a = a
    corners_b, bottom_b, top_b = b
    overlap = min(top_a, top_b) - max(bottom_a, bottom_b)
    if overlap <= 0.0:
        return 0.0
    inter = polygon_area(clip_convex(corners_a, corners_b))
    if inter < AREA_EPS:
        return 0.0
    inter *= overlap
    vol_a = polygon_area(corners_a) * (top_a - bottom_a)
    vol_b = polygon_area(corners_b) * (top_b - bottom_b)
    return inter / (vol_a + vol_b - inter)


def _ordered(a, b):
    # Canonical argument order makes iou(a, b) == iou(b, a) bit-exact.
    return (a, b) if tuple(a.as_array()) <= tuple(b.as_array()) else (b, a)


def bev_iou(a: BoxBEV, b: BoxBEV) -> float:
    """Oriented BEV intersection-over-union, in [0, 1]."""
    a, b = _ordered(a, b)
    return _iou_ordered(_solid(a), _solid(b))


def iou_3d(a: Box3D, b: Box3D) -> float:
    """3D IoU: BEV intersection area times vertical overlap, over the union volume."""
    a, b = _ordered(a, b)
    return _iou_ordered(_solid(to_bev(a), a.bottom, a.top), _solid(to_bev(b), b.bottom, b.top))


def _keyed_solid(box: Box3D, mode: str):
    """A box's ordering key and solid as `iou_3d` (mode "3d") or `bev_iou` on
    its BEV projection (mode "bev") sees them."""
    bev = to_bev(box)
    if mode == "3d":
        return tuple(box.as_array()), _solid(bev, box.bottom, box.top)
    return tuple(bev.as_array()), _solid(bev)


def iou_matrix(a_boxes, b_boxes, mode: str) -> np.ndarray:
    """(len(a_boxes), len(b_boxes)) matrix of `iou_3d(a, b)` (mode "3d") or
    of `bev_iou(to_bev(a), to_bev(b))` (mode "bev"), equal bit for bit.

    Pairs whose circumscribed circles are apart, or (3D) whose vertical
    extents do not overlap, are 0 without clipping. The other pairs go
    through the scalar pair routine in the scalar functions' canonical
    order, with corners computed once per box. Boxes must be finite.
    """
    if mode not in ("3d", "bev"):
        raise ValueError(f"unknown IoU mode {mode!r}")
    out = np.zeros((len(a_boxes), len(b_boxes)))
    if out.size == 0:
        return out
    a = np.array([box.as_array() for box in a_boxes])
    b = np.array([box.as_array() for box in b_boxes])
    dx = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    # a box lies inside the circle of radius hypot(w, l) / 2 about its center
    reach = np.hypot(a[:, 4], a[:, 5])[:, None] / 2.0 + np.hypot(b[:, 4], b[:, 5])[None, :] / 2.0
    # slack far above the rounding of corners at these center magnitudes
    magnitude = (np.abs(a[:, 0]) + np.abs(a[:, 1]))[:, None] + (np.abs(b[:, 0]) + np.abs(b[:, 1]))[None, :]
    near = dx * dx + dy * dy <= (reach + FAR_SLACK * (reach + magnitude)) ** 2
    if mode == "3d":
        bottom_a, top_a = a[:, 2] - a[:, 3] / 2.0, a[:, 2] + a[:, 3] / 2.0
        bottom_b, top_b = b[:, 2] - b[:, 3] / 2.0, b[:, 2] + b[:, 3] / 2.0
        near &= np.minimum(top_a[:, None], top_b[None, :]) - np.maximum(bottom_a[:, None], bottom_b[None, :]) > 0.0
    rows, cols = np.nonzero(near)
    solids_a = {i: _keyed_solid(a_boxes[i], mode) for i in set(rows.tolist())}
    solids_b = {j: _keyed_solid(b_boxes[j], mode) for j in set(cols.tolist())}
    for i, j in zip(rows.tolist(), cols.tolist()):
        (key_a, solid_a), (key_b, solid_b) = solids_a[i], solids_b[j]
        out[i, j] = _iou_ordered(solid_a, solid_b) if key_a <= key_b else _iou_ordered(solid_b, solid_a)
    return out
