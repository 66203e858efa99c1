"""The oriented box type and exact BEV / 3D intersection-over-union.

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
# below AREA_EPS count as empty. Keeps touching boxes stable. Kept far
# below the gaps between true corners: nearly parallel edges of a box and
# its yaw + 2*pi twin cross 2e-10 m from a corner, and merging the two
# drops a sliver of about that gap times the polygon's width.
VERTEX_MERGE_EPS = 1e-12
AREA_EPS = 1e-12
# Relative slack of the far-pair test in `pair_ious`.
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


# Columns of a box row (cx, cy, cz, h, w, l, yaw) that make its BEV row (cx, cy, w, l, yaw).
_BEV = np.array([0, 1, 4, 5, 6])


def _corners(bev: np.ndarray) -> np.ndarray:
    """Corners (N, 4, 2) of N BEV rows, counter-clockwise: center + R(yaw) @ (+-l/2, +-w/2)."""
    # libm's cos and sin: numpy's vectorized ones need not round the same
    c = np.array([math.cos(yaw) for yaw in bev[:, 4].tolist()])
    s = np.array([math.sin(yaw) for yaw in bev[:, 4].tolist()])
    hl, hw = bev[:, 3] / 2.0, bev[:, 2] / 2.0
    local = np.stack([hl, hw, -hl, hw, -hl, -hw, hl, -hw], axis=1).reshape(-1, 4, 2)
    rot = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
    # one (4, 2) @ (2, 2) BLAS product per box, rounded as for a lone box
    return local @ rot.transpose(0, 2, 1) + bev[:, None, :2]


def _areas(poly: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Shoelace areas (absolute values) of padded polygons (P, K, 2) with n (P,)
    vertices; 0 for fewer than 3 vertices.

    One `vecdot` per vertex count, so that each row is one BLAS dot product
    with the length and strides it has for a lone polygon, rounded the same.
    """
    out = np.zeros(len(n))
    for m in (np.flatnonzero(np.bincount(n)[3:]) + 3).tolist():
        rows = np.flatnonzero(n == m)
        sub = poly[rows, :m]
        x, y = sub[:, :, 0], sub[:, :, 1]
        nxt = np.arange(1, m + 1) % m  # index of each vertex's successor
        out[rows] = np.abs(np.vecdot(x, y[:, nxt]) - np.vecdot(y, x[:, nxt])) / 2.0
    return out


def _close(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Whether points (..., 2) lie within VERTEX_MERGE_EPS in both coordinates."""
    return (np.abs(p[..., 0] - q[..., 0]) < VERTEX_MERGE_EPS) & (np.abs(p[..., 1] - q[..., 1]) < VERTEX_MERGE_EPS)


def _clip(subject: np.ndarray, clip: np.ndarray):
    """Sutherland-Hodgman intersections of P pairs of convex CCW quadrilaterals
    (P, 4, 2): padded polygons (P, K, 2) and their vertex counts (P,).

    Points exactly on a clip edge count as inside, so clipping a polygon
    against itself returns its own vertices. A vertex within
    VERTEX_MERGE_EPS of the last one kept is dropped, then closing vertices
    within it of the first; a polygon left with fewer than 3 vertices has
    count 0.
    """
    p_rows = len(subject)
    every = np.arange(p_rows)
    poly, n = subject, np.full(p_rows, 4)
    for k in range(4):
        ax, ay = clip[:, k, 0, None], clip[:, k, 1, None]
        ex, ey = clip[:, (k + 1) % 4, 0, None] - ax, clip[:, (k + 1) % 4, 1, None] - ay
        slot = np.arange(poly.shape[1])
        prev = (slot - 1) % np.maximum(n, 1)[:, None]  # each vertex's predecessor
        qx, qy = poly[:, :, 0], poly[:, :, 1]
        # inside = point is on or to the left of the directed edge a->b
        q_in = ex * (qy - ay) - ey * (qx - ax) >= 0.0
        px, py, p_in = (v[every[:, None], prev] for v in (qx, qy, q_in))
        # where segment p->q crosses the edge line, the crossing comes before q
        dx, dy = qx - px, qy - py
        den = ex * dy - ey * dx
        present = slot < n[:, None]
        cross = present & (q_in != p_in) & (den != 0.0)
        keep = present & q_in
        end = np.cumsum(cross.astype(int) + keep, axis=1)
        n = end[:, -1]
        poly = np.zeros((p_rows, max(int(n.max(initial=0)), 1), 2))
        r, j = np.nonzero(cross)
        t = (ex[r, 0] * (ay[r, 0] - py[r, j]) - ey[r, 0] * (ax[r, 0] - px[r, j])) / den[r, j]
        at = end[r, j] - 1 - keep[r, j]
        poly[r, at, 0] = px[r, j] + t * dx[r, j]
        poly[r, at, 1] = py[r, j] + t * dy[r, j]
        r, j = np.nonzero(keep)
        poly[r, end[r, j] - 1, 0] = qx[r, j]
        poly[r, end[r, j] - 1, 1] = qy[r, j]
    # drop each vertex that is close to the last one kept; only polygons
    # with close neighbours can lose one, and they go vertex by vertex
    kept = np.arange(poly.shape[1]) < n[:, None]
    rows = np.flatnonzero((kept[:, 1:] & _close(poly[:, 1:], poly[:, :-1])).any(axis=1))
    last = poly[rows, 0]
    for j in range(1, poly.shape[1] if rows.size else 0):
        kept[rows, j] &= ~_close(poly[rows, j], last)
        last = np.where(kept[rows, j, None], poly[rows, j], last)
    r, j = np.nonzero(kept)
    merged = np.zeros_like(poly)
    merged[r, np.cumsum(kept, axis=1)[r, j] - 1] = poly[r, j]
    n = kept.sum(axis=1)
    # then the closing vertices that are close to the first
    while True:
        drop = (n >= 2) & _close(merged[:, 0], merged[every, np.maximum(n - 1, 0)])
        if not drop.any():
            break
        n = n - drop
    return merged, np.where(n >= 3, n, 0)


def _near(a: np.ndarray, b: np.ndarray, mode: str) -> np.ndarray:
    """Which pairs of box rows a[p], b[p] can overlap: those whose
    circumscribed circles meet and, in 3D, whose vertical extents overlap."""
    dx = a[:, 0] - b[:, 0]
    dy = a[:, 1] - b[:, 1]
    # a box lies inside the circle of radius hypot(w, l) / 2 about its center
    reach = np.hypot(a[:, 4], a[:, 5]) / 2.0 + np.hypot(b[:, 4], b[:, 5]) / 2.0
    # slack far above the rounding of corners at these center magnitudes
    magnitude = (np.abs(a[:, 0]) + np.abs(a[:, 1])) + (np.abs(b[:, 0]) + np.abs(b[:, 1]))
    near = dx * dx + dy * dy <= (reach + FAR_SLACK * (reach + magnitude)) ** 2
    if mode == "3d":
        top = np.minimum(a[:, 2] + a[:, 3] / 2.0, b[:, 2] + b[:, 3] / 2.0)
        near &= top - np.maximum(a[:, 2] - a[:, 3] / 2.0, b[:, 2] - b[:, 3] / 2.0) > 0.0
    return near


def _swap(key_a: np.ndarray, key_b: np.ndarray) -> np.ndarray:
    """Whether each pair's b key (P, k) is the smaller, compared column by
    column: the canonical order clips the row with the smaller key."""
    first = (key_a != key_b).argmax(axis=1)  # first differing column, 0 for equal keys
    every = np.arange(len(key_a))
    return key_a[every, first] > key_b[every, first]


def _inter_areas(corners_a: np.ndarray, corners_b: np.ndarray, swap: np.ndarray) -> np.ndarray:
    """Intersection areas (P,) of pairs of corner sets (P, 4, 2), each clipped
    with b as the subject where `swap`, else with a."""
    swap = swap[:, None, None]
    return _areas(*_clip(np.where(swap, corners_b, corners_a), np.where(swap, corners_a, corners_b)))


def pair_ious(a: np.ndarray, b: np.ndarray, modes=("3d", "bev")) -> np.ndarray:
    """IoUs (len(modes), P) of the pairs of box rows a[p], b[p] (P, 7), rows
    in the order (cx, cy, cz, h, w, l, yaw): 3D IoU (mode "3d") or the IoU of
    the BEV projections (mode "bev").

    Pairs whose circumscribed circles are apart, or (3D) whose vertical
    extents do not overlap, are 0 without clipping; all others are clipped
    together in one batch, once for every mode. Each mode clips a pair in
    its canonical order: the row with the smaller key (the whole row, or in
    BEV the BEV row) is the subject, so swapping a and b changes no bit. The
    two keys order a pair differently only if its rows share (cx, cy); the
    3D IoU clips such pairs again. Rows must be finite.
    """
    for mode in modes:
        if mode not in ("3d", "bev"):
            raise ValueError(f"unknown IoU mode {mode!r}")
    out = np.zeros((len(modes), len(a)))
    near = np.flatnonzero(_near(a, b, "bev" if "bev" in modes else "3d"))
    if not near.size:
        return out
    a, b = a[near], b[near]
    corners = _corners(np.concatenate([a[:, _BEV], b[:, _BEV]]))
    corners_a, corners_b = corners[:len(a)], corners[len(a):]
    base = _areas(corners, np.full(len(corners), 4))
    base_a, base_b = base[:len(a)], base[len(a):]
    swap = _swap(a[:, _BEV], b[:, _BEV]) if "bev" in modes else _swap(a, b)
    area = _inter_areas(corners_a, corners_b, swap)
    for i, mode in enumerate(modes):
        if mode == "bev":
            # a BEV box spans unit height, so the 3D formula below gives the
            # BEV IoU with every product by a height or overlap of exactly 1.0
            out[i, near] = np.where(area >= AREA_EPS, area / (base_a + base_b - area), 0.0)
            continue
        bottom_a, top_a = a[:, 2] - a[:, 3] / 2.0, a[:, 2] + a[:, 3] / 2.0
        bottom_b, top_b = b[:, 2] - b[:, 3] / 2.0, b[:, 2] + b[:, 3] / 2.0
        overlap = np.minimum(top_a, top_b) - np.maximum(bottom_a, bottom_b)
        rows = np.flatnonzero(overlap > 0.0)  # the 3D-near pairs
        swap_3d = _swap(a[rows], b[rows])
        area_3d = area[rows]
        redo = np.flatnonzero(swap_3d != swap[rows])
        area_3d[redo] = _inter_areas(corners_a[rows[redo]], corners_b[rows[redo]], swap_3d[redo])
        inter = area_3d * overlap[rows]
        vol_a = base_a[rows] * (top_a[rows] - bottom_a[rows])
        vol_b = base_b[rows] * (top_b[rows] - bottom_b[rows])
        out[i, near[rows]] = np.where(area_3d >= AREA_EPS, inter / (vol_a + vol_b - inter), 0.0)
    return out


def pair_iou(a: np.ndarray, b: np.ndarray, mode: str) -> np.ndarray:
    """IoU (P,) of the pairs of box rows a[p], b[p] in one mode: `pair_ious`."""
    return pair_ious(a, b, (mode,))[0]


def box_rows(boxes) -> np.ndarray:
    """(N, 7) rows of a sequence of `Box3D`s."""
    return np.array([box.as_array() for box in boxes]).reshape(len(boxes), 7)


def iou_matrix(a_boxes, b_boxes, mode: str) -> np.ndarray:
    """(len(a_boxes), len(b_boxes)) matrix of `pair_iou` over all pairs."""
    a, b = box_rows(a_boxes), box_rows(b_boxes)
    return pair_iou(np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1)), mode).reshape(len(a), len(b))


def iou_3d(a: Box3D, b: Box3D) -> float:
    """3D IoU of one pair: BEV intersection area times vertical overlap, over
    the union volume. A one-pair wrapper kept because the refinement
    benchmark (`perfbench/wl_refine.py`) scores refined boxes with it."""
    return float(pair_iou(a.as_array()[None], b.as_array()[None], "3d")[0])

