"""Independent oracles shared by module and acceptance tests.

Everything here deliberately avoids the library's own computation paths:
inside-box tests work in box-local coordinates, areas come from sampling,
and the exact references (`reference_iou`, `reference_match_scene`,
`reference_average_precision`) are the scalar pair clip, the per-scene
matcher and the per-column AP that the batched kernels replaced, kept
verbatim so the kernels can be checked bit for bit. The clip's vertex
merge distance, the one deliberate change, is a parameter.
`reference_build_parser` is the CLI parser with every subcommand built,
kept verbatim so that what argparse prints can be checked byte for byte.
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from boxebm.evalkit import FP, IGNORED, RECALL_POSITIONS, TP
from boxebm.geometry import _BEV, AREA_EPS, Box3D

# Clipped vertices closer than this in both coordinates are merged: the
# kernel's `VERTEX_MERGE_EPS`, written out so that a change to it is a test
# change. The scalar clip merged within OLD_MERGE_EPS, which dropped true
# corners where nearly parallel edges cross (see `TestIouMatrix`).
MERGE_EPS = 1e-12
OLD_MERGE_EPS = 1e-9


def points_in_bev(box: Box3D, pts: np.ndarray) -> np.ndarray:
    """Boolean mask of points inside a box's BEV footprint (local-frame test)."""
    d = pts - np.array([box.cx, box.cy])
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    u = c * d[:, 0] + s * d[:, 1]  # along heading
    v = -s * d[:, 0] + c * d[:, 1]  # across
    return (np.abs(u) <= box.l / 2.0) & (np.abs(v) <= box.w / 2.0)


def _joint_bbox(a: Box3D, b: Box3D):
    r_a = math.hypot(a.l, a.w) / 2.0
    r_b = math.hypot(b.l, b.w) / 2.0
    lo = np.minimum([a.cx - r_a, a.cy - r_a], [b.cx - r_b, b.cy - r_b])
    hi = np.maximum([a.cx + r_a, a.cy + r_a], [b.cx + r_b, b.cy + r_b])
    return lo, hi


def mc_bev_iou(a: Box3D, b: Box3D, n_pow2: int = 20, seed: int = 0) -> float:
    """Quasi-Monte-Carlo BEV IoU estimate from 2**n_pow2 low-discrepancy samples."""
    from scipy.stats import qmc

    lo, hi = _joint_bbox(a, b)
    pts = qmc.Sobol(2, scramble=True, seed=seed).random_base2(n_pow2)
    pts = lo + pts * (hi - lo)
    in_a = points_in_bev(a, pts)
    in_b = points_in_bev(b, pts)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def aligned_bev_iou(a: Box3D, b: Box3D) -> float:
    """Closed-form BEV IoU for axis-aligned (yaw = 0) boxes."""
    ix = max(0.0, min(a.cx + a.l / 2, b.cx + b.l / 2) - max(a.cx - a.l / 2, b.cx - b.l / 2))
    iy = max(0.0, min(a.cy + a.w / 2, b.cy + b.w / 2) - max(a.cy - a.w / 2, b.cy - b.w / 2))
    inter = ix * iy
    if inter == 0.0:
        return 0.0
    return inter / (a.w * a.l + b.w * b.l - inter)


def _reference_corners(box: Box3D) -> np.ndarray:
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    hl, hw = box.l / 2.0, box.w / 2.0
    local = np.array([(hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)])
    rot = np.array([(c, -s), (s, c)])
    return local @ rot.T + np.array([box.cx, box.cy])


def _reference_area(vertices: np.ndarray) -> float:
    n = len(vertices)
    if n < 3:
        return 0.0
    x, y = vertices[:, 0], vertices[:, 1]
    nxt = np.arange(1, n + 1) % n
    return abs(float(np.dot(x, y[nxt]) - np.dot(y, x[nxt]))) / 2.0


def _merge_close_vertices(poly: list, eps: float) -> list:
    out = []
    for p in poly:
        if out and abs(p[0] - out[-1][0]) < eps and abs(p[1] - out[-1][1]) < eps:
            continue
        out.append(p)
    while len(out) >= 2 and abs(out[0][0] - out[-1][0]) < eps and abs(out[0][1] - out[-1][1]) < eps:
        out.pop()
    return out


def reference_clip(subject: np.ndarray, clip: np.ndarray, merge_eps: float = MERGE_EPS) -> np.ndarray:
    """Sutherland-Hodgman intersection of two convex CCW polygons, one pair
    at a time in Python floats; points on a clip edge count as inside, and
    vertices within merge_eps are merged."""
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
        p_in = ex * (py - ay) - ey * (px - ax) >= 0.0
        for qx, qy in inp:
            q_in = ex * (qy - ay) - ey * (qx - ax) >= 0.0
            if q_in != p_in:
                dx, dy = qx - px, qy - py
                den = ex * dy - ey * dx
                if den != 0.0:
                    t = (ex * (ay - py) - ey * (ax - px)) / den
                    output.append((px + t * dx, py + t * dy))
            if q_in:
                output.append((qx, qy))
            px, py, p_in = qx, qy, q_in
    output = _merge_close_vertices(output, merge_eps)
    if len(output) < 3:
        return np.empty((0, 2))
    return np.array(output)


def reference_iou(a: Box3D, b: Box3D, mode: str, merge_eps: float = MERGE_EPS) -> float:
    """IoU of one pair, 3D (mode "3d") or of the BEV projections (mode "bev"),
    by the scalar clip with no far-pair test. The pair is taken in the
    canonical order (smaller key first) and a BEV box spans unit height."""
    if mode == "3d":
        key_a, key_b = tuple(a.as_array()), tuple(b.as_array())
        solid_a = (a, a.cz - a.h / 2.0, a.cz + a.h / 2.0)
        solid_b = (b, b.cz - b.h / 2.0, b.cz + b.h / 2.0)
    else:
        key_a, key_b = tuple(a.as_array()[_BEV]), tuple(b.as_array()[_BEV])
        solid_a, solid_b = (a, 0.0, 1.0), (b, 0.0, 1.0)
    (bev_a, bottom_a, top_a), (bev_b, bottom_b, top_b) = (solid_a, solid_b) if key_a <= key_b else (solid_b, solid_a)
    overlap = min(top_a, top_b) - max(bottom_a, bottom_b)
    if overlap <= 0.0:
        return 0.0
    corners_a, corners_b = _reference_corners(bev_a), _reference_corners(bev_b)
    inter = _reference_area(reference_clip(corners_a, corners_b, merge_eps))
    if inter < AREA_EPS:
        return 0.0
    inter *= overlap
    vol_a = _reference_area(corners_a) * (top_a - bottom_a)
    vol_b = _reference_area(corners_b) * (top_b - bottom_b)
    return inter / (vol_a + vol_b - inter)


def reference_match_scene(scores: np.ndarray, iou: np.ndarray, thresholds, valid: np.ndarray) -> np.ndarray:
    """Labels (K, T, D) of one scene for T thresholds and K difficulties: the
    per-scene greedy matcher. scores (D,), iou (D, G), valid (K, G)."""
    labels = np.full((len(valid), len(thresholds), len(scores)), FP, dtype=int)
    taken = np.zeros((len(valid), len(thresholds), iou.shape[1]), dtype=bool)
    thresholds = np.asarray(thresholds, dtype=float)[:, None]
    valid = valid[:, None, :]
    hits = (iou >= np.min(thresholds, initial=np.inf)).any(axis=1)
    for di in np.argsort(-scores, kind="stable"):
        if not hits[di]:
            continue
        row = iou[di]
        open_ = (row >= thresholds) & ~taken
        open_valid = open_ & valid
        has_valid = open_valid.any(axis=-1)
        pool = np.where(has_valid[..., None], open_valid, open_)
        found = pool.any(axis=-1)
        best = np.where(pool, row, -np.inf).argmax(axis=-1)
        ks, ts = np.nonzero(found)
        taken[ks, ts, best[ks, ts]] = True
        labels[..., di] = np.where(has_valid, TP, np.where(found, IGNORED, FP))
    return labels


def reference_average_precision(tp_flags, scores, num_gt: int) -> tuple:
    """(AP, 40 interpolated precisions) of one column of pooled non-ignored
    detections, sorted on their own."""
    tp_flags = np.asarray(tp_flags, dtype=bool)
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(-scores, kind="stable")
    tp_cum = np.cumsum(tp_flags[order])
    k = np.arange(1, len(order) + 1)
    s = scores[order]
    if len(s):
        boundary = np.append(s[:-1] != s[1:], True)
        tp_cum, k = tp_cum[boundary], k[boundary]
    recalls = tp_cum / num_gt
    precisions = tp_cum / k
    best_from = np.append(np.maximum.accumulate(precisions[::-1])[::-1], 0.0)
    interp = best_from[np.searchsorted(recalls, RECALL_POSITIONS - 1e-12, side="left")]
    return math.fsum(interp.tolist()) / len(RECALL_POSITIONS), interp.tolist()


def reference_build_parser() -> argparse.ArgumentParser:
    """The CLI's parser with all six subcommands, as every call once built it."""
    from boxebm import cli
    from boxebm.cli import COMMANDS

    parser = argparse.ArgumentParser(prog="boxebm", description=cli.__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key-value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--seed", type=int, help="override the top-level seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--dataset", help="scene dataset directory")
        p.add_argument("--checkpoint", help="energy-net checkpoint file")
        p.add_argument("--split", default=None, help="dataset split to use")
        if name == "train":
            p.add_argument("--resume", help="checkpoint to continue training from")
        if name == "refine":
            p.add_argument("--traces", action="store_true", help="dump per-detection traces")
        if name == "eval":
            p.add_argument("--dets", help="directory of KITTI result files to evaluate")
            p.add_argument("--kitti-gt", dest="kitti_gt", help="directory of KITTI label files as ground truth")
        if name == "angle-scan":
            p.add_argument("--scene-id", dest="scene_id", type=int)
            p.add_argument("--det-index", dest="det_index", type=int, default=0)
    return parser


def reference_pool_jacobian(grid, boxes: np.ndarray, cfg) -> np.ndarray:
    """Pooled Jacobians (B, n, 5) of BEV box rows (B, 5) as the dense formula
    formed them: each sample point's (2, 5) Jacobian, contracted with the
    gather's (C, 2) derivatives by `einsum`, over the grid resolution."""
    from boxebm.featuregrid import bilinear_grad_many, world_to_grid

    uu = ((np.arange(cfg.grid_l) + 0.5) / cfg.grid_l - 0.5)[:, None]
    vv = ((np.arange(cfg.grid_w) + 0.5) / cfg.grid_w - 0.5)[None, :]
    cx, cy, w, l, yaw = (boxes[:, k][:, None, None] for k in range(5))
    cos = np.cos(yaw)
    sin = np.sin(yaw)
    lx = uu * l
    ly = vv * w
    px = cx + cos * lx - sin * ly
    py = cy + sin * lx + cos * ly
    jac = np.zeros(px.shape + (2, 5))
    jac[..., 0, 0] = 1.0
    jac[..., 1, 1] = 1.0
    jac[..., 0, 2] = -sin * vv
    jac[..., 1, 2] = cos * vv
    jac[..., 0, 3] = cos * uu
    jac[..., 1, 3] = sin * uu
    jac[..., 0, 4] = -sin * lx - cos * ly
    jac[..., 1, 4] = cos * lx - sin * ly
    q = world_to_grid(grid, np.stack([px, py], axis=-1).reshape(-1, 2))
    _, dx, dy = bilinear_grad_many(grid, q)
    full = np.einsum("ncx,nxp->ncp", np.stack([dx, dy], axis=2), jac.reshape(-1, 2, 5)) / grid.res
    return full.reshape(len(boxes), -1, 5)


def random_bev_box(rng: np.random.Generator, span: float = 4.0) -> Box3D:
    """A box with random BEV fields and the placeholder cz = 0, h = 1."""
    return Box3D(
        cx=float(rng.uniform(-span, span)),
        cy=float(rng.uniform(-span, span)),
        cz=0.0,
        h=1.0,
        w=float(rng.uniform(0.5, 3.0)),
        l=float(rng.uniform(0.5, 5.0)),
        yaw=float(rng.uniform(-math.pi, math.pi)),
    )


def random_box3d(rng: np.random.Generator, span: float = 4.0) -> Box3D:
    return Box3D(
        cx=float(rng.uniform(-span, span)),
        cy=float(rng.uniform(-span, span)),
        cz=float(rng.uniform(-1.0, 1.0)),
        h=float(rng.uniform(0.5, 2.5)),
        w=float(rng.uniform(0.5, 3.0)),
        l=float(rng.uniform(0.5, 5.0)),
        yaw=float(rng.uniform(-math.pi, math.pi)),
    )


def small_energy_setup(rng: np.random.Generator):
    """Random (params, grid, box row, pool config) on a small instance.

    Parameters get jittered biases so ReLU pre-activations sit at generic
    positions rather than exactly at zero.
    """
    from boxebm.energynet import EnergyNetDims, init_params
    from boxebm.featuregrid import FeatureGrid
    from boxebm.pooling import PoolConfig

    cfg = PoolConfig(2, 3)
    grid = FeatureGrid(rng.normal(size=(14, 14, 2)), origin_x=-3.5, origin_y=-3.5, res=0.5)
    dims = EnergyNetDims(feat_len=cfg.feature_len(2), enc_dim=4, head_dims=(16, 16))
    params = init_params(int(rng.integers(1 << 31)), dims)
    vec = params.to_vector()
    params = params.from_vector(vec + 0.05 * rng.normal(size=vec.size))
    return params, grid, random_box_row(rng), cfg


def random_box_row(rng: np.random.Generator) -> np.ndarray:
    """A box row (cx, cy, cz, h, w, l, yaw) near the origin of the test grids."""
    return np.array([
        rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(0.2, 1.2),
        rng.uniform(0.8, 2.0), rng.uniform(0.8, 2.0), rng.uniform(1.5, 4.0),
        rng.uniform(-math.pi, math.pi),
    ])


def default_size_setup(rng: np.random.Generator):
    """Like `small_energy_setup`, but with the default pool and encoder
    sizes and two 1024-wide head layers, where multi-row BLAS products round
    rows differently from one-row products."""
    from boxebm.energynet import EnergyNetDims, init_params
    from boxebm.featuregrid import FeatureGrid
    from boxebm.pooling import PoolConfig

    cfg = PoolConfig()
    grid = FeatureGrid(rng.normal(size=(16, 16, 16)), origin_x=-4.0, origin_y=-4.0, res=0.5)
    dims = EnergyNetDims(feat_len=cfg.feature_len(16), enc_dim=16, head_dims=(1024, 1024))
    params = init_params(int(rng.integers(1 << 31)), dims)
    vec = params.to_vector()
    params = params.from_vector(vec + 0.05 * rng.normal(size=vec.size))
    return params, grid, random_box_row(rng), cfg


def fd_safe_instance(rng: np.random.Generator, min_pre=1e-3, min_cell=1e-3):
    """Draw instances until sample points and ReLU pre-activations are safely
    away from bilinear cell boundaries / kinks, so central finite differences
    with step 1e-6 sample a region where the energy is smooth."""
    from boxebm.energynet import forward_batch
    from boxebm.featuregrid import world_to_grid
    from boxebm.pooling import _sample_points_batch

    while True:
        params, grid, box, cfg = small_energy_setup(rng)
        pts, _ = _sample_points_batch(box[None, _BEV], cfg)
        q = world_to_grid(grid, pts.reshape(-1, 2))
        if np.min(np.abs(q - np.round(q))) < min_cell:
            continue
        _, cache = forward_batch(params, grid, box[None, :], cfg)
        pre_min = min(
            np.min(np.abs(cache[group][k])) for group in ("head", "enc_cz", "enc_h") for k in ("z1", "z2")
        )
        if pre_min < min_pre:
            continue
        return params, grid, box, cfg
