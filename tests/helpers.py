"""Independent oracles shared by module and acceptance tests.

Everything here deliberately avoids the library's own computation paths:
inside-box tests work in box-local coordinates, areas come from sampling.
"""

from __future__ import annotations

import math

import numpy as np

from boxebm.geometry import Box3D, BoxBEV


def points_in_bev(box: BoxBEV, pts: np.ndarray) -> np.ndarray:
    """Boolean mask of points inside an oriented BEV box (local-frame test)."""
    d = pts - np.array([box.cx, box.cy])
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    u = c * d[:, 0] + s * d[:, 1]  # along heading
    v = -s * d[:, 0] + c * d[:, 1]  # across
    return (np.abs(u) <= box.l / 2.0) & (np.abs(v) <= box.w / 2.0)


def _joint_bbox(a: BoxBEV, b: BoxBEV):
    r_a = math.hypot(a.l, a.w) / 2.0
    r_b = math.hypot(b.l, b.w) / 2.0
    lo = np.minimum([a.cx - r_a, a.cy - r_a], [b.cx - r_b, b.cy - r_b])
    hi = np.maximum([a.cx + r_a, a.cy + r_a], [b.cx + r_b, b.cy + r_b])
    return lo, hi


def mc_bev_iou(a: BoxBEV, b: BoxBEV, n_pow2: int = 20, seed: int = 0) -> float:
    """Quasi-Monte-Carlo IoU estimate from 2**n_pow2 low-discrepancy samples."""
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


def aligned_bev_iou(a: BoxBEV, b: BoxBEV) -> float:
    """Closed-form IoU for axis-aligned (yaw = 0) boxes."""
    ix = max(0.0, min(a.cx + a.l / 2, b.cx + b.l / 2) - max(a.cx - a.l / 2, b.cx - b.l / 2))
    iy = max(0.0, min(a.cy + a.w / 2, b.cy + b.w / 2) - max(a.cy - a.w / 2, b.cy - b.w / 2))
    inter = ix * iy
    if inter == 0.0:
        return 0.0
    return inter / (a.w * a.l + b.w * b.l - inter)


def random_bev_box(rng: np.random.Generator, span: float = 4.0) -> BoxBEV:
    return BoxBEV(
        cx=float(rng.uniform(-span, span)),
        cy=float(rng.uniform(-span, span)),
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
    from boxebm.pooling import grid_points
    from boxebm.geometry import BoxBEV

    while True:
        params, grid, box, cfg = small_energy_setup(rng)
        pts, _ = grid_points(BoxBEV.from_array(box[[0, 1, 4, 5, 6]]), cfg)
        q = world_to_grid(grid, pts.reshape(-1, 2))
        if np.min(np.abs(q - np.round(q))) < min_cell:
            continue
        _, cache = forward_batch(params, grid, box[None, :], cfg)
        pre_min = min(
            np.min(np.abs(cache[k])) for k in ("z1", "z2", "cz1", "cz2", "hz1", "hz2")
        )
        if pre_min < min_pre:
            continue
        return params, grid, box, cfg
