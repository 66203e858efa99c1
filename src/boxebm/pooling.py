"""Differentiable oriented-box pooling over a BEV feature grid.

A box is divided into a regular grid of cells; one bilinear sample is taken
at each cell center. Samples are flattened in a fixed order (length-axis
cell index outermost, then width-axis index, channels innermost) so the
pooled vector distinguishes a box from the same box rotated pi radians.
Jacobians w.r.t. the five BEV box parameters are produced alongside the
forward pass from the closed-form sample-point derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .featuregrid import FeatureGrid, bilinear_grad_many, bilinear_many, world_to_grid
from .geometry import BoxBEV

# Order of BEV box parameters in all pooling Jacobians.
BEV_PARAMS = ("cx", "cy", "w", "l", "yaw")


@dataclass(frozen=True)
class PoolConfig:
    grid_w: int = 4  # cells across the width axis
    grid_l: int = 7  # cells along the length (heading) axis

    def __post_init__(self):
        if self.grid_w < 1 or self.grid_l < 1:
            raise ConfigError(f"pool grid must be at least 1x1, got {self.grid_w}x{self.grid_l}")

    def feature_len(self, channels: int) -> int:
        return self.grid_w * self.grid_l * channels


def _cell_fractions(cfg: PoolConfig):
    # cell-center offsets as fractions of the box extents, in (-0.5, 0.5)
    u = (np.arange(cfg.grid_l) + 0.5) / cfg.grid_l - 0.5  # along length
    v = (np.arange(cfg.grid_w) + 0.5) / cfg.grid_w - 0.5  # across width
    return u, v


def _sample_points_batch(boxes: np.ndarray, cfg: PoolConfig, with_jac: bool):
    """World sample points for a batch of BEV boxes.

    boxes: (B, 5) rows (cx, cy, w, l, yaw). Returns points (B, L', W', 2)
    and, when requested, Jacobians (B, L', W', 2, 5).
    """
    u, v = _cell_fractions(cfg)
    uu = u[:, None]  # (L', 1)
    vv = v[None, :]  # (1, W')
    cx, cy, w, l, yaw = (boxes[:, k][:, None, None] for k in range(5))
    cos = np.cos(yaw)
    sin = np.sin(yaw)
    lx = uu * l  # local along-heading offset
    ly = vv * w  # local across offset
    px = cx + cos * lx - sin * ly
    py = cy + sin * lx + cos * ly
    pts = np.stack([px, py], axis=-1)
    if not with_jac:
        return pts, None
    b, nl, nw = px.shape
    jac = np.zeros((b, nl, nw, 2, 5))
    jac[..., 0, 0] = 1.0  # d px / d cx
    jac[..., 1, 1] = 1.0  # d py / d cy
    jac[..., 0, 2] = -sin * vv
    jac[..., 1, 2] = cos * vv
    jac[..., 0, 3] = cos * uu
    jac[..., 1, 3] = sin * uu
    jac[..., 0, 4] = -sin * lx - cos * ly
    jac[..., 1, 4] = cos * lx - sin * ly
    return pts, jac


def grid_points(box: BoxBEV, cfg: PoolConfig):
    """Sample points (W', L', 2) and their Jacobians (W', L', 2, 5).

    Point (i, j) sits at center + R(yaw) @ (u_j * l, v_i * w) with
    u_j = (j + 0.5)/L' - 0.5 and v_i = (i + 0.5)/W' - 0.5.
    """
    pts, jac = _sample_points_batch(box.as_array()[None, :], cfg, with_jac=True)
    # internal layout is (L', W', ...); the public one indexes (i, j)
    return pts[0].transpose(1, 0, 2), jac[0].transpose(1, 0, 2, 3)


def pool_bev_batch(grid: FeatureGrid, boxes: np.ndarray, cfg: PoolConfig, with_jac: bool = False):
    """Pooled vectors (B, n) for BEV box rows; optionally Jacobians (B, n, 5)."""
    boxes = np.asarray(boxes, dtype=float)
    b = boxes.shape[0]
    c = grid.channels
    n = cfg.feature_len(c)
    pts, pjac = _sample_points_batch(boxes, cfg, with_jac)
    q = world_to_grid(grid, pts.reshape(-1, 2))
    if not with_jac:
        vals = bilinear_many(grid, q)
        return vals.reshape(b, n), None
    vals, vjac = bilinear_grad_many(grid, q)  # (BN, C), (BN, C, 2)
    # chain: d val / d param = d val / d q * (1/res) * d p / d param
    pj = pjac.reshape(-1, 2, 5)
    full = np.einsum("ncx,nxp->ncp", vjac, pj) / grid.res
    return vals.reshape(b, n), full.reshape(b, n, 5)
