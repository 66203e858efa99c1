"""Differentiable oriented-box pooling over a BEV feature grid.

A box is divided into a regular grid of cells; one bilinear sample is taken
at each cell center. Samples are flattened in a fixed order (length-axis
cell index outermost, then width-axis index, channels innermost) so the
pooled vector distinguishes a box from the same box rotated pi radians.

Jacobians w.r.t. the five BEV box parameters are produced alongside the
forward pass by the chain rule: the gather's x and y derivatives, times
the closed-form sample-point derivatives, over the grid resolution. Each
Jacobian column is formed as `((dx * j_x + dy * j_y) + 0.0) / res`: the
contraction over the two point coordinates, bit for bit as a sum
accumulated from zero gives it (the `+ 0.0` turns a -0.0 sum into +0.0).
So the cx and cy columns are `(dx + 0.0) / res` and `(dy + 0.0) / res`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .featuregrid import FeatureGrid, bilinear_grad_many, bilinear_many, world_to_grid


@dataclass(frozen=True)
class PoolConfig:
    grid_w: int = 4  # cells across the width axis
    grid_l: int = 7  # cells along the length (heading) axis

    def __post_init__(self):
        if self.grid_w < 1 or self.grid_l < 1:
            raise ConfigError(f"pool grid must be at least 1x1, got {self.grid_w}x{self.grid_l}")

    def feature_len(self, channels: int) -> int:
        return self.grid_w * self.grid_l * channels


@functools.cache
def _cell_fractions(cfg: PoolConfig):
    """Cell-center offsets as fractions of the box extents, in (-0.5, 0.5):
    u (L', 1) along the length and v (1, W') across the width. Read-only,
    since they are shared by every call with this config."""
    u = (np.arange(cfg.grid_l) + 0.5) / cfg.grid_l - 0.5
    v = (np.arange(cfg.grid_w) + 0.5) / cfg.grid_w - 0.5
    u.flags.writeable = v.flags.writeable = False
    return u[:, None], v[None, :]


def _sample_points_batch(boxes: np.ndarray, cfg: PoolConfig):
    """World sample points for a batch of BEV boxes.

    boxes: (B, 5) rows (cx, cy, w, l, yaw). Returns points (B, L', W', 2)
    and the box frames (cos, sin (B, 1, 1), lx (B, L', 1), ly (B, 1, W'))
    their Jacobian is made of. Point (j, i) sits at center + R(yaw) @ (lx_j, ly_i)
    with lx_j = u_j * l, ly_i = v_i * w, u_j = (j + 0.5)/L' - 0.5 and
    v_i = (i + 0.5)/W' - 0.5.
    """
    u, v = _cell_fractions(cfg)
    cx, cy, w, l, yaw = boxes.T[:, :, None, None]
    cos = np.cos(yaw)
    sin = np.sin(yaw)
    lx = u * l  # local along-heading offset
    ly = v * w  # local across offset
    pts = np.empty((len(boxes), cfg.grid_l, cfg.grid_w, 2))
    pts[..., 0] = cx + cos * lx - sin * ly
    pts[..., 1] = cy + sin * lx + cos * ly
    return pts, (cos, sin, lx, ly)


def pool_bev_batch(grid: FeatureGrid, boxes: np.ndarray, cfg: PoolConfig, with_jac: bool = False):
    """Pooled vectors (B, n) for BEV box rows; optionally Jacobians (B, n, 5)."""
    boxes = np.asarray(boxes, dtype=float)
    b = boxes.shape[0]
    c = grid.channels
    n = cfg.feature_len(c)
    pts, (cos, sin, lx, ly) = _sample_points_batch(boxes, cfg)
    q = world_to_grid(grid, pts.reshape(-1, 2))
    if not with_jac:
        return bilinear_many(grid, q).reshape(b, n), None
    vals, dx, dy = bilinear_grad_many(grid, q)  # (BN, C) each
    # chain: d val / d param = (d val / d px * d px / d param + d val / d py * d py / d param) / res
    u, v = _cell_fractions(cfg)
    shape = (b, cfg.grid_l, cfg.grid_w, c)
    dx = dx.reshape(shape)
    dy = dy.reshape(shape)
    jac = np.empty(shape + (5,))
    np.divide(dx + 0.0, grid.res, out=jac[..., 0])  # d px / d cx = 1, d py / d cx = 0
    np.divide(dy + 0.0, grid.res, out=jac[..., 1])  # d px / d cy = 0, d py / d cy = 1
    for col, (jx, jy) in enumerate([(-sin * v, cos * v),  # w
                                    (cos * u, sin * u),  # l
                                    (-sin * lx - cos * ly, cos * lx - sin * ly)],  # yaw
                                   start=2):
        part = dx * jx[..., None]
        part += dy * jy[..., None]
        part += 0.0
        np.divide(part, grid.res, out=jac[..., col])
    return vals.reshape(b, n), jac.reshape(b, n, 5)
