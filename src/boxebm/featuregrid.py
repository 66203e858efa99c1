"""Dense BEV feature map with a world-to-grid transform and bilinear lookup.

The grid stores a (W, L, C) array: axis 0 follows world x, axis 1 world y,
channels innermost. Queries outside the stored extent see zeros (zero
padding), which keeps values and gradients finite everywhere so gradient
ascent cannot chase boxes off the map. At exact cell boundaries the
gradient is the right-sided derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Query points per pass of `bilinear_many`: small enough that the four corner
# arrays of a pass stay in cache.
QUERY_CHUNK = 2048


@dataclass(frozen=True)
class FeatureGrid:
    data: np.ndarray  # (W, L, C) float64, finite
    origin_x: float  # world x of cell (0, 0) center
    origin_y: float
    res: float  # meters per cell

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ConfigError(f"grid data must be (W, L, C), got shape {self.data.shape}")
        w, length, c = self.data.shape
        if w < 2 or length < 2 or c < 1:
            raise ConfigError(f"grid too small: {self.data.shape}")
        if not self.res > 0:
            raise ConfigError(f"grid resolution must be positive, got {self.res}")
        if not np.all(np.isfinite(self.data)):
            raise ConfigError("grid data contains non-finite values")

    @property
    def channels(self) -> int:
        return self.data.shape[2]


def world_to_grid(grid: FeatureGrid, p) -> np.ndarray:
    """Continuous grid coordinates of world point(s) p, shape (..., 2)."""
    p = np.asarray(p, dtype=float)
    origin = np.array([grid.origin_x, grid.origin_y])
    return (p - origin) / grid.res


def _corner_values(grid: FeatureGrid, q: np.ndarray):
    """Zero-padded values at the four cells around each query, plus fractions."""
    w, length, c = grid.data.shape
    flat = grid.data.reshape(w * length, c)
    gx, gy = q[:, 0], q[:, 1]
    ix = np.floor(gx)
    iy = np.floor(gy)
    tx = gx - ix
    ty = gy - iy
    ix = ix.astype(np.int64)
    iy = iy.astype(np.int64)
    if len(q) and ix.min() >= 0 and ix.max() < w - 1 and iy.min() >= 0 and iy.max() < length - 1:
        # every corner is inside the grid: plain row gathers, no padding
        at = ix * length + iy
        corners = [flat.take(at + offset, axis=0) for offset in (0, length, 1, length + 1)]
        return (*corners, tx[:, None], ty[:, None])

    def fetch(di, dj):
        cx = ix + di
        cy = iy + dj
        valid = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < length)
        vals = flat.take(np.clip(cx, 0, w - 1) * length + np.clip(cy, 0, length - 1), axis=0)
        return vals * valid[:, None]

    return fetch(0, 0), fetch(1, 0), fetch(0, 1), fetch(1, 1), tx[:, None], ty[:, None]


def _interp(v00, v10, v01, v11, tx, ty, out):
    """(1 - tx) * ((1 - ty) * v00 + ty * v01) + tx * ((1 - ty) * v10 + ty * v11)
    into `out`, with the same products and sums in the same order but no
    temporaries: the four corner arrays are overwritten."""
    sy = 1 - ty
    v00 *= sy
    v01 *= ty
    v00 += v01
    v10 *= sy
    v11 *= ty
    v10 += v11
    v00 *= 1 - tx
    v10 *= tx
    return np.add(v00, v10, out=out)


def bilinear_many(grid: FeatureGrid, q: np.ndarray) -> np.ndarray:
    """Bilinear interpolation at continuous grid coordinates q (N, 2) -> (N, C)."""
    q = np.asarray(q, dtype=float)
    out = np.empty((len(q), grid.channels))
    for start in range(0, len(q), QUERY_CHUNK):
        _interp(*_corner_values(grid, q[start:start + QUERY_CHUNK]), out=out[start:start + QUERY_CHUNK])
    return out


def bilinear_grad_many(grid: FeatureGrid, q: np.ndarray):
    """Values (N, C) and analytic Jacobians (N, C, 2) w.r.t. the query point."""
    v00, v10, v01, v11, tx, ty = _corner_values(grid, np.asarray(q, dtype=float))
    dx = (1 - ty) * (v10 - v00) + ty * (v11 - v01)
    dy = (1 - tx) * (v01 - v00) + tx * (v11 - v10)
    val = _interp(v00, v10, v01, v11, tx, ty, out=np.empty_like(v00))
    return val, np.stack([dx, dy], axis=2)
