import math

import numpy as np
import pytest

from boxebm.errors import ConfigError
from boxebm.featuregrid import FeatureGrid
from boxebm.pooling import PoolConfig, _sample_points_batch, pool_bev_batch


def make_grid(rng, w=16, l=16, c=3, res=0.5, ox=-4.0, oy=-4.0):
    return FeatureGrid(rng.normal(size=(w, l, c)), origin_x=ox, origin_y=oy, res=res)


class TestGridPoints:
    def test_single_cell_is_center(self):
        box = np.array([[1.5, -2.0, 1.8, 4.0, 0.7]])
        (pts,), (jac,) = _sample_points_batch(box, PoolConfig(1, 1), with_jac=True)
        assert pts.shape == (1, 1, 2)
        assert np.allclose(pts[0, 0], [1.5, -2.0], atol=1e-12)
        assert np.allclose(jac[0, 0, :, 0:2], np.eye(2), atol=1e-12)
        assert np.allclose(jac[0, 0, :, 2:], 0.0, atol=1e-12)

    def test_two_by_three_axis_aligned(self):
        box = np.array([[1.0, 2.0, 2.0, 3.0, 0.0]])
        (pts,), _ = _sample_points_batch(box, PoolConfig(grid_w=2, grid_l=3), with_jac=False)
        xs = 1.0 + np.array([-1.0, 0.0, 1.0])  # u = (-1/3, 0, 1/3) times l=3
        ys = 2.0 + np.array([-0.5, 0.5])  # v = (-1/4, 1/4) times w=2
        expected = {(x, y) for x in xs for y in ys}
        got = {(round(p[0], 12), round(p[1], 12)) for p in pts.reshape(-1, 2)}
        assert got == expected

    def test_periodicity_in_yaw(self):
        boxes = np.array([[0.3, -0.4, 1.5, 4.0, 0.9], [0.3, -0.4, 1.5, 4.0, 0.9 + 2 * math.pi]])
        (p1, p2), _ = _sample_points_batch(boxes, PoolConfig(), with_jac=False)
        # fl(yaw + 2*pi) is not exactly yaw + 2*pi, so identity holds to fp accuracy
        assert np.allclose(p1, p2, atol=1e-12)

    def test_periodicity_exact_at_zero(self):
        boxes = np.array([[0.3, -0.4, 1.5, 4.0, 0.0], [0.3, -0.4, 1.5, 4.0, 2 * math.pi]])
        (p1, p2), _ = _sample_points_batch(boxes, PoolConfig(), with_jac=False)
        assert np.allclose(p1, p2, atol=1e-15)


class TestPoolBev:
    def test_constant_grid(self):
        g = FeatureGrid(np.full((8, 8, 2), 3.5), -2.0, -2.0, 0.5)
        box = np.array([[0.0, 0.0, 1.0, 2.0, 0.3]])
        values, jac = pool_bev_batch(g, box, PoolConfig(2, 3), with_jac=True)
        assert values.shape == (1, 2 * 3 * 2)
        assert np.allclose(values, 3.5, atol=1e-12)
        assert np.allclose(jac, 0.0, atol=1e-12)

    def test_pi_rotation_distinguishable(self, rng):
        g = make_grid(rng)
        cfg = PoolConfig(2, 3)
        (a, b), _ = pool_bev_batch(g, np.array([[0.2, 0.1, 1.5, 3.0, 0.4],
                                                [0.2, 0.1, 1.5, 3.0, 0.4 + math.pi]]), cfg)
        assert not np.allclose(a, b, atol=1e-6)

    def test_feature_length_default(self, rng):
        g = make_grid(rng, c=4)
        values, _ = pool_bev_batch(g, np.array([[0, 0, 1.5, 3.5, 0.2]]), PoolConfig(4, 7))
        assert values.shape == (1, 4 * 7 * 4)

    def test_flattening_order(self):
        # value at sample (i, j) channel c must land at ((j*W' + i)*C + c)
        w, l, c = 12, 12, 2
        data = np.zeros((w, l, c))
        data[:, :, 0] = np.arange(w)[:, None]  # channel 0 stores x index
        data[:, :, 1] = np.arange(l)[None, :]  # channel 1 stores y index
        g = FeatureGrid(data, 0.0, 0.0, 1.0)
        cfg = PoolConfig(grid_w=2, grid_l=3)
        box = np.array([[5.0, 6.0, 2.0, 3.0, 0.0]])
        pts, _ = _sample_points_batch(box, cfg, with_jac=False)
        pts = pts[0].transpose(1, 0, 2)  # index (i, j): width cell, then length cell
        (pooled,), _ = pool_bev_batch(g, box, cfg)
        for i in range(2):
            for j in range(3):
                base = (j * 2 + i) * c
                assert pooled[base + 0] == pytest.approx(pts[i, j, 0], abs=1e-12)
                assert pooled[base + 1] == pytest.approx(pts[i, j, 1], abs=1e-12)

    def test_shift_equivariance_exact_for_dyadic_offsets(self, rng):
        data = rng.normal(size=(16, 16, 2))
        res = 0.25
        g1 = FeatureGrid(data, -2.0, -2.0, res)
        offset = 3 * res  # 0.75, exactly representable
        g2 = FeatureGrid(data, -2.0 + offset, -2.0 + offset, res)
        box1 = np.array([[0.5, -0.25, 1.5, 3.0, 0.375]])
        box2 = np.array([[0.5 + offset, -0.25 + offset, 1.5, 3.0, 0.375]])
        a, _ = pool_bev_batch(g1, box1, PoolConfig(2, 3))
        b, _ = pool_bev_batch(g2, box2, PoolConfig(2, 3))
        # identical up to the rounding of the two shifted additions
        assert np.allclose(a, b, atol=1e-12)

    def test_jacobian_matches_finite_differences(self, rng):
        cfg = PoolConfig(2, 3)
        step = 1e-6
        checked = 0
        while checked < 30:
            g = make_grid(rng, w=20, l=20, c=2, res=0.5, ox=-5.0, oy=-5.0)
            arr = np.array([
                rng.uniform(-2, 2), rng.uniform(-2, 2),
                rng.uniform(0.8, 2.0), rng.uniform(1.5, 4.0),
                rng.uniform(-math.pi, math.pi),
            ])
            pts, _ = _sample_points_batch(arr[None, :], cfg, with_jac=False)
            q = (pts.reshape(-1, 2) + 5.0) / 0.5
            if np.min(np.abs(q - np.round(q))) < 1e-3:
                continue  # stay clear of cell boundaries
            checked += 1
            _, jac = pool_bev_batch(g, arr[None, :], cfg, with_jac=True)
            for p in range(5):
                e = np.zeros(5)
                e[p] = step
                hi, _ = pool_bev_batch(g, (arr + e)[None, :], cfg)
                lo, _ = pool_bev_batch(g, (arr - e)[None, :], cfg)
                fd = (hi[0] - lo[0]) / (2 * step)
                diff = np.abs(jac[0][:, p] - fd)
                rel = diff / np.maximum(np.maximum(np.abs(fd), np.abs(jac[0][:, p])), 1e-12)
                # near-zero gradients are dominated by fd roundoff; accept on abs error
                assert np.all((rel < 1e-5) | (diff < 1e-8))


def test_pool_config_validation():
    with pytest.raises(ConfigError):
        PoolConfig(0, 3)
