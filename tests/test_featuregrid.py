import numpy as np
import pytest

from boxebm.errors import ConfigError
from boxebm.featuregrid import (
    QUERY_CHUNK,
    FeatureGrid,
    bilinear_grad_many,
    bilinear_many,
    world_to_grid,
)


def make_grid(rng, w=6, l=5, c=3, res=0.5, ox=-1.0, oy=2.0):
    return FeatureGrid(rng.normal(size=(w, l, c)), origin_x=ox, origin_y=oy, res=res)


class TestTransform:
    def test_origin_maps_to_zero(self, rng):
        g = make_grid(rng)
        assert np.array_equal(world_to_grid(g, (g.origin_x, g.origin_y)), [0.0, 0.0])

    def test_linear_map(self, rng):
        g = make_grid(rng, res=0.5)
        q = world_to_grid(g, (g.origin_x + 1.0, g.origin_y + 2.0))
        assert np.allclose(q, [2.0, 4.0], atol=0)


class TestBilinear:
    def test_value_at_node(self, rng):
        g = make_grid(rng)
        assert np.array_equal(bilinear_many(g, np.array([[2.0, 3.0]]))[0], g.data[2, 3])

    def test_midpoint_average(self, rng):
        g = make_grid(rng)
        got = bilinear_many(g, np.array([[2.5, 3.0]]))[0]
        assert np.allclose(got, (g.data[2, 3] + g.data[3, 3]) / 2, atol=1e-15)

    def test_constant_grid(self, rng):
        g = FeatureGrid(np.full((4, 4, 2), 7.25), 0.0, 0.0, 1.0)
        q = rng.uniform(0, 3, size=(50, 2))
        assert np.allclose(bilinear_many(g, q), 7.25, atol=1e-12)

    def test_continuity_across_cell_boundary(self, rng):
        g = make_grid(rng)
        for b in [1.0, 2.0, 3.0]:
            lo, hi = bilinear_many(g, np.array([(b - 1e-10, 1.3), (b + 1e-10, 1.3)]))
            assert np.max(np.abs(lo - hi)) < 1e-9
            lo, hi = bilinear_many(g, np.array([(1.7, b - 1e-10), (1.7, b + 1e-10)]))
            assert np.max(np.abs(lo - hi)) < 1e-9

    def test_zero_padding_far_outside(self, rng):
        g = make_grid(rng, w=4, l=4)
        q = np.array([(-1.5, 2.0), (4.5, 2.0), (2.0, -2.0), (2.0, 5.0), (40.0, 40.0)])
        val, dx, dy = bilinear_grad_many(g, q)
        jac = np.stack([dx, dy], axis=2)
        assert np.array_equal(val, np.zeros((len(q), g.channels)))
        assert np.array_equal(jac, np.zeros((len(q), g.channels, 2)))

    def test_many_equals_pointwise_formula_across_chunks(self, rng):
        # passes whose cells all lie inside the grid, passes that touch its
        # last row or column, and passes that reach far outside it give the
        # zero-padded bilinear formula bit for bit
        g = make_grid(rng, w=9, l=7, c=3)
        inside = rng.uniform(0.0, [7.99, 5.99], size=(QUERY_CHUNK, 2))
        last_row = rng.uniform(0.0, [9.0, 5.99], size=(QUERY_CHUNK, 2))
        last_column = rng.uniform(0.0, [7.99, 7.0], size=(QUERY_CHUNK, 2))
        mixed = rng.uniform(-2.0, [10.0, 8.0], size=(QUERY_CHUNK // 2, 2))
        q = np.vstack([inside, last_row, last_column, mixed, inside[:5]])

        def corner(i, j):
            if 0 <= i < g.data.shape[0] and 0 <= j < g.data.shape[1]:
                return g.data[i, j]
            return np.zeros(g.channels)

        expected = []
        for x, y in q:
            ix, iy = int(np.floor(x)), int(np.floor(y))
            tx, ty = x - ix, y - iy
            v00, v10, v01, v11 = corner(ix, iy), corner(ix + 1, iy), corner(ix, iy + 1), corner(ix + 1, iy + 1)
            expected.append((1 - tx) * ((1 - ty) * v00 + ty * v01) + tx * ((1 - ty) * v10 + ty * v11))
        assert np.array_equal(bilinear_many(g, q), np.array(expected))
        assert bilinear_many(g, np.empty((0, 2))).shape == (0, g.channels)

    def test_partial_contribution_just_outside(self, rng):
        # between -1 and 0 the inside corner still contributes
        g = FeatureGrid(np.ones((4, 4, 1)), 0.0, 0.0, 1.0)
        assert bilinear_many(g, np.array([[-0.25, 1.0]]))[0, 0] == pytest.approx(0.75, abs=1e-15)


class TestBilinearGrad:
    def test_constant_grid_zero_jacobian(self, rng):
        g = FeatureGrid(np.full((5, 5, 3), -2.5), 0.0, 0.0, 1.0)
        q = rng.uniform(0.5, 3.5, size=(30, 2))
        jac = np.stack(bilinear_grad_many(g, q)[1:], axis=2)
        assert np.array_equal(jac, np.zeros_like(jac))

    def test_linear_field(self):
        w, l = 6, 5
        data = np.broadcast_to(np.arange(w, dtype=float)[:, None, None], (w, l, 1)).copy()
        g = FeatureGrid(data, 0.0, 0.0, 1.0)
        jac = np.stack(bilinear_grad_many(g, np.array([[2.3, 1.6]]))[1:], axis=2)
        assert jac[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert jac[0, 0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self, rng):
        g = make_grid(rng, w=8, l=7, c=4, res=1.0, ox=0.0, oy=0.0)
        step = 1e-6
        for _ in range(40):
            q = rng.uniform(0.1, 5.9, size=2)
            # keep at least 1e-3 from integer coordinates
            q = np.where(np.abs(q - np.round(q)) < 1e-3, q + 2e-3, q)
            jac = np.stack(bilinear_grad_many(g, q[None, :])[1:], axis=2)
            # rows q + step * e_x, q + step * e_y, q - step * e_x, q - step * e_y
            shifted = bilinear_many(g, np.vstack([q + step * np.eye(2), q - step * np.eye(2)]))
            for ax in range(2):
                fd = (shifted[ax] - shifted[2 + ax]) / (2 * step)
                denom = np.maximum(np.abs(fd), 1e-9)
                assert np.max(np.abs(jac[0, :, ax] - fd) / denom) < 1e-6

    def test_equals_pointwise_formula(self, rng):
        # a pass inside the grid and a pass reaching outside it give the
        # zero-padded derivative formula
        g = make_grid(rng, w=9, l=7, c=3)
        for q in (rng.uniform(0.0, [7.99, 5.99], size=(200, 2)), rng.uniform(-2.0, [10.0, 8.0], size=(200, 2))):
            def corner(i, j):
                if 0 <= i < g.data.shape[0] and 0 <= j < g.data.shape[1]:
                    return g.data[i, j]
                return np.zeros(g.channels)
            dx, dy = [], []
            for x, y in q:
                ix, iy = int(np.floor(x)), int(np.floor(y))
                tx, ty = x - ix, y - iy
                v00, v10, v01, v11 = corner(ix, iy), corner(ix + 1, iy), corner(ix, iy + 1), corner(ix + 1, iy + 1)
                dx.append((1 - ty) * (v10 - v00) + ty * (v11 - v01))
                dy.append((1 - tx) * (v01 - v00) + tx * (v11 - v10))
            _, got_dx, got_dy = bilinear_grad_many(g, q)
            assert np.array_equal(got_dx, np.array(dx)) and np.array_equal(got_dy, np.array(dy))

    def test_value_bit_identical_to_bilinear(self, rng):
        g = make_grid(rng)
        q = rng.uniform(-1, 6, size=(100, 2))
        val_a = bilinear_many(g, q)
        val_b, _, _ = bilinear_grad_many(g, q)
        assert np.array_equal(val_a, val_b)


def test_invalid_grids_rejected(rng):
    with pytest.raises(ConfigError):
        FeatureGrid(np.zeros((1, 5, 2)), 0, 0, 1.0)
    with pytest.raises(ConfigError):
        FeatureGrid(np.zeros((5, 5, 2)), 0, 0, -1.0)
    bad = np.zeros((5, 5, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ConfigError):
        FeatureGrid(bad, 0, 0, 1.0)
    for origin in ((np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.0)):
        with pytest.raises(ConfigError, match="origin"):
            FeatureGrid(np.zeros((5, 5, 2)), *origin, 1.0)
