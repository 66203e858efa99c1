import math

import numpy as np
import pytest

from boxebm.config import build_run_config
from boxebm.energynet import (
    EnergyNetDims,
    box_grad_batch,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
    weighted_param_grad,
)
from boxebm.errors import ConfigError, NumericError
from boxebm.featuregrid import FeatureGrid
from boxebm.geometry import Box3D
from boxebm.pooling import PoolConfig
from boxebm.refine import Detection, RefineConfig, refine_all, refine_one
from boxebm.synthscene import SynthConfig
from helpers import default_size_setup, fd_safe_instance, small_energy_setup

SMALL_DIMS = EnergyNetDims(feat_len=12, enc_dim=4, head_dims=(16, 16))


def zeroed(params):
    return params.from_vector(np.zeros(params.n_params))


class TestInit:
    def test_deterministic(self):
        a = init_params(7, SMALL_DIMS)
        b = init_params(7, SMALL_DIMS)
        assert np.array_equal(a.to_vector(), b.to_vector())

    def test_seeds_differ(self):
        a = init_params(7, SMALL_DIMS)
        b = init_params(8, SMALL_DIMS)
        assert not np.array_equal(a.to_vector(), b.to_vector())

    def test_he_variance(self):
        dims = EnergyNetDims(feat_len=100, enc_dim=16, head_dims=(1024, 1024))
        params = init_params(3, dims)
        for layer, fan_in in ((params.head[0], dims.input_len), (params.head[1], 1024)):
            var = float(np.var(layer.W))
            assert abs(var - 2.0 / fan_in) < 0.2 * (2.0 / fan_in)
            assert np.array_equal(layer.b, np.zeros_like(layer.b))


class TestParameterVector:
    def test_layers_are_views_of_the_vector(self):
        params = init_params(0, SMALL_DIMS)
        params.head[2].b[0] = 12.5
        params.enc_h[1].W[0, 1] = -3.0
        offsets = params.param_offsets()
        assert params.vector[offsets["head.2.b"][0]] == 12.5
        assert params.vector[offsets["enc_h.1.W"][0] + 1] == -3.0
        assert params.vector[-1] == 12.5  # head.2.b is the last tensor

    def test_tensor_table_order_and_sizes(self):
        params = init_params(0, SMALL_DIMS)
        e, (h1, h2), n5 = 4, (16, 16), SMALL_DIMS.input_len
        assert [(n, a.shape) for n, a in params.named_tensors()] == [
            ("enc_cz.0.W", (e, 1)), ("enc_cz.0.b", (e,)), ("enc_cz.1.W", (e, e)), ("enc_cz.1.b", (e,)),
            ("enc_h.0.W", (e, 1)), ("enc_h.0.b", (e,)), ("enc_h.1.W", (e, e)), ("enc_h.1.b", (e,)),
            ("head.0.W", (h1, n5)), ("head.0.b", (h1,)), ("head.1.W", (h2, h1)), ("head.1.b", (h2,)),
            ("head.2.W", (1, h2)), ("head.2.b", (1,)),
        ]
        assert params.n_params == sum(a.size for _, a in params.named_tensors())

    def test_from_vector_does_not_alias_its_argument(self):
        params = init_params(0, SMALL_DIMS)
        vec = params.to_vector()
        assert not np.shares_memory(vec, params.vector)
        other = params.from_vector(vec)
        assert not np.shares_memory(other.vector, vec)
        vec[:] = 0.0
        assert np.array_equal(other.vector, params.vector)

    def test_from_vector_rejects_wrong_length(self):
        params = init_params(0, SMALL_DIMS)
        with pytest.raises(ConfigError):
            params.from_vector(np.zeros(params.n_params + 1))


class TestForward:
    def test_zero_params_give_zero(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        values, _ = forward_batch(zeroed(params), grid, box[None, :], cfg)
        assert values[0] == 0.0

    def test_constant_network(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        vec = np.zeros(params.n_params)
        params = params.from_vector(vec)
        params.head[2].b[0] = -3.75
        values, _ = forward_batch(params, grid, box[None, :], cfg)
        assert values[0] == -3.75

    def test_hand_unrolled_small_instance(self):
        # 2x2x1 grid, 1x1 pooling: every number below is reproduced by
        # explicit scalar arithmetic, no library calls.
        a00, a01, a10, a11 = 0.5, -1.0, 2.0, 0.25
        data = np.array([[[a00], [a01]], [[a10], [a11]]])
        grid = FeatureGrid(data, 0.0, 0.0, 1.0)
        cfg = PoolConfig(1, 1)
        dims = EnergyNetDims(feat_len=1, enc_dim=2, head_dims=(2, 2))
        params = init_params(0, dims).from_vector(np.zeros(init_params(0, dims).n_params))
        params.enc_cz[0].W[:] = [[1.0], [-1.0]]
        params.enc_cz[0].b[:] = [0.1, 0.2]
        params.enc_cz[1].W[:] = [[0.5, -0.25], [0.3, 0.7]]
        params.enc_cz[1].b[:] = [0.0, 0.05]
        params.enc_h[0].W[:] = [[2.0], [0.5]]
        params.enc_h[0].b[:] = [-0.4, 0.0]
        params.enc_h[1].W[:] = [[1.0, 1.0], [-1.0, 0.5]]
        params.enc_h[1].b[:] = [0.2, -0.1]
        params.head[0].W[:] = [[1.0, 0.5, -1.0, 0.25, 2.0],
                               [-0.5, 1.5, 0.5, -2.0, 1.0]]
        params.head[0].b[:] = [0.1, -0.2]
        params.head[1].W[:] = [[1.0, -1.0], [0.5, 0.25]]
        params.head[1].b[:] = [0.0, 0.3]
        params.head[2].W[:] = [[2.0, -1.0]]
        params.head[2].b[:] = [0.5]

        cz, h = 0.3, 1.2
        box = np.array([0.4, 0.6, cz, h, 1.0, 1.0, 0.0])  # cx, cy, cz, h, w, l, yaw

        pool = (1 - 0.4) * (1 - 0.6) * a00 + 0.4 * (1 - 0.6) * a10 \
            + (1 - 0.4) * 0.6 * a01 + 0.4 * 0.6 * a11
        # enc_cz: z1 = (cz + 0.1, -cz + 0.2), relu, second layer, relu
        c1a, c1b = max(cz + 0.1, 0.0), max(-cz + 0.2, 0.0)
        c2a = max(0.5 * c1a - 0.25 * c1b + 0.0, 0.0)
        c2b = max(0.3 * c1a + 0.7 * c1b + 0.05, 0.0)
        h1a, h1b = max(2.0 * h - 0.4, 0.0), max(0.5 * h, 0.0)
        h2a = max(1.0 * h1a + 1.0 * h1b + 0.2, 0.0)
        h2b = max(-1.0 * h1a + 0.5 * h1b - 0.1, 0.0)
        z1a = 1.0 * pool + 0.5 * c2a - 1.0 * c2b + 0.25 * h2a + 2.0 * h2b + 0.1
        z1b = -0.5 * pool + 1.5 * c2a + 0.5 * c2b - 2.0 * h2a + 1.0 * h2b - 0.2
        a1a, a1b = max(z1a, 0.0), max(z1b, 0.0)
        a2a = max(1.0 * a1a - 1.0 * a1b, 0.0)
        a2b = max(0.5 * a1a + 0.25 * a1b + 0.3, 0.0)
        expected = 2.0 * a2a - 1.0 * a2b + 0.5

        values, _ = forward_batch(params, grid, box[None, :], cfg)
        assert values[0] == pytest.approx(expected, abs=1e-14)

    def test_periodicity_in_yaw(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        shifted = box.copy()
        shifted[6] += 2 * math.pi
        values, _ = forward_batch(params, grid, np.stack([box, shifted]), cfg)
        assert values[1] == pytest.approx(values[0], abs=1e-9)

    def test_dimension_mismatch_raises(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        with pytest.raises(ConfigError):
            forward_batch(params, grid, box[None, :], PoolConfig(3, 3))

    def test_nonfinite_raises_with_layer(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        params.head[1].W[0, 0] = np.inf
        with pytest.raises(NumericError, match="head.1"):
            forward_batch(params, grid, box[None, :], cfg)


class TestBackwardBox:
    def test_constant_network_zero_grad(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        params = zeroed(params)
        params.head[2].b[0] = 1.0
        _, grads = box_grad_batch(params, grid, box[None, :], cfg)
        assert np.array_equal(grads[0], np.zeros(7))

    def test_matches_finite_differences(self, rng):
        step = 1e-6
        for _ in range(25):
            params, grid, box, cfg = fd_safe_instance(rng)
            grad = box_grad_batch(params, grid, box[None, :], cfg)[1][0]
            # rows box + step * e_d, then box - step * e_d; per-row products
            # give each row its one-box value
            shifts = step * np.eye(7)
            values, _ = forward_batch(params, grid, np.vstack([box + shifts, box - shifts]), cfg,
                                      per_row=True)
            for d in range(7):
                fd = (values[d] - values[7 + d]) / (2 * step)
                diff = abs(grad[d] - fd)
                rel = diff / max(abs(fd), abs(grad[d]), 1e-12)
                assert rel < 1e-5 or diff < 1e-8, f"component {d}: {grad[d]} vs {fd}"

    def test_value_bit_identical_to_forward(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        values, _ = box_grad_batch(params, grid, box[None, :], cfg)
        assert values[0] == forward_batch(params, grid, box[None, :], cfg)[0][0]

    def test_grad_periodicity(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        box[6] = 0.0
        shifted = box.copy()
        shifted[6] = 2 * math.pi  # fl(0 + 2*pi) round-trips exactly through trig args
        _, grads = box_grad_batch(params, grid, np.stack([box, shifted]), cfg)
        assert np.allclose(grads[0], grads[1], atol=1e-9)


class TestBackwardParams:
    def test_last_layer_bias_grad_is_one(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        _, cache = forward_batch(params, grid, box[None, :], cfg)
        grad = weighted_param_grad(params, cache, np.ones(1))
        names = [n for n, _ in params.named_tensors()]
        offsets = np.cumsum([0] + [a.size for _, a in params.named_tensors()])
        idx = names.index("head.2.b")
        assert grad[offsets[idx]] == 1.0

    def test_matches_finite_differences(self, rng):
        step = 1e-6
        for _ in range(4):
            params, grid, box, cfg = fd_safe_instance(rng)
            _, cache = forward_batch(params, grid, box[None, :], cfg)
            grad = weighted_param_grad(params, cache, np.ones(1))
            vec = params.to_vector()
            for idx in rng.choice(vec.size, size=50, replace=False):
                e = np.zeros(vec.size)
                e[idx] = step
                hi, _ = forward_batch(params.from_vector(vec + e), grid, box[None, :], cfg)
                lo, _ = forward_batch(params.from_vector(vec - e), grid, box[None, :], cfg)
                fd = (hi[0] - lo[0]) / (2 * step)
                diff = abs(grad[idx] - fd)
                rel = diff / max(abs(fd), abs(grad[idx]), 1e-12)
                assert rel < 1e-5 or diff < 1e-8

    def test_zero_features_zero_first_layer_weight_grad(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        # zero grid and encoders that ReLU to zero make h5 exactly zero
        grid = FeatureGrid(np.zeros_like(grid.data), grid.origin_x, grid.origin_y, grid.res)
        vec = np.zeros(params.n_params)
        params = params.from_vector(vec)
        params.enc_cz[0].W[:, 0] = -1.0
        params.enc_h[0].W[:, 0] = -1.0
        params.head[0].b[:] = 0.5  # keep the head active
        params.head[1].b[:] = 0.5
        params.head[2].W[:] = 1.0
        _, cache = forward_batch(params, grid, box[None, :], cfg)
        grad = weighted_param_grad(params, cache, np.ones(1))
        sizes = {n: a.size for n, a in params.named_tensors()}
        offsets = {}
        pos = 0
        for n, a in params.named_tensors():
            offsets[n] = pos
            pos += a.size
        w_grad = grad[offsets["head.0.W"]:offsets["head.0.W"] + sizes["head.0.W"]]
        assert np.array_equal(w_grad, np.zeros_like(w_grad))


class TestLinearity:
    def test_output_layer_scaling_exact_for_pow2(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        base_value, base_grad = box_grad_batch(params, grid, box[None, :], cfg)
        params.head[2].W *= 2.0
        params.head[2].b *= 2.0
        scaled_value, scaled_grad = box_grad_batch(params, grid, box[None, :], cfg)
        assert scaled_value[0] == 2.0 * base_value[0]
        assert np.array_equal(scaled_grad, 2.0 * base_grad)


class TestBatchConsistency:
    def test_batch_matches_single(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        boxes = np.stack([box, box + 0.05])
        values, _ = forward_batch(params, grid, boxes, cfg)
        v2, g2 = box_grad_batch(params, grid, boxes, cfg)
        assert np.array_equal(values, v2)
        # identical rows in one batch give identical outputs
        dup, _ = forward_batch(params, grid, np.stack([box, box]), cfg)
        assert dup[0] == dup[1]


    @pytest.mark.parametrize("b", [1, 2, 3, 4, 6, 12])
    def test_per_row_matches_one_row_calls(self, rng, b):
        # off the grid, rows cycle through partly off (x or y shifted past an
        # edge), wholly off (the gather is all zero padding) and inside
        shifts = np.array([(3.5, 0.0), (0.0, -4.0), (25.0, -25.0), (0.0, 0.0)])
        for setup in (small_energy_setup, default_size_setup):
            params, grid, box, cfg = setup(rng)
            for off_grid in (False, True):
                boxes = box + 0.1 * rng.normal(size=(b, 7))
                if off_grid:
                    boxes[:, :2] += shifts[np.arange(b) % len(shifts)]
                values, _ = forward_batch(params, grid, boxes, cfg, per_row=True)
                gvalues, grads = box_grad_batch(params, grid, boxes, cfg, per_row=True)
                for k in range(b):
                    one, _ = forward_batch(params, grid, boxes[k:k + 1], cfg)
                    one_g, one_grad = box_grad_batch(params, grid, boxes[k:k + 1], cfg)
                    assert values[k] == one[0] == gvalues[k] == one_g[0]
                    assert np.array_equal(grads[k], one_grad[0])
                # the batched ascent equals one detection at a time
                dets = [Detection(Box3D.from_array(row), 0.5) for row in boxes]
                rcfg = RefineConfig(steps=3, step_size=0.5)
                refined, traces = refine_all(params, grid, dets, cfg, rcfg)
                for det, out, trace in zip(dets, refined, traces):
                    one, one_trace = refine_one(params, grid, det, cfg, rcfg)
                    assert np.array_equal(out.box.as_array(), one.box.as_array())
                    assert trace == one_trace


class TestCheckpoint:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        params, _, _, _ = small_energy_setup(rng)
        path = tmp_path / "net.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.to_vector(), params.to_vector())
        assert loaded.dims == params.dims
        save_checkpoint(loaded, tmp_path / "net2.ckpt")
        assert (tmp_path / "net.ckpt").read_bytes() == (tmp_path / "net2.ckpt").read_bytes()

    @pytest.mark.parametrize("dims", [
        None,  # the default network
        EnergyNetDims(feat_len=1, enc_dim=1, head_dims=(1, 1)),
    ])
    def test_save_load_save_same_bytes(self, tmp_path, dims):
        dims = dims or build_run_config().net_dims(SynthConfig().channels)
        save_checkpoint(init_params(3, dims), tmp_path / "a.ckpt")
        loaded = load_checkpoint(tmp_path / "a.ckpt")
        assert loaded.dims == dims
        save_checkpoint(loaded, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(init_params(0, SMALL_DIMS), path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ConfigError, match="parameter vector has shape"):
            load_checkpoint(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ConfigError):
            load_checkpoint(path)
