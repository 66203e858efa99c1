import math
from types import SimpleNamespace

import numpy as np
import pytest

from boxebm.config import NoiseConfig
from boxebm.energynet import EnergyNetDims, init_params
from boxebm.errors import ConfigError
from boxebm.featuregrid import FeatureGrid
from boxebm.geometry import Box3D
from boxebm.nce import (
    LossRecord,
    NoiseModel,
    TrainConfig,
    logit_loss,
    nce_loss,
    noise_log_density_rows,
    sample_noise_rows,
    train,
)
from boxebm.pooling import PoolConfig
from helpers import small_energy_setup

CAR = Box3D(0.0, 0.0, 0.5, h=1.5, w=1.6, l=3.9, yaw=0.3)
SIGMA3 = np.array(NoiseConfig().sigma3)


def tiny_scene(grid, boxes, scene_id=0):
    return SimpleNamespace(id=scene_id, grid=grid, gts=[SimpleNamespace(box=b) for b in boxes])


def bump_grid(center=(0.0, 0.0), size=(14, 14), res=0.5, origin=-3.5):
    xs = origin + res * np.arange(size[0])
    ys = origin + res * np.arange(size[1])
    d2 = (xs[:, None] - center[0]) ** 2 + (ys[None, :] - center[1]) ** 2
    data = np.stack([np.exp(-d2), 0.5 * np.ones_like(d2)], axis=2)
    return FeatureGrid(data, origin, origin, res)


class TestNoiseModel:
    def test_paper_default_scales(self):
        nm = NoiseConfig().build()
        s3 = SIGMA3
        assert nm.n_components == 3
        assert np.array_equal(nm.sigma[2], s3)
        assert np.array_equal(nm.sigma[0], s3 / 4)
        assert np.array_equal(nm.sigma[1], s3 / 2)
        assert np.array_equal(s3, [0.25, 0.25, 0.125, 0.125, 0.125, 0.125, 0.0625])

    def test_validation(self):
        with pytest.raises(ConfigError):
            NoiseModel(sigma=np.zeros((2, 7)))
        with pytest.raises(ConfigError):
            NoiseModel(sigma=np.ones((2, 3)))
        with pytest.raises(ConfigError):
            NoiseModel(sigma=np.ones((2, 7)), beta=-1.0)


class TestSampleNoise:
    def test_degenerate_scales_return_center(self):
        nm = NoiseModel(sigma=np.full((2, 7), 1e-12))
        out = sample_noise_rows(nm, CAR.as_array(), np.random.default_rng(0), 1)[0]
        assert np.allclose(out, CAR.as_array(), atol=1e-9)

    def test_deterministic(self):
        nm = NoiseConfig().build()
        a = sample_noise_rows(nm, CAR.as_array(), np.random.default_rng(5), 1)
        b = sample_noise_rows(nm, CAR.as_array(), np.random.default_rng(5), 1)
        assert np.array_equal(a, b)

    def test_mixture_variance_identity(self):
        nm = NoiseConfig().build()
        n = 100_000
        rows = sample_noise_rows(nm, CAR.as_array(), np.random.default_rng(77), n)
        d = rows - CAR.as_array()
        target_var = np.mean(nm.sigma**2, axis=0)
        mu4 = np.mean(3.0 * nm.sigma**4, axis=0)
        se = np.sqrt((mu4 - target_var**2) / n)
        assert np.all(np.abs(d.var(axis=0) - target_var) < 3 * se)

    def test_dimensions_stay_positive(self):
        # scales comparable to the box size force the rejection path
        nm = NoiseModel(sigma=np.full((1, 7), 0.8))
        small = Box3D(0, 0, 0, h=0.3, w=0.3, l=0.3, yaw=0.0)
        rows = sample_noise_rows(nm, small.as_array(), np.random.default_rng(3), 2000)
        assert np.all(rows[:, 3:6] > 0)


class TestLogQ:
    def test_single_component_mode_value(self):
        s = 0.2
        nm = NoiseModel(sigma=np.full((1, 7), s))
        center = CAR.as_array()
        log_q = noise_log_density_rows(nm, center[None, :], center)[0]
        assert log_q == pytest.approx(-7 * math.log(s * math.sqrt(2 * math.pi)), abs=1e-12)

    def test_duplicate_components_collapse(self):
        one = NoiseModel(sigma=SIGMA3[None, :])
        two = NoiseModel(sigma=np.stack([SIGMA3, SIGMA3]))
        y = np.array([[0.1, -0.2, 0.55, 1.45, 1.7, 3.8, 0.35]])
        assert noise_log_density_rows(two, y, CAR.as_array())[0] == pytest.approx(
            noise_log_density_rows(one, y, CAR.as_array())[0], abs=1e-12)

    def test_matches_naive_summation(self, rng):
        nm = NoiseConfig().build()
        center = CAR.as_array()
        for _ in range(20):
            y = center + rng.normal(scale=0.1, size=7)
            dens = 0.0
            for k in range(nm.n_components):
                comp = np.prod(
                    np.exp(-0.5 * ((y - center) / nm.sigma[k]) ** 2)
                    / (nm.sigma[k] * math.sqrt(2 * math.pi))
                )
                dens += comp / nm.n_components
            got = noise_log_density_rows(nm, y[None, :], center)[0]
            assert got == pytest.approx(math.log(dens), abs=1e-12)


class TestNceLoss:
    def test_uniform_logits_give_log_m_plus_one(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        params = params.from_vector(np.zeros(params.n_params))  # f == 0
        # degenerate noise: offsets underflow against the box coordinates, so
        # every candidate equals the target bit-for-bit and all logits agree
        nm = NoiseModel(sigma=np.full((1, 7), 1e-150))
        scene = tiny_scene(grid, [Box3D.from_array(box)])
        m = 16
        loss, _ = nce_loss(params, [scene], nm, m, np.random.default_rng(0), cfg)
        assert loss == pytest.approx(math.log(m + 1), abs=1e-12)

    def test_uniform_logit_identity(self):
        for m in (1, 4, 100):
            loss, soft = logit_loss(np.full(m + 1, -3.7))
            assert loss == pytest.approx(math.log(m + 1), abs=1e-12)
            assert np.allclose(soft, 1.0 / (m + 1), atol=1e-15)

    def test_saturated_classifier(self):
        loss, _ = logit_loss(np.array([200.0, 0.0]))
        assert 0.0 <= loss < 1e-12

    def test_loss_nonnegative(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        scene = tiny_scene(grid, [Box3D.from_array(box)])
        loss, _ = nce_loss(params, [scene], NoiseConfig().build(), 8, np.random.default_rng(1), cfg)
        assert loss >= 0.0

    def test_gradient_matches_finite_differences(self, rng):
        params, grid, _, cfg = small_energy_setup(rng)
        scenes = [
            tiny_scene(grid, [CAR, Box3D(-1.0, 0.5, 0.6, 1.4, 1.5, 3.5, -0.8)], 0),
            tiny_scene(grid, [Box3D(0.8, -0.9, 0.4, 1.6, 1.7, 4.0, 1.2)], 1),
        ]
        nm = NoiseConfig().build()
        m = 4

        def loss_at(p):
            return nce_loss(p, scenes, nm, m, np.random.default_rng(99), cfg)

        base_loss, grad = loss_at(params)
        vec = params.to_vector()
        step = 1e-6
        for idx in rng.choice(vec.size, size=50, replace=False):
            e = np.zeros(vec.size)
            e[idx] = step
            hi, _ = loss_at(params.from_vector(vec + e))
            lo, _ = loss_at(params.from_vector(vec - e))
            fd = (hi - lo) / (2 * step)
            diff = abs(grad[idx] - fd)
            rel = diff / max(abs(fd), abs(grad[idx]), 1e-12)
            assert rel < 1e-5 or diff < 1e-8

    def test_beta_zero_bit_identical_to_plain(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        scene = tiny_scene(grid, [Box3D.from_array(box)])
        plain = nce_loss(params, [scene], NoiseConfig(beta=0.0).build(), 8,
                         np.random.default_rng(7), cfg)
        also_plain = nce_loss(params, [scene], NoiseConfig().build(), 8,
                              np.random.default_rng(7), cfg)
        assert plain[0] == also_plain[0]
        assert np.array_equal(plain[1], also_plain[1])

    def test_beta_positive_perturbs_positive(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        scene = tiny_scene(grid, [Box3D.from_array(box)])
        a = nce_loss(params, [scene], NoiseConfig(beta=0.0).build(), 8, np.random.default_rng(7), cfg)
        b = nce_loss(params, [scene], NoiseConfig(beta=1.0).build(), 8, np.random.default_rng(7), cfg)
        assert a[0] != b[0]

    def test_shift_invariance_in_output_bias(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        scene = tiny_scene(grid, [CAR, Box3D.from_array(box)])
        nm = NoiseConfig().build()
        base, _ = nce_loss(params, [scene], nm, 16, np.random.default_rng(3), cfg)
        params.head[2].b[0] += 12.5
        shifted, _ = nce_loss(params, [scene], nm, 16, np.random.default_rng(3), cfg)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_output_bias_gradient_is_zero(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        scene = tiny_scene(grid, [CAR, Box3D.from_array(box)])
        _, grad = nce_loss(params, [scene], NoiseConfig().build(), 16, np.random.default_rng(3), cfg)
        start, _ = params.param_offsets()["head.2.b"]
        assert abs(grad[start]) < 1e-12


class TestTrain:
    def make_setup(self):
        grid = bump_grid()
        dims = EnergyNetDims(feat_len=PoolConfig(2, 3).feature_len(2), enc_dim=4, head_dims=(16, 16))
        params = init_params(11, dims)
        dataset = [tiny_scene(grid, [CAR])]
        return params, dataset

    def test_toy_training_reduces_loss(self):
        params, dataset = self.make_setup()
        m = 8
        # single wide noise component keeps the contrast easily separable
        nm = NoiseModel(sigma=np.full((1, 7), 0.5))
        cfg = TrainConfig(noise_samples=m, learning_rate=2e-2, lr_schedule="constant",
                          batch_size=1, epochs=200, seed=0)
        trained, records = train(params, dataset, cfg, nm, PoolConfig(2, 3))
        assert len(records) == 200
        tail = np.mean([r.loss for r in records[-10:]])
        assert tail < math.log(m + 1) / 2

    def test_zero_learning_rate_is_noop(self):
        params, dataset = self.make_setup()
        cfg = TrainConfig(noise_samples=4, learning_rate=0.0, batch_size=1, epochs=2, seed=0)
        trained, _ = train(params, dataset, cfg, NoiseConfig().build(), PoolConfig(2, 3))
        assert np.array_equal(trained.to_vector(), params.to_vector())

    def test_seeded_reproducibility(self):
        params, dataset = self.make_setup()
        cfg = TrainConfig(noise_samples=4, learning_rate=1e-3, batch_size=1, epochs=5, seed=9)
        _, rec_a = train(params, dataset, cfg, NoiseConfig().build(), PoolConfig(2, 3))
        _, rec_b = train(params, dataset, cfg, NoiseConfig().build(), PoolConfig(2, 3))
        assert [r.loss for r in rec_a] == [r.loss for r in rec_b]

    def test_empty_dataset_rejected(self):
        params, _ = self.make_setup()
        with pytest.raises(ConfigError):
            train(params, [], TrainConfig(), NoiseConfig().build(), PoolConfig(2, 3))
