import numpy as np
import pytest

import boxebm.refine as refine_mod
from boxebm.energynet import EnergyNetDims, init_params
from boxebm.errors import ConfigError, NumericError
from boxebm.featuregrid import FeatureGrid
from boxebm.geometry import Box3D
from boxebm.pooling import PoolConfig, _sample_points_batch
from boxebm.refine import Detection, RefineConfig, refine_all, refine_one, refine_scenes
from helpers import default_size_setup, small_energy_setup


def zero_net(params):
    p = params.from_vector(np.zeros(params.n_params))
    p.head[2].b[0] = 2.0  # constant energy, zero gradient
    return p


def random_detection(rng, box_arr):
    return Detection(box=Box3D.from_array(box_arr), score=float(rng.uniform(0.05, 0.95)))


def unimodal_landscape():
    """Hand-built energy with a unique peak at y_star.

    Channel c of the grid stores the negative squared distance to the c-th
    pooling sample point of the target box, and the head picks entry
    (sample c, channel c), so the energy peaks exactly when every sample
    point of the query box lands on its target counterpart. Two encoder
    blocks add tent functions peaked at the target cz and h.
    """
    y_star = np.array([0.3, -0.2, 0.6, 1.5, 1.7, 3.8, 0.4])
    res, origin, n = 0.25, -6.0, 48
    cfg = PoolConfig(grid_w=2, grid_l=2)
    pts, _ = _sample_points_batch(y_star[None, [0, 1, 4, 5, 6]], cfg)
    pts = pts[0].transpose(1, 0, 2)  # index (i, j): width cell, then length cell
    targets = np.empty((4, 2))
    for i in range(2):
        for j in range(2):
            targets[j * 2 + i] = pts[i, j]
    xs = origin + res * np.arange(n)
    data = np.empty((n, n, 4))
    for c in range(4):
        d2 = (xs[:, None] - targets[c, 0]) ** 2 + (xs[None, :] - targets[c, 1]) ** 2
        data[:, :, c] = -d2
    grid = FeatureGrid(data, origin, origin, res)

    dims = EnergyNetDims(feat_len=16, enc_dim=2, head_dims=(4, 2))
    params = init_params(0, dims).from_vector(np.zeros(init_params(0, dims).n_params))
    big, bump = 100.0, 10.0
    for enc, target in ((params.enc_cz, y_star[2]), (params.enc_h, y_star[3])):
        enc[0].W[:, 0] = [1.0, -1.0]
        enc[0].b[:] = [-target, target]
        enc[1].W[0, :] = [-1.0, -1.0]  # tent: bump - |delta|
        enc[1].b[0] = bump
    w1 = np.zeros(dims.input_len)
    for k in range(4):
        w1[k * 4 + k] = 1.0
    w1[16] = 1.0  # enc_cz tent
    w1[18] = 1.0  # enc_h tent
    params.head[0].W[0, :] = w1
    params.head[0].b[0] = big
    params.head[1].W[0, 0] = 1.0
    params.head[2].W[0, 0] = 1.0
    params.head[2].b[0] = -(big + 2 * bump)
    return params, grid, y_star, cfg


class TestRefineOne:
    def test_zero_steps_is_noop(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        det = random_detection(rng, box)
        out, trace = refine_one(params, grid, det, cfg, RefineConfig(steps=0))
        assert out is det
        assert trace == []

    def test_constant_network_rejects_everything(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        det = random_detection(rng, box)
        rcfg = RefineConfig(steps=6, step_size=0.1, decay=0.5)
        out, trace = refine_one(zero_net(params), grid, det, cfg, rcfg)
        assert np.array_equal(out.box.as_array(), det.box.as_array())
        assert [row.accepted for row in trace] == [False] * 6
        assert [row.step_size for row in trace] == [0.1 * 0.5**t for t in range(6)]

    def test_unimodal_landscape_moves_toward_peak(self):
        params, grid, y_star, cfg = unimodal_landscape()
        offsets = np.array([0.35, -0.4, 0.25, -0.2, 0.3, -0.35, 0.3])
        det = Detection(box=Box3D.from_array(y_star + offsets), score=0.5)
        rcfg = RefineConfig(steps=80, step_size=0.02, decay=0.5)
        out, trace = refine_one(params, grid, det, cfg, rcfg)
        before = np.abs(offsets)
        after = np.abs(out.box.as_array() - y_star)
        assert np.all(after < before), (before, after)
        accepted = [row.proposal_value for row in trace if row.accepted]
        assert np.all(np.diff(accepted) > 0)

    def test_score_unchanged(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        det = random_detection(rng, box)
        out, _ = refine_one(params, grid, det, cfg, RefineConfig(steps=3))
        assert out.score == det.score

    def test_monotone_trace_random_nets(self, rng):
        for _ in range(50):
            params, grid, box, cfg = small_energy_setup(rng)
            det = random_detection(rng, box)
            out, trace = refine_one(params, grid, det, cfg, RefineConfig(steps=8, step_size=0.05))
            accepted = [row.proposal_value for row in trace if row.accepted]
            assert np.all(np.diff(accepted) > 0)
            final = accepted[-1] if accepted else trace[0].current_value
            assert final >= trace[0].current_value

    def test_evaluation_budget(self, rng, monkeypatch):
        params, grid, box, cfg = small_energy_setup(rng)
        det = random_detection(rng, box)
        counts = {"fwd": 0, "grad": 0}
        real_fwd, real_grad = refine_mod.forward_batch, refine_mod.box_grad_batch

        def fwd(*a, **k):
            counts["fwd"] += 1
            return real_fwd(*a, **k)

        def grad(*a, **k):
            counts["grad"] += 1
            return real_grad(*a, **k)

        monkeypatch.setattr(refine_mod, "forward_batch", fwd)
        monkeypatch.setattr(refine_mod, "box_grad_batch", grad)
        t = 9
        refine_one(params, grid, det, cfg, RefineConfig(steps=t, step_size=0.05))
        assert counts["grad"] <= t
        # each gradient pass runs one forward internally
        assert counts["fwd"] + counts["grad"] <= 2 * t + 1

    def test_determinism(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        det = random_detection(rng, box)
        a, _ = refine_one(params, grid, det, cfg, RefineConfig(steps=7, step_size=0.03))
        b, _ = refine_one(params, grid, det, cfg, RefineConfig(steps=7, step_size=0.03))
        assert np.array_equal(a.box.as_array(), b.box.as_array())


class TestRefineAll:
    def test_empty(self, rng):
        params, grid, _, cfg = small_energy_setup(rng)
        refined, traces = refine_all(params, grid, [], cfg, RefineConfig())
        assert refined == [] and traces == []

    def test_identical_detections_identical_outputs(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        det = random_detection(rng, box)
        refined, _ = refine_all(params, grid, [det, det], cfg, RefineConfig(steps=5, step_size=0.05))
        assert np.array_equal(refined[0].box.as_array(), refined[1].box.as_array())

    def test_permutation_equivariance(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        dets = [random_detection(rng, box + 0.1 * k) for k in range(3)]
        fwd, _ = refine_all(params, grid, dets, cfg, RefineConfig(steps=4, step_size=0.05))
        rev, _ = refine_all(params, grid, dets[::-1], cfg, RefineConfig(steps=4, step_size=0.05))
        for a, b in zip(fwd, rev[::-1]):
            assert np.array_equal(a.box.as_array(), b.box.as_array())


class TestRefineScenes:
    def test_equals_refine_all_per_scene(self):
        from boxebm.synthscene import LazyScenes, SynthConfig

        synth = SynthConfig(grid_w=32, grid_l=32, channels=6, cars_min=1, cars_max=3, margin=1.5, seed=4)
        scenes = LazyScenes(synth, range(6))
        pool = PoolConfig(2, 3)
        params = init_params(7, EnergyNetDims(feat_len=pool.feature_len(6), enc_dim=4, head_dims=(16, 16)))
        rcfg = RefineConfig(steps=6, step_size=0.5)
        initial, refined, traces, gts, seconds = refine_scenes(params, scenes, pool, rcfg)
        ids = [scenes[i].id for i in range(len(scenes))]
        assert list(initial) == list(refined) == list(traces) == list(gts) == ids
        assert seconds > 0
        for i in range(len(scenes)):
            scene = scenes[i]
            one, one_traces = refine_all(params, scene.grid, scene.initial_dets, pool, rcfg)
            assert (np.array([d.box.as_array() for d in refined[scene.id]]).tobytes()
                    == np.array([d.box.as_array() for d in one]).tobytes())
            assert repr(traces[scene.id]) == repr(one_traces)  # repr keeps every bit of a float
            assert initial[scene.id] == scene.initial_dets and gts[scene.id] == scene.gts
        rows = [row for scene_traces in traces.values() for trace in scene_traces for row in trace]
        assert any(row.accepted for row in rows) and not all(row.accepted for row in rows)


class TestBatchedAscent:
    @pytest.mark.parametrize("setup, step_size", [
        (small_energy_setup, 0.05), (small_energy_setup, 0.5), (small_energy_setup, 5.0),
        (default_size_setup, 0.5),
    ])
    def test_equals_one_detection_at_a_time(self, rng, setup, step_size):
        rcfg = RefineConfig(steps=6, step_size=step_size)
        accepted = rejected = 0
        for n in range(1, 9):
            params, grid, box, cfg = setup(rng)
            dets = [random_detection(rng, box + 0.3 * rng.normal(size=7)) for _ in range(n)]
            dets += dets[: n // 3]  # duplicate rows
            singles = [refine_one(params, grid, det, cfg, rcfg) for det in dets]
            for order in (slice(None), slice(None, None, -1)):
                refined, traces = refine_all(params, grid, dets[order], cfg, rcfg)
                for out, trace, (one, one_trace) in zip(refined, traces, singles[order]):
                    assert np.array_equal(out.box.as_array(), one.box.as_array())
                    assert out.score == one.score
                    assert trace == one_trace
            accepted += sum(row.accepted for _, trace in singles for row in trace)
            rejected += sum(not row.accepted for _, trace in singles for row in trace)
        if step_size >= 0.5:  # both branches of the ascent were taken
            assert accepted > 0 and rejected > 0

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_budget_per_call(self, rng, monkeypatch, n):
        params, grid, box, cfg = small_energy_setup(rng)
        dets = [random_detection(rng, box + 0.2 * rng.normal(size=7)) for _ in range(n)]
        counts = {"fwd": 0, "grad": 0}
        real_fwd, real_grad = refine_mod.forward_batch, refine_mod.box_grad_batch

        def fwd(*a, **k):
            counts["fwd"] += 1
            return real_fwd(*a, **k)

        def grad(*a, **k):
            counts["grad"] += 1
            return real_grad(*a, **k)

        monkeypatch.setattr(refine_mod, "forward_batch", fwd)
        monkeypatch.setattr(refine_mod, "box_grad_batch", grad)
        t = 9
        refine_all(params, grid, dets, cfg, RefineConfig(steps=t, step_size=0.5))
        assert counts["grad"] <= t
        assert counts["fwd"] + counts["grad"] <= t + 1

    def test_integer_step_size(self, rng):
        params, grid, box, cfg = small_energy_setup(rng)
        dets = [random_detection(rng, box + 0.3 * rng.normal(size=7)) for _ in range(4)]
        ints, int_traces = refine_all(params, grid, dets, cfg, RefineConfig(steps=6, step_size=1))
        floats, float_traces = refine_all(params, grid, dets, cfg, RefineConfig(steps=6, step_size=1.0))
        assert any(not row.accepted for trace in int_traces for row in trace)
        for a, b in zip(ints, floats):
            assert np.array_equal(a.box.as_array(), b.box.as_array())
        assert int_traces == float_traces

    @staticmethod
    def overflowing_gradient(monkeypatch, overflows):
        """Make box_grad_batch fail as on a non-finite gradient wherever
        `overflows(values)` holds for a row; returns the list of failures."""
        real = refine_mod.box_grad_batch
        failures = []

        def grad(*a, **k):
            values, grads = real(*a, **k)
            if overflows(values).any():
                failures.append(len(values))
                raise NumericError("non-finite activation", where="box gradient")
            return values, grads

        monkeypatch.setattr(refine_mod, "box_grad_batch", grad)
        return failures

    def test_non_finite_gradient_of_rejected_proposal_is_dropped(self, rng, monkeypatch):
        rcfg = RefineConfig(steps=6, step_size=5.0)
        failures = 0
        for _ in range(4):
            params, grid, box, cfg = small_energy_setup(rng)
            dets = [random_detection(rng, box + 0.3 * rng.normal(size=7)) for _ in range(5)]
            expect, expect_traces = refine_all(params, grid, dets, cfg, rcfg)
            # accepted proposals exceed their start value, so only rejected ones fail
            floor = min(trace[0].current_value for trace in expect_traces)
            with monkeypatch.context() as m:
                failed = self.overflowing_gradient(m, lambda v: v < floor)
                refined, traces = refine_all(params, grid, dets, cfg, rcfg)
            failures += len(failed)
            for out, one in zip(refined, expect):
                assert np.array_equal(out.box.as_array(), one.box.as_array())
            assert traces == expect_traces
        assert failures

    def test_non_finite_gradient_of_accepted_proposal_raises(self, rng, monkeypatch):
        params, grid, box, cfg = small_energy_setup(rng)
        dets = [random_detection(rng, box)]
        rcfg = RefineConfig(steps=6, step_size=0.05)
        _, traces = refine_all(params, grid, dets, cfg, rcfg)
        assert traces[0][0].accepted
        start = traces[0][0].current_value
        self.overflowing_gradient(monkeypatch, lambda v: v > start)
        with pytest.raises(NumericError, match="iteration 0"):
            refine_all(params, grid, dets, cfg, rcfg)


def test_config_validation():
    with pytest.raises(ConfigError):
        RefineConfig(steps=-1)
    with pytest.raises(ConfigError):
        RefineConfig(step_size=0.0)
    with pytest.raises(ConfigError):
        RefineConfig(decay=1.0)
    with pytest.raises(ValueError):
        Detection(box=Box3D(0, 0, 0, 1, 1, 1, 0), score=1.0)
