"""Acceptance suite: one test per criterion, at the stated tolerances.

The end-to-end benchmark (criterion 6) trains the default desk-scale
configuration on 2,000 synthetic scenes and refines the 400 validation
scenes with the published refinement settings (T=10, step 2e-4, decay
0.5); criteria 7 and 8 reuse or retrain models accordingly. A PASS/FAIL
line per criterion is echoed by the conftest hook.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from boxebm.cli import main as cli_main
from boxebm.config import NoiseConfig, build_run_config
from boxebm.energynet import (
    box_grad_batch,
    forward_batch,
    heading_scan,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from boxebm.evalkit import average_precision, evaluate
from boxebm.geometry import Box3D, box_rows, pair_iou
from boxebm.kittiio import parse_label_file, write_result_file
from boxebm.nce import NoiseModel, nce_loss, train
from boxebm.refine import Detection, RefineConfig, refine_one, refine_scenes, sweep_t
from boxebm.synthscene import LazyScenes, gen_scene_by_index, load_scene, save_scene

from helpers import aligned_bev_iou, fd_safe_instance, mc_bev_iou, random_bev_box, small_energy_setup
from test_kittiio import random_label

BENCH_TRAIN, BENCH_VAL = 2000, 400
SWEEP_SCENES = 150
PAPER_REFINE = RefineConfig(steps=10, step_size=2e-4, decay=0.5)
THRESHOLDS = (0.7, 0.75, 0.8, 0.85, 0.9)


# ---------------------------------------------------------------- benchmark
@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """Train on the default synthetic world with paper noise settings and
    refine the validation split; shared by criteria 6 and 7."""
    cfg = build_run_config()
    assert cfg.train.noise_samples == 256
    nm = cfg.noise.build()  # K=3, sigma1 = sigma3/4, sigma2 = sigma3/2, paper sigma3
    t0 = time.perf_counter()
    tc = replace(cfg.train, epochs=6)
    trained, records = train(init_params(cfg.seed, cfg.net_dims(cfg.synth.channels)),
                             LazyScenes(cfg.synth, range(BENCH_TRAIN)), tc, nm, cfg.pool)
    val = LazyScenes(cfg.synth, range(BENCH_TRAIN, BENCH_TRAIN + BENCH_VAL))
    dets_initial, dets_refined, _, gts, _ = refine_scenes(trained, val, cfg.pool, PAPER_REFINE)
    triples = [(d.box, r.box, g.box) for sid in gts
               for d, r, g in zip(dets_initial[sid], dets_refined[sid], gts[sid])]
    initial, refined, truth = (box_rows(boxes) for boxes in zip(*triples))
    iou_pairs = np.stack([pair_iou(initial, truth, "3d"), pair_iou(refined, truth, "3d")], axis=1)
    elapsed = time.perf_counter() - t0
    return dict(cfg=cfg, params=trained, records=records, dets_initial=dets_initial,
                dets_refined=dets_refined, gts=gts, iou_pairs=iou_pairs,
                sweep_scenes=[val[i] for i in range(SWEEP_SCENES)], elapsed=elapsed)


def test_criterion_1_gradient_correctness(rng):
    """Analytic box and parameter gradients match central finite differences."""
    t0 = time.perf_counter()
    step = 1e-6
    for _ in range(100):
        params, grid, box, cfg = fd_safe_instance(rng)
        grad_box = box_grad_batch(params, grid, box[None, :], cfg)[1][0]
        for d in range(7):
            e = np.zeros(7)
            e[d] = step
            hi = forward_batch(params, grid, (box + e)[None, :], cfg)[0][0]
            lo = forward_batch(params, grid, (box - e)[None, :], cfg)[0][0]
            fd = (hi - lo) / (2 * step)
            diff = abs(grad_box[d] - fd)
            assert diff / max(abs(fd), abs(grad_box[d]), 1e-12) < 1e-5 or diff < 1e-8

    # parameter gradient of the contrastive loss, 50 sampled parameters
    from types import SimpleNamespace
    params, grid, _, cfg = fd_safe_instance(rng)
    scenes = [SimpleNamespace(id=0, grid=grid, gts=[
        SimpleNamespace(box=Box3D(0.4, -0.3, 0.6, 1.5, 1.6, 3.8, 0.5)),
        SimpleNamespace(box=Box3D(-0.8, 0.7, 0.5, 1.4, 1.7, 4.0, -1.0)),
    ])]
    nm = NoiseConfig().build()

    def loss_at(p):
        return nce_loss(p, scenes, nm, 8, np.random.default_rng(1234), cfg)

    _, grad = loss_at(params)
    vec = params.to_vector()
    for idx in rng.choice(vec.size, size=50, replace=False):
        e = np.zeros(vec.size)
        e[idx] = step
        hi, _ = loss_at(params.from_vector(vec + e))
        lo, _ = loss_at(params.from_vector(vec - e))
        fd = (hi - lo) / (2 * step)
        diff = abs(grad[idx] - fd)
        assert diff / max(abs(fd), abs(grad[idx]), 1e-12) < 1e-5 or diff < 1e-8
    assert time.perf_counter() - t0 < 60.0


def test_criterion_2_refinement_monotonicity(rng):
    """Accepted steps strictly increase f; the final value never falls below
    the initial one; T=0 is a bit-exact no-op."""
    for k in range(1000):
        params, grid, box, cfg = small_energy_setup(rng)
        det = Detection(box=Box3D.from_array(box), score=0.5)
        rcfg = RefineConfig(steps=int(rng.integers(1, 9)), step_size=float(rng.uniform(0.005, 0.1)))
        out, trace = refine_one(params, grid, det, cfg, rcfg)
        accepted = [row.proposal_value for row in trace if row.accepted]
        assert all(b > a for a, b in zip(accepted, accepted[1:]))
        final = accepted[-1] if accepted else trace[0].current_value
        assert final >= trace[0].current_value
        if k % 100 == 0:
            noop, tr = refine_one(params, grid, det, cfg, RefineConfig(steps=0))
            assert noop is det and tr == []


def test_criterion_3_nce_identities(rng):
    params, grid, box, cfg = small_energy_setup(rng)
    from types import SimpleNamespace
    scene = SimpleNamespace(id=0, grid=grid, gts=[SimpleNamespace(box=Box3D.from_array(box))])

    # uniform logits: degenerate noise underflows against the box coordinates,
    # making every candidate (and its density) identical
    zero_params = params.from_vector(np.zeros(params.n_params))
    nm_tiny = NoiseModel(sigma=np.full((1, 7), 1e-150))
    m = 32
    loss, _ = nce_loss(zero_params, [scene], nm_tiny, m, np.random.default_rng(0), cfg)
    assert abs(loss - math.log(m + 1)) < 1e-12

    # beta = 0 variant is bit-identical to the plain loss under a shared stream
    a = nce_loss(params, [scene], NoiseConfig(beta=0.0).build(), 16, np.random.default_rng(3), cfg)
    b = nce_loss(params, [scene], NoiseConfig().build(), 16, np.random.default_rng(3), cfg)
    assert a[0] == b[0] and np.array_equal(a[1], b[1])

    # softmax probabilities sum to one: zero gradient for the output bias
    _, grad = nce_loss(params, [scene], NoiseConfig().build(), 64, np.random.default_rng(5), cfg)
    start, _ = params.param_offsets()["head.2.b"]
    assert abs(grad[start]) < 1e-12


def test_criterion_4_geometry_oracle(rng):
    # BEV boxes carry the placeholder cz = 0, h = 1; one kernel call per half
    pairs = []
    for _ in range(200):
        a = random_bev_box(rng)
        b = Box3D(a.cx + float(rng.uniform(-1.5, 1.5)), a.cy + float(rng.uniform(-1.5, 1.5)), 0.0, 1.0,
                  float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 5.0)),
                  float(rng.uniform(-math.pi, math.pi)))
        pairs.append((a, b))
    got = pair_iou(*(box_rows(boxes) for boxes in zip(*pairs)), "bev")
    for k, (a, b) in enumerate(pairs):
        assert abs(got[k] - mc_bev_iou(a, b, 20, seed=k)) < 2e-3
    pairs = []
    for _ in range(200):
        a = random_bev_box(rng)
        b = random_bev_box(rng)
        pairs.append((replace(a, yaw=0.0), Box3D(b.cx / 3, b.cy / 3, 0.0, 1.0, b.w, b.l, 0.0)))
    got = pair_iou(*(box_rows(boxes) for boxes in zip(*pairs)), "bev")
    for k, (a, b) in enumerate(pairs):
        assert abs(got[k] - aligned_bev_iou(a, b)) <= 1e-12


def test_criterion_5_ap_protocol(rng):
    res = average_precision([True, False, True], [0.9, 0.8, 0.7], num_gt=2)
    assert res.ap == 5 / 6
    for _ in range(200):
        n = int(rng.integers(1, 40))
        flags = rng.random(n) < 0.6
        scores = rng.uniform(0.01, 0.99, size=n)
        num_gt = int(flags.sum() + rng.integers(0, 6)) or 1
        base = average_precision(flags, scores, num_gt).ap
        a, b = float(rng.uniform(0.5, 3.0)), float(rng.uniform(-1, 1))
        assert average_precision(flags, a * scores + b, num_gt).ap == base


def test_criterion_6_end_to_end_benchmark(bench):
    """Refinement beats the initial detections, per threshold, with the
    relative gain growing toward tighter thresholds."""
    initial_iou = bench["iou_pairs"][:, 0]
    refined_iou = bench["iou_pairs"][:, 1]
    assert refined_iou.mean() > initial_iou.mean()  # (a)

    res_i = evaluate(bench["dets_initial"], bench["gts"], modes=("3d",), thresholds=THRESHOLDS)
    res_r = evaluate(bench["dets_refined"], bench["gts"], modes=("3d",), thresholds=THRESHOLDS)
    gains = {}
    for thr in THRESHOLDS:
        ap_i = res_i[("3d", thr, "all")].ap
        ap_r = res_r[("3d", thr, "all")].ap
        assert ap_r > ap_i, f"3D AP at {thr} did not improve: {ap_i} -> {ap_r}"  # (b)
        gains[thr] = (ap_r - ap_i) / ap_i if ap_i > 0 else float("inf")
    assert gains[0.9] > gains[0.7]  # (c)

    # training reached the informative regime: below the uniform-logit level
    m = 256
    tail = np.mean([r.loss for r in bench["records"][-20:]])
    assert tail < math.log(m + 1)
    assert bench["elapsed"] < 30 * 60.0


def test_criterion_7_iteration_sweep(bench):
    """Fig. 5 analog at its 0.7 threshold: plateau after a few iterations,
    strictly decreasing throughput."""
    rows = sweep_t(bench["params"], bench["sweep_scenes"], bench["cfg"].pool, PAPER_REFINE,
                   (0, 1, 2, 4, 8, 10, 16, 32, 64), thresholds=(0.7,))
    aps = {t: ap for t, ap, _ in rows}
    rates = [rate for _, _, rate in rows]
    assert abs(aps[4] - aps[10]) <= 0.005, aps
    assert abs(aps[64] - aps[10]) <= 0.005, aps
    assert aps[10] > aps[0]  # refinement is doing real work at this threshold
    assert all(a > b for a, b in zip(rates, rates[1:])), rates


def test_criterion_8_heading_multimodality():
    """Symmetric rendering induces exactly two dominant heading modes."""
    overrides = {"synth.symmetric_rendering": "true"}
    cfg = build_run_config({}, overrides)
    trained, _ = train(init_params(cfg.seed, cfg.net_dims(cfg.synth.channels)),
                       LazyScenes(cfg.synth, range(600)), cfg.train, cfg.noise.build(), cfg.pool)
    val = LazyScenes(cfg.synth, range(600, 605))

    def circ_dist(a, b):
        return abs(math.remainder(a - b, 2 * math.pi))

    for i in range(3):
        scene = val[i]
        deltas, values = heading_scan(trained, scene.grid, scene.initial_dets[0].box.as_array(),
                                      cfg.pool, 101)
        v = values[:-1]  # drop duplicated 2*pi endpoint; wraparound maxima
        n = len(v)
        maxima = [k for k in range(n) if v[k] > v[(k - 1) % n] and v[k] > v[(k + 1) % n]]
        assert len(maxima) >= 2
        top2 = sorted(maxima, key=lambda k: -v[k])[:2]
        locs = sorted(deltas[k] for k in top2)
        matched = (circ_dist(locs[0], 0.0) <= 0.3 and circ_dist(locs[1], math.pi) <= 0.3) or \
                  (circ_dist(locs[1], 0.0) <= 0.3 and circ_dist(locs[0], math.pi) <= 0.3)
        assert matched, f"dominant maxima at {locs}, expected within 0.3 of 0 and pi"


TINY_CLI = [
    "--set", "synth.grid_w=32", "--set", "synth.grid_l=32", "--set", "synth.channels=6",
    "--set", "synth.cars_min=1", "--set", "synth.cars_max=2", "--set", "synth.margin=1.5",
    "--set", "net.head1=24", "--set", "net.head2=24", "--set", "net.enc_dim=4",
    "--set", "train.noise_samples=8", "--set", "train.epochs=1", "--set", "train.batch_size=2",
    "--set", "n_scenes=5", "--set", "sweep.t_values=0,2",
    "--set", "eval.thresholds=0.5,0.7", "--set", "angle_points=11",
]

# (output file, columns to ignore): the two documented wall-clock fields
TIMING_COLUMNS = {"loss.csv": [3], "sweep_t.csv": [2]}


def _masked(path: Path) -> bytes:
    ignore = TIMING_COLUMNS.get(path.name)
    if ignore is None:
        return path.read_bytes()
    out = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            out.append(line)
            continue
        cells = line.split(",")
        for col in ignore:
            if col < len(cells) and not cells[col].startswith(("epoch", "scenes")):
                cells[col] = "<t>"
        out.append(",".join(cells))
    return "\n".join(out).encode()


def test_criterion_9_io_contracts(rng, tmp_path):
    # KITTI round trips on a generated corpus
    for _ in range(100):
        labels = [random_label(rng) for _ in range(int(rng.integers(0, 6)))]
        assert parse_label_file(write_result_file(labels)) == labels

    # scene files: 100 small scenes, value identity and byte identity
    from boxebm.synthscene import SynthConfig
    small = SynthConfig(grid_w=16, grid_l=16, channels=4, cars_min=0, cars_max=2,
                        margin=1.0, seed=9)
    for i in range(100):
        scene = gen_scene_by_index(small, i)
        p = tmp_path / "scene.bin"
        save_scene(scene, p)
        back = load_scene(p)
        assert np.array_equal(back.grid.data, scene.grid.data)
        assert len(back.gts) == len(scene.gts) and len(back.initial_dets) == len(scene.initial_dets)
        for a, b in zip(back.gts, scene.gts):
            assert np.array_equal(a.box.as_array(), b.box.as_array())
        for a, b in zip(back.initial_dets, scene.initial_dets):
            assert np.array_equal(a.box.as_array(), b.box.as_array()) and a.score == b.score
        save_scene(back, tmp_path / "scene2.bin")
        assert p.read_bytes() == (tmp_path / "scene2.bin").read_bytes()

    # checkpoints reload bit-exactly
    params, _, _, _ = small_energy_setup(rng)
    save_checkpoint(params, tmp_path / "net.ckpt")
    assert np.array_equal(load_checkpoint(tmp_path / "net.ckpt").to_vector(), params.to_vector())

    # every CLI command is byte-identical across fixed-seed runs, apart from
    # the two documented wall-clock fields
    def run_all(root: Path):
        data = root / "data"
        out = root / "run"
        assert cli_main(["synth-gen", *TINY_CLI, "--out", str(data)]) == 0
        assert cli_main(["train", *TINY_CLI, "--dataset", str(data), "--out", str(out)]) == 0
        ckpt = out / "checkpoint.ckpt"
        assert cli_main(["refine", *TINY_CLI, "--dataset", str(data), "--checkpoint", str(ckpt),
                         "--out", str(out), "--traces"]) == 0
        assert cli_main(["eval", *TINY_CLI, "--dataset", str(data), "--dets", str(out),
                         "--out", str(out)]) == 0
        assert cli_main(["sweep-T", *TINY_CLI, "--dataset", str(data), "--checkpoint", str(ckpt),
                         "--out", str(out)]) == 0
        assert cli_main(["angle-scan", *TINY_CLI, "--dataset", str(data), "--checkpoint", str(ckpt),
                         "--scene-id", "4", "--det-index", "0", "--out", str(out)]) == 0
        return root

    a = run_all(tmp_path / "a")
    b = run_all(tmp_path / "b")
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert _masked(a / rel) == _masked(b / rel), f"output differs: {rel}"
