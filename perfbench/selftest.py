#!/usr/bin/env python3
"""Self-test of the benchmark's output checks, at tiny sizes.

    python3 perfbench/selftest.py

Each check is run on real program output, where it must pass, and then on
the same output with one planted error, where it must fail:

- eval_kitti: an AP in ap.csv off by 1e-6;
- refine: a refined box with lower energy than its initial box (and a
  trace whose step length does not halve on a rejection, and a refinement
  whose box gradient has its sign flipped, so it never moves);
- train: the analytic gradient with its sign flipped (and a non-finite loss).

Exits non-zero if any check misses its planted error or rejects good output.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import io
import shutil
import sys
from dataclasses import replace

import numpy as np

from common import SRC, WORK

sys.path.insert(0, str(SRC))

from boxebm import cli, config, energynet, synthscene  # noqa: E402

import checks  # noqa: E402
import wl_eval_kitti  # noqa: E402
import wl_refine  # noqa: E402
import wl_train  # noqa: E402

TINY = {
    "seed": "3", "synth.grid_w": "32", "synth.grid_l": "32", "synth.channels": "4",
    "synth.cars_min": "1", "synth.cars_max": "1", "net.enc_dim": "4", "net.head1": "8",
    "net.head2": "8", "train.noise_samples": "8", "refine.steps": "4",
}


class Report:
    def __init__(self):
        self.bad = 0

    def expect(self, what: str, failures: list, should_fail: bool):
        ok = bool(failures) == should_fail
        self.bad += not ok
        detail = failures[0] if failures else "no failure"
        print(f"{'ok ' if ok else 'BAD'} {what}: {detail}")


def selftest_eval(rep: Report, work):
    rng = np.random.default_rng(5)
    scenes = [wl_eval_kitti.gen_scene(rng) for _ in range(2)]
    wl_eval_kitti.assign_scores(scenes, rng)
    wl_eval_kitti.write_dir(scenes, rng, work)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(wl_eval_kitti.argv(work))
    if code != 0:
        rep.expect("eval: boxebm eval ran", [f"exit code {code}"], False)
        return
    ap_text = (work / "eval" / "ap.csv").read_text()
    pr_text = (work / "eval" / "pr.csv").read_text()
    expected = wl_eval_kitti.expected_tables(scenes)
    rep.expect("eval: tables match exact arithmetic", checks.eval_tables(ap_text, pr_text, expected), False)
    lines = ap_text.splitlines()
    cells = lines[2].split(",")
    cells[4] = repr(float(cells[4]) + 1e-6)
    planted = "\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n"
    rep.expect("eval: AP off by 1e-6", checks.eval_tables(planted, pr_text, expected), True)


def selftest_refine(rep: Report, cfg):
    scene = synthscene.gen_scene_by_index(cfg.synth, 0)
    params = energynet.init_params(cfg.seed, wl_train.net_dims(cfg, cfg.synth.channels))
    refined, traces = wl_refine.refine.refine_all(params, scene.grid, scene.initial_dets, cfg.pool, cfg.refine)
    rc = cfg.refine
    f0 = [wl_refine.energy(params, scene.grid, cfg, d.box) for d in scene.initial_dets]
    f1 = [wl_refine.energy(params, scene.grid, cfg, d.box) for d in refined]
    rep.expect("refine: energies do not fall", checks.refine_energies(f0, f1), False)
    rep.expect("refine: boxes move uphill", checks.refine_progress(f0, f1), False)
    rep.expect("refine: traces follow the ascent rule",
               checks.refine_traces(traces, rc.steps, rc.step_size, rc.decay), False)

    # planted: step downhill from the initial box
    det = scene.initial_dets[0]
    _, grad = energynet.box_grad_batch(params, scene.grid, det.box.as_array()[None, :], cfg.pool)
    lower = det.box.as_array() - 0.05 * grad[0] / np.linalg.norm(grad[0])
    planted = [type(det.box).from_array(lower)] + [d.box for d in refined[1:]]
    f1_planted = [wl_refine.energy(params, scene.grid, cfg, b) for b in planted]
    rep.expect("refine: refined box with lower energy", checks.refine_energies(f0, f1_planted), True)

    # planted: a rejected proposal that keeps its step length
    rows = [replace(r, accepted=False, proposal_value=r.current_value - 1.0) for r in traces[0]]
    rep.expect("refine: step not halved on a rejection",
               checks.refine_traces([rows], rc.steps, rc.step_size, rc.decay), True)

    # planted: the box gradient with its sign flipped, so every proposal is rejected
    original = wl_refine.refine.box_grad_batch

    def flipped(*args, **kwargs):
        values, grads = original(*args, **kwargs)
        return values, -grads

    wl_refine.refine.box_grad_batch = flipped
    try:
        stuck, _ = wl_refine.refine.refine_all(params, scene.grid, scene.initial_dets, cfg.pool, cfg.refine)
    finally:
        wl_refine.refine.box_grad_batch = original
    f1_stuck = [wl_refine.energy(params, scene.grid, cfg, d.box) for d in stuck]
    rep.expect("refine: box gradient with its sign flipped", checks.refine_progress(f0, f1_stuck), True)


def selftest_train(rep: Report, cfg, work):
    wl_train.write_scenes(cfg.synth, range(2), "train", work)
    dataset = synthscene.FileScenes(work, split="train")
    params, records = wl_train.one_round(cfg, dataset)
    losses = [r.loss for r in records]
    rep.expect("train: losses finite and repeatable", checks.train_losses([losses, list(losses)]), False)
    rep.expect("train: non-finite loss", checks.train_losses([losses[:-1] + [float("nan")]]), True)
    fd, analytic = wl_train.directional_check(cfg, params, dataset[0], 3)
    rep.expect("train: finite difference matches the gradient", checks.directional_derivative(fd, analytic), False)
    rep.expect("train: gradient with its sign flipped", checks.directional_derivative(fd, -analytic), True)


def main() -> int:
    cfg = config.build_run_config({}, TINY)
    rep = Report()
    work = WORK / f"selftest-{os.getpid()}"
    try:
        selftest_eval(rep, work / "eval")
        selftest_refine(rep, cfg)
        selftest_train(rep, replace(cfg, train=replace(cfg.train, epochs=8)), work / "train")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest", "passed" if rep.bad == 0 else f"FAILED ({rep.bad})")
    return 1 if rep.bad else 0


if __name__ == "__main__":
    sys.exit(main())
