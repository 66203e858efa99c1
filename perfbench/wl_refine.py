"""`refine` workload: what `boxebm refine` does, scene by scene.

Set-up writes training scenes from a fixed seed, trains the model on them
with `boxebm train` in a child process (so training does not count in
this process's peak RSS), and writes the validation scenes from the
workload seed. Each timed unit loads one scene file, runs `refine_all` at
the paper settings (T = 10, lambda = 2e-4, eta = 0.5) and writes the
KITTI result text.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from boxebm import energynet, geometry, kittiio, refine, synthscene

import checks
import wl_train
from common import SRC, p50_ms, p90_ms

SETUP_REPEATS = 3  # each set-up trains a model
MODEL_SEED = 0  # the refined model is the same for every workload seed
MODEL_SCENES = 16
MODEL_EPOCHS = 10  # 20 optimizer steps: enough that refinement measurably raises IoU
MODEL_NOISE = 64  # M for the model only: a quarter of the cost per step
N_VAL = 40
PASS_CHECK_SCENES = 10  # scenes whose gradient and forward passes are counted


def train_model(work):
    """Train the model with `boxebm train` in a child process; returns the checkpoint path."""
    cfg = wl_train.run_config(MODEL_SEED)
    wl_train.write_scenes(cfg.synth, range(MODEL_SCENES), "train", work / "model_scenes")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "boxebm.cli", "train", "--dataset", str(work / "model_scenes"),
           "--out", str(work / "model"), "--seed", str(MODEL_SEED),
           "--set", f"train.epochs={MODEL_EPOCHS}", "--set", f"train.noise_samples={MODEL_NOISE}"]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"boxebm train failed: {done.stderr.strip()}")
    return work / "model" / "checkpoint.ckpt"


@dataclass
class State:
    cfg: object
    scenes: object
    params: object
    dets_per_scene: list
    dets_dir: object
    first: list = field(default_factory=list)  # (scene, refined, traces, text) of round 1
    texts: list = field(default_factory=list)  # result texts of each round


def setup(seed: int, work) -> State:
    cfg = wl_train.run_config(seed)
    ckpt = train_model(work)
    dets_per_scene = wl_train.write_scenes(cfg.synth, range(N_VAL), "val", work / "val")
    dets_dir = work / "out" / "dets"
    dets_dir.mkdir(parents=True, exist_ok=True)
    return State(cfg, synthscene.FileScenes(work / "val", split="val"), energynet.load_checkpoint(ckpt),
                 dets_per_scene, dets_dir)


def refine_scene(cfg, params, scenes, i, dets_dir):
    """One timed unit, as in `boxebm refine`: load, refine, write results."""
    scene = scenes[i]
    refined, traces = refine.refine_all(params, scene.grid, scene.initial_dets, cfg.pool, cfg.refine)
    labels = [kittiio.from_box3d(d.box, score=d.score) for d in refined]
    text = kittiio.write_result_file(labels)
    (dets_dir / f"{scene.id:06d}.txt").write_text(text)
    return scene, refined, traces, text


def as_rows(dets):
    return (np.array([d.box.as_array() for d in dets]).reshape(-1, 7), np.array([d.score for d in dets]))


def energy(params, grid, cfg, box) -> float:
    """f of one box, evaluated as refinement evaluates it (a batch of one)."""
    return float(energynet.forward_batch(params, grid, box.as_array()[None, :], cfg.pool)[0][0])


def count_passes(cfg, params, scene):
    """Gradient and forward passes refine_one makes for each detection."""
    counts = {"grad": 0, "fwd": 0}
    originals = refine.box_grad_batch, refine.forward_batch

    def counting(key, fn):
        def inner(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return inner

    refine.box_grad_batch = counting("grad", originals[0])
    refine.forward_batch = counting("fwd", originals[1])
    grads, fwds, boxes = [], [], []
    try:
        for det in scene.initial_dets:
            counts["grad"] = counts["fwd"] = 0
            out, _ = refine.refine_one(params, scene.grid, det, cfg.pool, cfg.refine)
            grads.append(counts["grad"])
            fwds.append(counts["fwd"])
            boxes.append(out.box.as_array())
    finally:
        refine.box_grad_batch, refine.forward_batch = originals
    return grads, fwds, np.array(boxes).reshape(-1, 7)


def check_scene(cfg, params, scene, refined, traces, text, count: bool):
    """Failure messages of one scene, and the energies f of its initial and refined boxes."""
    rc = cfg.refine
    out = checks.refine_traces(traces, rc.steps, rc.step_size, rc.decay)
    f0 = [energy(params, scene.grid, cfg, d.box) for d in scene.initial_dets]
    f1 = [energy(params, scene.grid, cfg, d.box) for d in refined]
    out += checks.refine_energies(f0, f1)
    out += checks.refine_outputs(as_rows(scene.initial_dets), as_rows(refined), text)
    if count:
        grads, fwds, boxes = count_passes(cfg, params, scene)
        out += checks.refine_passes(grads, fwds, rc.steps)
        if not np.array_equal(boxes, as_rows(refined)[0]):
            out.append(f"refine: scene {scene.id} refined differently on a second pass")
    return out, f0, f1


def run_round(st: State, res) -> list[float]:
    """Every validation scene once; the units are scenes."""
    scene_s = []
    st.texts.append([])
    for i in range(len(st.scenes)):
        res.attempted += st.dets_per_scene[i]
        t0 = time.perf_counter()
        try:
            out = refine_scene(st.cfg, st.params, st.scenes, i, st.dets_dir)
        except Exception:  # a failed scene counts its detections as failed
            traceback.print_exc(file=sys.stderr)
            res.failed += st.dets_per_scene[i]
            continue
        scene_s.append(time.perf_counter() - t0)
        st.texts[-1].append(out[3])
        if len(st.texts) == 1:
            st.first.append(out)
    return scene_s


def finish(st: State, res, round_s, scene_s) -> dict:
    f0, f1 = [], []
    for k, (scene, refined, traces, text) in enumerate(st.first):
        out, f0_scene, f1_scene = check_scene(st.cfg, st.params, scene, refined, traces, text, k < PASS_CHECK_SCENES)
        res.failures += out
        f0 += f0_scene
        f1 += f1_scene
    res.failures += checks.refine_progress(f0, f1)
    if any(t != st.texts[0] for t in st.texts[1:]):
        res.failures.append("refine: a later round wrote different result files")
    iou0 = [geometry.iou_3d(d.box, g.box) for s, _, _, _ in st.first for d, g in zip(s.initial_dets, s.gts)]
    iou1 = [geometry.iou_3d(d.box, g.box) for s, r, _, _ in st.first for d, g in zip(r, s.gts)]
    res.notes = {"rounds": len(round_s), "scenes": len(scene_s), "detections_per_round": sum(st.dets_per_scene),
                 "mean_iou_initial": float(np.mean(iou0)), "mean_iou_refined": float(np.mean(iou1))}
    return {
        "throughput_per_s": (res.attempted - res.failed) / sum(round_s),
        "latency_ms_p50": p50_ms(scene_s),
        "latency_ms_p90": p90_ms(scene_s),
        "quality": float(np.mean(iou1) / np.mean(iou0)),
    }
