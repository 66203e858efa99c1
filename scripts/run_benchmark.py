#!/usr/bin/env python3
"""End-to-end synthetic benchmark: train the energy net, refine the validation
detections, and print the initial-vs-refined 3D/BEV AP table.

Scenes are regenerated lazily from their seeds instead of being staged on
disk, so the full 2,000/400-scene run fits in a few hundred MB of memory.
Use --quick for a 10x smaller sanity run.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from boxebm.config import build_run_config, resolved_line
from boxebm.energynet import init_params, save_checkpoint
from boxebm.evalkit import evaluate, relative_gain
from boxebm.geometry import iou_3d
from boxebm.nce import train
from boxebm.refine import refine_scenes
from boxebm.synthscene import LazyScenes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--train-scenes", type=int, default=2000)
    ap.add_argument("--val-scenes", type=int, default=400)
    ap.add_argument("--epochs", type=int, default=3)
    ap.add_argument("--quick", action="store_true", help="200/40 scenes, 2 epochs")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--checkpoint", help="where to save the trained network")
    args = ap.parse_args()
    if args.quick:
        args.train_scenes, args.val_scenes, args.epochs = 200, 40, 2

    cfg = build_run_config({}, {"seed": str(args.seed), "train.epochs": str(args.epochs)})
    print(f"# {resolved_line(cfg)}")
    t0 = time.perf_counter()
    trained, records = train(init_params(cfg.seed, cfg.net_dims(cfg.synth.channels)),
                             LazyScenes(cfg.synth, range(args.train_scenes)),
                             cfg.train, cfg.noise.build(), cfg.pool)
    print(f"trained {len(records)} steps in {time.perf_counter() - t0:.0f}s; "
          f"final J = {np.mean([r.loss for r in records[-10:]]):.3f} "
          f"(uniform-logit baseline log(M+1) = {np.log(cfg.train.noise_samples + 1):.3f})")
    if args.checkpoint:
        save_checkpoint(trained, args.checkpoint)
        print(f"checkpoint -> {args.checkpoint}")

    val = LazyScenes(cfg.synth, range(args.train_scenes, args.train_scenes + args.val_scenes))
    dets_initial, dets_refined, _, gts, seconds = refine_scenes(trained, val, cfg.pool, cfg.refine)
    iou_before = [iou_3d(d.box, g.box) for sid in gts for d, g in zip(dets_initial[sid], gts[sid])]
    iou_after = [iou_3d(r.box, g.box) for sid in gts for r, g in zip(dets_refined[sid], gts[sid])]
    print(f"refined {len(iou_before)} detections in {seconds:.0f}s")
    print(f"mean 3D IoU: initial {np.mean(iou_before):.4f} -> refined {np.mean(iou_after):.4f}")

    res_i = evaluate(dets_initial, gts, modes=cfg.eval.modes, thresholds=cfg.eval.thresholds)
    res_r = evaluate(dets_refined, gts, modes=cfg.eval.modes, thresholds=cfg.eval.thresholds)
    print(f"{'mode':>5} {'thr':>5} {'AP initial':>11} {'AP refined':>11} {'rel gain':>9}")
    for mode in cfg.eval.modes:
        for thr in cfg.eval.thresholds:
            ai = res_i[(mode, thr, "all")].ap
            ar = res_r[(mode, thr, "all")].ap
            rel = relative_gain(ai, ar)
            print(f"{mode:>5} {thr:>5} {ai:>11.4f} {ar:>11.4f} {rel:>+9.2%}")


if __name__ == "__main__":
    main()
