#!/usr/bin/env python3
"""The two analysis experiments: refinement-iteration sweep (AP and
throughput vs T) and the heading-angle energy scan on a model trained with
symmetric rendering, which exposes the two heading modes.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from boxebm.config import build_run_config
from boxebm.energynet import heading_scan, init_params
from boxebm.nce import train
from boxebm.refine import sweep_t
from boxebm.synthscene import LazyScenes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--train-scenes", type=int, default=600)
    ap.add_argument("--val-scenes", type=int, default=100)
    ap.add_argument("--epochs", type=int, help="default: train.epochs")
    ap.add_argument("--seed", type=int, help="default: the run config's seed")
    args = ap.parse_args()

    given = {"seed": args.seed, "train.epochs": args.epochs}
    cfg = build_run_config({}, {"synth.symmetric_rendering": "true",
                                **{key: str(v) for key, v in given.items() if v is not None}})
    trained, records = train(init_params(cfg.seed, cfg.net_dims(cfg.synth.channels)),
                             LazyScenes(cfg.synth, range(args.train_scenes)),
                             cfg.train, cfg.noise.build(), cfg.pool)
    print(f"trained on symmetric rendering; final J = {records[-1].loss:.3f}")

    val = LazyScenes(cfg.synth, range(args.train_scenes, args.train_scenes + args.val_scenes))
    print(f"{'T':>4} {'mean 3D AP':>11} {'scenes/s':>9}")
    for t, mean_ap, rate in sweep_t(trained, val, cfg.pool, cfg.refine, cfg.sweep.t_values,
                                    cfg.eval.thresholds):
        print(f"{t:>4} {mean_ap:>11.4f} {rate:>9.1f}")

    scene = val[0]
    deltas, values = heading_scan(trained, scene.grid, scene.initial_dets[0].box.as_array(), cfg.pool,
                                  cfg.angle_points)
    print("\nheading-angle energy scan (delta_phi, f):")
    for d, v in zip(deltas[::10], values[::10]):
        print(f"  {d:6.3f} {v:10.3f}")


if __name__ == "__main__":
    main()
