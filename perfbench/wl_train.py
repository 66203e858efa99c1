"""`train` workload: NCE training of the energy network from scene files.

Set-up writes the scenes with the program's scene writer; each round then
runs `nce.train` from `init_params(seed)` over `FileScenes`, as
`boxebm train` does, so every step reloads its eight scenes from disk.
Net, pool and noise are the defaults (M = 256, 8 scenes per step).
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from boxebm import config, energynet, nce, synthscene

import checks
from common import p50_ms, p90_ms

SETUP_REPEATS = 9  # set-up takes about 0.45 s, so its median rests on several
N_SCENES = 32
EPOCHS = 4  # 32 scenes, 8 per step: 16 optimizer steps per round
CARS = 6  # every scene has 6 annotations, so each forward call has 6 * 257 = 1542 rows
FD_EPS = 1e-5


def run_config(seed: int):
    return config.build_run_config({}, {
        "seed": str(seed), "train.epochs": str(EPOCHS),
        "synth.cars_min": str(CARS), "synth.cars_max": str(CARS),
    })


def net_dims(cfg, channels: int):
    return energynet.EnergyNetDims(feat_len=cfg.pool.feature_len(channels), enc_dim=cfg.net.enc_dim,
                                   head_dims=(cfg.net.head1, cfg.net.head2))


def write_scenes(synth_cfg, ids, split: str, out_dir) -> list[int]:
    """Generate and write scenes one at a time; returns each scene's annotation count."""
    counted = []

    def scenes():
        for i in ids:
            scene = synthscene.gen_scene_by_index(synth_cfg, i)
            counted.append(len(scene.gts))
            yield scene

    synthscene.save_dataset(scenes(), [split] * len(ids), out_dir)
    return counted


@dataclass
class State:
    cfg: object
    dataset: object
    n_ann: int
    losses: list = field(default_factory=list)  # per round
    trained: object = None  # parameters after round 1


def setup(seed: int, work) -> State:
    cfg = run_config(seed)
    n_ann = sum(write_scenes(cfg.synth, range(N_SCENES), "train", work / "scenes"))
    return State(cfg, synthscene.FileScenes(work / "scenes", split="train"), n_ann)


def one_round(cfg, dataset):
    params = energynet.init_params(cfg.seed, net_dims(cfg, cfg.synth.channels))
    return nce.train(params, dataset, cfg.train, cfg.noise.build(), cfg.pool)


def directional_check(cfg, trained, scene, seed: int):
    """Central difference of the NCE loss along a random unit direction at
    the trained parameters, against the analytic gradient. Both sides draw
    their noise from identically seeded generators."""
    nm = cfg.noise.build()
    theta = trained.to_vector()
    v = np.random.default_rng(seed).normal(size=theta.size)
    v /= np.linalg.norm(v)

    def loss(vec):
        rng = np.random.default_rng(seed + 1)
        return nce.nce_loss(trained.from_vector(vec), [scene], nm, cfg.train.noise_samples, rng, cfg.pool)

    _, grad = loss(theta)
    plus, _ = loss(theta + FD_EPS * v)
    minus, _ = loss(theta - FD_EPS * v)
    return (plus - minus) / (2 * FD_EPS), float(grad @ v)


def steps_per_round(cfg) -> int:
    return cfg.train.epochs * -(-N_SCENES // cfg.train.batch_size)


def run_round(st: State, res) -> list[float]:
    """One `nce.train` call; the units are its optimizer steps."""
    res.attempted += steps_per_round(st.cfg)
    try:
        params, records = one_round(st.cfg, st.dataset)
    except Exception:  # a failed round counts as failed steps
        traceback.print_exc(file=sys.stderr)
        res.failed += steps_per_round(st.cfg)
        return []
    st.losses.append([r.loss for r in records])
    if st.trained is None:
        st.trained = params
    return np.diff([0.0] + [r.seconds for r in records]).tolist()


def finish(st: State, res, round_s, step_s) -> dict:
    cfg, losses = st.cfg, st.losses
    res.failures += checks.train_losses(losses)
    fd, analytic = directional_check(cfg, st.trained, st.dataset[0], cfg.seed)
    res.failures += checks.directional_derivative(fd, analytic)
    boxes_per_step = st.n_ann * cfg.train.epochs * (cfg.train.noise_samples + 1) // steps_per_round(cfg)
    q = max(1, len(losses[0]) // 4)
    res.notes = {"rounds": len(round_s), "steps": len(step_s), "boxes_per_step": boxes_per_step,
                 "first_loss": losses[0][0], "last_loss": losses[0][-1], "fd": fd, "analytic": analytic}
    return {
        "throughput_per_s": boxes_per_step * len(step_s) / sum(round_s),
        "latency_ms_p50": p50_ms(step_s),
        "latency_ms_p90": p90_ms(step_s),
        "quality": float(np.mean(losses[0][:q]) / np.mean(losses[0][-q:])),
    }
