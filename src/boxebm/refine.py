"""Gradient-ascent refinement of detections under the energy network.

Per detection: propose y + step * grad(f); accept only if the energy
strictly increases, otherwise halve-decay the step length and stay put.
Every detection has its own step length, scores pass through unchanged,
and there is no randomness, so outputs are a deterministic function of
the inputs.

All detections of a call ascend together as rows of one batch, each with
its own step length, current value and acceptance. The network runs with
per-row products, so a detection's result does not depend on which other
detections share its batch: `refine_one` is the batch of one.

Evaluation budget per call, whatever the number of detections, zero for
T = 0: one initial gradient pass, then each of the first T - 1 proposals
is evaluated by a gradient pass, so its gradient is ready if it is
accepted, and the final proposal by one forward pass -- T gradient passes
and one forward pass for T iterations. A rejected proposal's gradient is
computed and dropped. Only an accepted proposal needs a finite gradient:
an iteration whose batched pass meets a non-finite one is evaluated again
as a forward pass and a gradient pass over its accepted proposals.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from .energynet import EnergyNetParams, box_grad_batch, forward_batch
from .errors import ConfigError, NumericError
from .evalkit import evaluate
from .featuregrid import FeatureGrid
from .geometry import Box3D
from .pooling import PoolConfig

logger = logging.getLogger(__name__)

# Box dimensions are clamped to this floor after refinement; Algorithm-style
# ascent has no projection step, the clamp only guards downstream geometry.
MIN_DIMENSION = 1e-3


@dataclass(frozen=True)
class RefineConfig:
    steps: int = 10  # gradient-ascent iterations (T)
    step_size: float = 2e-4  # initial step length (lambda)
    decay: float = 0.5  # step-length decay on rejection (eta)

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if not self.step_size > 0:
            raise ConfigError(f"step_size must be positive, got {self.step_size}")
        if not 0.0 < self.decay < 1.0:
            raise ConfigError(f"decay must be in (0, 1), got {self.decay}")


@dataclass(frozen=True)
class Detection:
    box: Box3D
    score: float

    def __post_init__(self):
        if not 0.0 < self.score < 1.0:
            raise ValueError(f"score must be in (0, 1), got {self.score}")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    current_value: float
    proposal_value: float
    accepted: bool
    step_size: float


def refine_one(params: EnergyNetParams, grid: FeatureGrid, det: Detection,
               pool_cfg: PoolConfig, cfg: RefineConfig):
    """Refine a single detection; returns (refined detection, trace rows).
    Kept because the refinement benchmark (`perfbench/wl_refine.py`) runs
    detections through it one at a time."""
    refined, traces = refine_all(params, grid, [det], pool_cfg, cfg)
    return refined[0], traces[0]


def _value_and_grad(params: EnergyNetParams, grid: FeatureGrid, prop: np.ndarray, val: np.ndarray,
                    pool_cfg: PoolConfig):
    """Values (B,) and gradients (B, 7) of the proposals.

    Only an accepted proposal's gradient is used, so when the batched pass
    meets a non-finite gradient, the values come from a forward pass and the
    gradients from the accepted proposals alone (zero elsewhere). Per-row
    products give the same bits either way."""
    try:
        return box_grad_batch(params, grid, prop, pool_cfg, per_row=True)
    except NumericError:
        pval = forward_batch(params, grid, prop, pool_cfg, per_row=True)[0]
        pgrad = np.zeros_like(prop)
        accepted = pval > val
        if accepted.any():
            pgrad[accepted] = box_grad_batch(params, grid, prop[accepted], pool_cfg, per_row=True)[1]
        return pval, pgrad


def refine_all(params: EnergyNetParams, grid: FeatureGrid, dets, pool_cfg: PoolConfig,
               cfg: RefineConfig):
    """Refine each detection independently in one batched ascent; order preserved.

    Returns (list of refined detections, list of per-detection traces).
    """
    dets = list(dets)
    if cfg.steps == 0 or not dets:
        return dets, [[] for _ in dets]
    y = np.array([d.box.as_array() for d in dets])
    lam = np.full(len(dets), cfg.step_size, dtype=float)
    try:
        val, grad = box_grad_batch(params, grid, y, pool_cfg, per_row=True)
    except NumericError as exc:
        raise NumericError(str(exc), where="iteration 0") from exc
    traces: list[list[TraceRow]] = [[] for _ in dets]
    for t in range(cfg.steps):
        prop = y + lam[:, None] * grad
        last = t == cfg.steps - 1
        try:
            if last:
                pval = forward_batch(params, grid, prop, pool_cfg, per_row=True)[0]
            else:  # the gradient is ready if the proposal is accepted
                pval, pgrad = _value_and_grad(params, grid, prop, val, pool_cfg)
        except NumericError as exc:
            raise NumericError(str(exc), where=f"iteration {t}") from exc
        accepted = pval > val
        for trace, v, pv, acc, step in zip(traces, val.tolist(), pval.tolist(), accepted.tolist(),
                                           lam.tolist()):
            trace.append(TraceRow(t, v, pv, acc, step))
        y[accepted] = prop[accepted]
        val[accepted] = pval[accepted]
        if not last:
            grad[accepted] = pgrad[accepted]
        lam[~accepted] *= cfg.decay
    small = y[:, 3:6] < MIN_DIMENSION
    if small.any():
        logger.warning("refinement produced box dimensions below %g m in %d detection(s); clamping",
                       MIN_DIMENSION, int(small.any(axis=1).sum()))
        y[:, 3:6] = np.maximum(y[:, 3:6], MIN_DIMENSION)
    return [Detection(box=Box3D.from_array(row), score=d.score) for row, d in zip(y, dets)], traces


def refine_scenes(params: EnergyNetParams, scenes, pool_cfg: PoolConfig, cfg: RefineConfig):
    """Refine the scenes of a sequence, read one at a time, with `refine_all`.

    Returns (initial, refined, traces, gts, seconds): the initial and
    refined detections, their traces and the ground truth per scene id, in
    scene order, and the seconds spent inside `refine_all` only.
    """
    initial, refined, traces, gts = {}, {}, {}, {}
    seconds = 0.0
    for i in range(len(scenes)):
        scene = scenes[i]
        t0 = time.perf_counter()
        refined[scene.id], traces[scene.id] = refine_all(params, scene.grid, scene.initial_dets,
                                                         pool_cfg, cfg)
        seconds += time.perf_counter() - t0
        initial[scene.id], gts[scene.id] = scene.initial_dets, scene.gts
    return initial, refined, traces, gts, seconds


def sweep_t(params: EnergyNetParams, scenes, pool_cfg: PoolConfig, cfg: RefineConfig, t_values,
            thresholds):
    """The refinement-iteration sweep: `cfg` with each T of `t_values` in turn.

    Returns one (T, mean 3D AP over `thresholds`, scenes per second of
    refinement) row per T. Every T fetches each scene again, so a lazy
    sequence stays lazy.
    """
    rows = []
    for t in t_values:
        _, refined, _, gts, seconds = refine_scenes(params, scenes, pool_cfg, replace(cfg, steps=int(t)))
        res = evaluate(refined, gts, modes=("3d",), thresholds=thresholds, difficulties=("all",))
        mean_ap = float(np.mean([res[("3d", thr, "all")].ap for thr in thresholds]))
        rows.append((int(t), mean_ap, len(scenes) / seconds if seconds > 0 else float("inf")))
    return rows
