"""Noise-contrastive training of the energy network.

The true box is classified against M samples drawn from a Gaussian-mixture
noise distribution centered on it, with density-corrected logits
z_m = f(x, y_m) - log q(y_m | y). Minimizing the resulting (M+1)-way
softmax cross entropy shapes f toward the conditional log density without
ever touching a partition function. The annotation-noise variant perturbs
the positive itself with a zero-centered, beta-scaled copy of the mixture;
beta = 0 reduces to the plain loss on the identical code path, so the two
are bit-identical under a shared random stream.

The noise covariance is diagonal per component (the per-coordinate scales
differ by coordinate group), and the density uses the same diagonal form.
Draws that would make a box dimension non-positive are rejected and
redrawn; with car-sized boxes and the default scales this is a >5 sigma
event, far below any test tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .energynet import EnergyNetParams, forward_batch, weighted_param_grad
from .errors import ConfigError, GenerationError, NumericError
from .pooling import PoolConfig

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class NoiseModel:
    """K-component Gaussian mixture centered on the true box.

    sigma: (K, 7) per-component, per-coordinate standard deviations.
    beta: scale of the positive-perturbation variant (0 disables it).
    """

    sigma: np.ndarray
    beta: float = 0.0

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=float)
        if sig.ndim != 2 or sig.shape[1] != 7 or sig.shape[0] < 1:
            raise ConfigError(f"sigma must be (K, 7), got {sig.shape}")
        if not np.all(sig > 0):
            raise ConfigError("all noise scales must be positive")
        if self.beta < 0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        object.__setattr__(self, "sigma", sig)

    @property
    def n_components(self) -> int:
        return self.sigma.shape[0]


def sample_noise_rows(nm: NoiseModel, center: np.ndarray, rng: np.random.Generator,
                      n: int, scale: float = 1.0) -> np.ndarray:
    """n mixture draws centered at a box row (7,); invalid dims are redrawn."""
    k = rng.integers(nm.n_components, size=n)
    rows = center[None, :] + rng.normal(size=(n, 7)) * nm.sigma[k] * scale
    for _ in range(1000):
        bad = np.flatnonzero((rows[:, 3:6] <= 0).any(axis=1))
        if bad.size == 0:
            return rows
        k = rng.integers(nm.n_components, size=bad.size)
        rows[bad] = center[None, :] + rng.normal(size=(bad.size, 7)) * nm.sigma[k] * scale
    raise GenerationError("could not draw valid noise boxes (box dimensions near zero?)")


def noise_log_density_rows(nm: NoiseModel, rows: np.ndarray, center: np.ndarray) -> np.ndarray:
    """log q(row | center) for each row (N, 7), via log-sum-exp over components."""
    d = rows - center[None, :]  # (N, 7)
    inv = 1.0 / nm.sigma  # (K, 7)
    # (N, K): log N(d; 0, diag sigma_k^2)
    quad = -0.5 * np.einsum("nd,kd->nk", d * d, inv * inv)
    lognorm = -np.sum(np.log(nm.sigma), axis=1) - 3.5 * _LOG_2PI  # (K,)
    comp = quad + lognorm[None, :]
    m = comp.max(axis=1, keepdims=True)
    return (m[:, 0] + np.log(np.exp(comp - m).sum(axis=1))) - math.log(nm.n_components)


def logit_loss(z: np.ndarray):
    """Per-annotation loss -log softmax(z)[0] and the softmax itself."""
    m = z.max()
    ez = np.exp(z - m)
    lse = m + math.log(ez.sum())
    return lse - z[0], ez / ez.sum()


def nce_loss(params: EnergyNetParams, scenes, nm: NoiseModel, m_samples: int,
             rng: np.random.Generator, pool_cfg: PoolConfig):
    """Mean contrastive loss over all annotations in a batch of scenes.

    Returns (loss, flat parameter gradient). Scenes must expose `.grid`
    and `.gts` (each with a `.box`).
    """
    total = 0.0
    grad = np.zeros(params.n_params)
    n_annotations = 0
    beta_scale = math.sqrt(nm.beta) if nm.beta > 0 else 0.0
    for scene in scenes:
        groups = []
        logqs = []
        for gt in scene.gts:
            y = gt.box.as_array()
            if nm.beta > 0:
                y0 = sample_noise_rows(nm, y, rng, 1, scale=beta_scale)[0]
            else:
                y0 = y
            noise = sample_noise_rows(nm, y, rng, m_samples)
            group = np.vstack([y0[None, :], noise])
            groups.append(group)
            logqs.append(noise_log_density_rows(nm, group, y))
        if not groups:
            continue
        boxes = np.vstack(groups)
        values, cache = forward_batch(params, scene.grid, boxes, pool_cfg)
        coeffs = np.empty(len(boxes))
        stride = m_samples + 1
        for a, lq in enumerate(logqs):
            z = values[a * stride:(a + 1) * stride] - lq
            loss_a, soft = logit_loss(z)
            if not np.isfinite(loss_a):
                raise NumericError("non-finite contrastive loss",
                                   where=f"scene {getattr(scene, 'id', '?')}, annotation {a}")
            soft = soft.copy()
            soft[0] -= 1.0
            coeffs[a * stride:(a + 1) * stride] = soft
            total += loss_a
            n_annotations += 1
        grad += weighted_param_grad(params, cache, coeffs)
    if n_annotations == 0:
        raise ConfigError("no annotations in batch")
    return total / n_annotations, grad / n_annotations


@dataclass(frozen=True)
class TrainConfig:
    noise_samples: int = 256  # M contrastive samples per annotation
    learning_rate: float = 2e-3
    lr_schedule: str = "cosine"  # "cosine" or "constant"
    batch_size: int = 8  # scenes per step
    epochs: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.noise_samples < 1:
            raise ConfigError("need at least one noise sample")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError(f"batch_size and epochs must be >= 1, got {self.batch_size} and {self.epochs}")
        if self.lr_schedule not in ("cosine", "constant"):
            raise ConfigError(f"unknown lr schedule {self.lr_schedule!r}")


@dataclass
class LossRecord:
    epoch: int
    step: int
    loss: float
    seconds: float


@dataclass
class _AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def _adam_step(vec, grad, state: _AdamState, lr, b1=0.9, b2=0.999, eps=1e-8):
    state.t += 1
    state.m = b1 * state.m + (1 - b1) * grad
    state.v = b2 * state.v + (1 - b2) * grad * grad
    mhat = state.m / (1 - b1 ** state.t)
    vhat = state.v / (1 - b2 ** state.t)
    return vec - lr * mhat / (np.sqrt(vhat) + eps)


def train(params: EnergyNetParams, dataset, cfg: TrainConfig, nm: NoiseModel,
          pool_cfg: PoolConfig, on_epoch=None):
    """Mini-batch Adam on the contrastive loss; grids are fixed inputs.

    dataset: sequence of scenes (materialized lazily via __getitem__).
    Returns (trained params, list of per-step LossRecord). `on_epoch`
    is called with (params, epoch) after each epoch.
    """
    n = len(dataset)
    if n == 0:
        raise ConfigError("empty dataset")
    rng = np.random.default_rng(cfg.seed)
    vec = params.to_vector()
    state = _AdamState(m=np.zeros_like(vec), v=np.zeros_like(vec))
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    records: list[LossRecord] = []
    t0 = time.perf_counter()
    step = 0
    current = params
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for b in range(steps_per_epoch):
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            scenes = [dataset[int(i)] for i in idx]
            loss, grad = nce_loss(current, scenes, nm, cfg.noise_samples, rng, pool_cfg)
            if cfg.lr_schedule == "cosine":
                lr = cfg.learning_rate * 0.5 * (1.0 + math.cos(math.pi * step / max(total_steps, 1)))
            else:
                lr = cfg.learning_rate
            vec = _adam_step(vec, grad, state, lr)
            current = current.from_vector(vec)
            records.append(LossRecord(epoch, step, float(loss), time.perf_counter() - t0))
            step += 1
        if on_epoch is not None:
            on_epoch(current, epoch)
    return current, records
