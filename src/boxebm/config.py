"""Run configuration: nested dataclass defaults, flat key-value files, overrides.

Config files are plain text, one `group.key = value` per line, `#`
comments allowed. Command-line `--set group.key=value` overrides win over
the file, which wins over defaults. Tuples are comma-separated. The fully
resolved configuration is printed on every run and embedded in the comment
line of every CSV the commands emit, so outputs are self-describing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .energynet import EnergyNetDims
from .errors import ConfigError
from .evalkit import EvalConfig
from .nce import NoiseModel, TrainConfig
from .pooling import PoolConfig
from .refine import RefineConfig
from .synthscene import SynthConfig


@dataclass(frozen=True)
class NetConfig:
    enc_dim: int = 16
    head1: int = 256
    head2: int = 256

    def __post_init__(self):
        for key in ("enc_dim", "head1", "head2"):
            if getattr(self, key) < 1:
                raise ConfigError(f"net.{key} must be >= 1, got {getattr(self, key)}")


@dataclass(frozen=True)
class NoiseConfig:
    sigma3: tuple = (0.25, 0.25, 0.125, 0.125, 0.125, 0.125, 0.0625)
    ratios: tuple = (0.25, 0.5, 1.0)
    beta: float = 0.0

    def __post_init__(self):
        if not self.ratios:
            raise ConfigError("noise.ratios must hold at least one scale ratio")

    def build(self) -> NoiseModel:
        s3 = np.asarray(self.sigma3, dtype=float)
        return NoiseModel(sigma=np.stack([s3 * r for r in self.ratios]), beta=self.beta)


@dataclass(frozen=True)
class SweepConfig:
    t_values: tuple = (0, 1, 2, 4, 8, 10, 16, 32, 64)

    def __post_init__(self):
        if not self.t_values or min(self.t_values) < 0:
            raise ConfigError(f"sweep.t_values must be one or more step counts >= 0, got {self.t_values}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    n_scenes: int = 2400
    angle_points: int = 101
    synth: SynthConfig = field(default_factory=SynthConfig)
    pool: PoolConfig = field(default_factory=PoolConfig)
    net: NetConfig = field(default_factory=NetConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    refine: RefineConfig = field(default_factory=RefineConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def __post_init__(self):
        if self.angle_points < 1:
            raise ConfigError(f"angle_points must be >= 1, got {self.angle_points}")

    def net_dims(self, channels: int) -> EnergyNetDims:
        """Network sizes for pooled grids of `channels` channels."""
        return EnergyNetDims(feat_len=self.pool.feature_len(channels), enc_dim=self.net.enc_dim,
                             head_dims=(self.net.head1, self.net.head2))


_GROUPS = ("synth", "pool", "net", "noise", "train", "refine", "eval", "sweep")
_SCALARS = ("seed", "n_scenes", "angle_points")


def _parse_scalar(text: str, like):
    text = text.strip()
    if isinstance(like, bool):
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {text!r}")
    try:
        if isinstance(like, int):
            return int(text)
        if isinstance(like, float):
            return float(text)
    except ValueError:
        raise ConfigError(f"expected {type(like).__name__}, got {text!r}") from None
    return text


def _parse_value(text: str, like):
    if isinstance(like, tuple):
        parts = [p for p in text.split(",") if p.strip() != ""]
        elem = like[0] if len(like) else ""
        return tuple(_parse_scalar(p, elem) for p in parts)
    return _parse_scalar(text, like)


def _parse_keyed(key: str, text: str, like):
    try:
        return _parse_value(text, like)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def parse_config_file(path) -> dict:
    """Flat {key: raw text value} from a key-value file."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path} line {lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def build_run_config(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then file values, then overrides. Unset per-module seeds
    follow the top-level seed."""
    flat: dict[str, str] = {}
    flat.update(file_values or {})
    flat.update(overrides or {})
    cfg = RunConfig()
    group_updates: dict[str, dict] = {g: {} for g in _GROUPS}
    scalar_updates: dict = {}
    for key, raw in flat.items():
        if key in _SCALARS:
            scalar_updates[key] = _parse_keyed(key, raw, getattr(cfg, key))
            continue
        if "." not in key:
            raise ConfigError(f"unknown config key {key!r}")
        group, sub = key.split(".", 1)
        if group not in _GROUPS:
            raise ConfigError(f"unknown config group {group!r}")
        target = getattr(cfg, group)
        if not any(f.name == sub for f in fields(target)):
            raise ConfigError(f"unknown config key {key!r}")
        group_updates[group][sub] = _parse_keyed(key, raw, getattr(target, sub))
    cfg = replace(cfg, **scalar_updates)
    if "seed" not in group_updates["synth"]:
        group_updates["synth"]["seed"] = cfg.seed
    if "seed" not in group_updates["train"]:
        group_updates["train"]["seed"] = cfg.seed
    for group, updates in group_updates.items():
        if updates:
            cfg = replace(cfg, **{group: replace(getattr(cfg, group), **updates)})
    return cfg


def flatten(cfg: RunConfig) -> dict:
    out = {k: getattr(cfg, k) for k in _SCALARS}
    for group in _GROUPS:
        sub = getattr(cfg, group)
        for f in fields(sub):
            out[f"{group}.{f.name}"] = getattr(sub, f.name)
    return out


def _fmt(v) -> str:
    if isinstance(v, tuple):
        return ",".join(_fmt(x) for x in v)
    return str(v)


def resolved_line(cfg: RunConfig) -> str:
    """One-line description embedded in CSV comments: version + full config."""
    parts = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(flatten(cfg).items()))
    return f"boxebm {__version__} | {parts}"
