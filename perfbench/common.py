"""Shared pieces of the benchmark: paths, the run loop and small statistics.

A workload module provides three functions:

- `setup(seed, work) -> state`: writes the inputs under `work`, which is
  empty; repeated the module's SETUP_REPEATS times and timed, its median
  is `setup_s`;
- `run_round(state, res) -> list of unit seconds`: one round of timed
  units, adding to `res.attempted` and `res.failed`;
- `finish(state, res, round_s, unit_s) -> dict`: checks the outputs into
  `res.failures` and returns the end-to-end metrics other than `setup_s`
  and `peak_rss_mb`.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"  # scratch inputs, removed when a run ends
OUT = HERE / "out"  # spans of traced runs, steadiness reports


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # check messages
    metrics: dict = field(default_factory=dict)  # end-to-end name -> value
    notes: dict = field(default_factory=dict)  # printed, not part of the result


def p50_ms(seconds) -> float:
    return 1000.0 * statistics.median(seconds)


def p90_ms(seconds) -> float:
    return 1000.0 * float(np.percentile(np.asarray(seconds), 90))


def run_workload(workload, seed: int, seconds: float, work, tracer=None) -> RunResult:
    """Set up, time whole rounds, then check. Untraced, the rounds fill about
    `seconds` (at least one); traced, exactly one round runs, so every count
    repeats. Tracing covers set-up and rounds, not the checks."""
    res = RunResult()
    if tracer:
        tracer.enabled = True
    setup_s = []
    for _ in range(workload.SETUP_REPEATS):
        shutil.rmtree(work / "inputs", ignore_errors=True)  # the previous set-up's files, untimed
        t0 = time.perf_counter()
        state = workload.setup(seed, work / "inputs")
        setup_s.append(time.perf_counter() - t0)
    round_s, unit_s = [], []
    planned = 1
    while len(round_s) < planned:
        t0 = time.perf_counter()
        unit_s += workload.run_round(state, res)
        round_s.append(time.perf_counter() - t0)
        if len(round_s) == 1 and not tracer:
            planned = max(1, round(seconds / round_s[0]))
    if tracer:
        tracer.enabled = False
    res.metrics = workload.finish(state, res, round_s, unit_s)
    res.metrics["setup_s"] = statistics.median(setup_s)
    return res
