#!/usr/bin/env python3
"""boxebm benchmark: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Workloads: train, refine, eval_kitti (see README.md). `--trace 0` measures
the end-to-end metrics for about `--seconds` seconds of whole rounds.
`--trace 1` wraps the package's public functions, runs a fixed amount of
work (set-up and one round) so that every count repeats exactly, and
reports the per-layer metrics. Both print the environment first and one
JSON object as the last line of standard output.
"""

import os

# One BLAS thread, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import pkgutil
import platform
import resource
import shutil
import sys
from pathlib import Path

import numpy as np

import tracer as tracing
from common import OUT, SRC, WORK, run_workload

WORKLOADS = ("train", "refine", "eval_kitti")
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(), "processor": cpu_model(),
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def layer_value(metric: str, summary: dict, counts: dict) -> float:
    """One per-layer metric from the span summary and the work counters."""
    children = summary["_children"]
    det_calls = summary.get("refine.refine_one", {}).get("calls", 0)
    if metric == "refine.accept_ratio":
        return counts.get("refine.accepted", 0) / max(1, counts.get("refine.proposals", 0))
    if metric == "refine.grad_passes_per_det":
        return children.get(("refine.refine_one", "energynet.box_grad_batch"), 0) / max(1, det_calls)
    if metric == "refine.forward_passes_per_det":
        return children.get(("refine.refine_one", "energynet.forward_batch"), 0) / max(1, det_calls)
    if metric in counts or metric.endswith((".rows", ".boxes", ".lines", ".query_points")):
        return counts.get(metric, 0)
    span, stat = metric.rsplit(".", 1)
    row = summary.get(span)
    if row is None or row["calls"] == 0:
        return 0
    if stat == "calls":
        return row["calls"]
    if stat == "self_ms":
        return 1000.0 * row["self_s"]
    if stat == "ms_p50":
        return 1000.0 * float(np.median(row["durations"]))
    if stat == "us_mean":
        return 1e6 * row["total_s"] / row["calls"]
    raise ValueError(f"no rule for per-layer metric {metric!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "boxebm" / "__init__.py").is_file():
        print(f"error: the boxebm sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(BENCHMARK_JSON.read_text())

    import boxebm

    modules = [importlib.import_module(f"boxebm.{m.name}") for m in pkgutil.iter_modules(boxebm.__path__)]
    workload = importlib.import_module(f"wl_{args.workload}")
    env = environment()
    print("# env " + json.dumps(env), flush=True)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install([boxebm, *modules])
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        res = run_workload(workload, args.seed, args.seconds, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tracer:
            tracer.uninstall()
    for msg in res.failures:
        print(f"# check failed: {msg}", file=sys.stderr)
    print("# notes " + json.dumps(res.notes), flush=True)

    if tracer:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        summary, counts = tracer.summary(), tracer.counts
        metrics = {m["name"]: {"value": layer_value(m["name"], summary, counts), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        print("# traced " + json.dumps(res.metrics), flush=True)
    else:
        res.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {m["name"]: {"value": res.metrics[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    correct = not res.failures and res.attempted > 0 and res.failed == 0
    print(json.dumps({"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
