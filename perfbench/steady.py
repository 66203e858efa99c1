#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and report the spread.

    python3 perfbench/steady.py --runs 10

Run i (1..runs) uses seed i and the run length from BENCHMARK.json, and the
workload order alternates from one run to the next. For every end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median against the metric's bound from
BENCHMARK.json, plus the share of failed operations. It then runs each
workload's traced run twice on seed 1 and reports whether every count
metric repeats exactly. The full report is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_REPEATS = 2
COUNT_SUFFIXES = (".calls", ".rows", ".boxes", ".lines", "query_points",
                  "grad_passes_per_det", "forward_passes_per_det")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads if i % 2 == 0 else workloads[::-1]:
            results[w].append(run_once(w, i + 1, seconds, 0))
            print(f"run {i + 1}/{args.runs} {w}: {results[w][-1]['wall_s']:.1f} s", file=sys.stderr, flush=True)

    report = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    print(f"{args.runs} runs of {seconds} s per workload, seeds 1..{args.runs}")
    print(f"{'workload':<11} {'metric':<17} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        runs = results[w]
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3, sp = spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
            verdict = ("steady" if sp <= m["bound"] / 3 else "within bound" if sp <= m["bound"] else "TOO WIDE")
            rows[m["name"]] = dict(median=med, q1=q1, q3=q3, spread=sp, bound=m["bound"], values=values)
            print(f"{w:<11} {m['name']:<17} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {sp:>7.4f} {m['bound']:>6}  {verdict}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"{w:<11} failed share {shares}, all correct: {correct}, "
              f"wall {statistics.median(r['wall_s'] for r in runs):.1f} s per run (median)")
        report["workloads"][w] = dict(metrics=rows, failed_shares=shares, correct=correct,
                                      wall_s=[r["wall_s"] for r in runs])

    for w in workloads:
        traced = [run_once(w, 1, seconds, 1) for _ in range(TRACE_REPEATS)]
        counts = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith(COUNT_SUFFIXES)} for t in traced]
        same = all(c == counts[0] for c in counts[1:])
        print(f"{w:<11} traced counts repeat exactly over {TRACE_REPEATS} runs: {same}")
        report["workloads"][w]["trace_counts_repeat"] = same

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"report: {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
