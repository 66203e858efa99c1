"""Output checks of the three workloads.

Each check returns a list of failure messages, empty when the outputs are
right. The references are computations made apart from the program or
properties the method must have, never saved copies of earlier output,
and selftest.py shows that each check catches a planted error.
"""

from __future__ import annotations

import math

import numpy as np

FD_RTOL = 1e-4  # central difference vs analytic directional derivative
FILE_ATOL = 1e-6  # result files carry 6 decimals
MIN_UPHILL = 0.9  # share of detections whose f refinement must strictly raise
TABLE_ATOL = 1e-12  # ap.csv / pr.csv against exact rational arithmetic


# --- train ---------------------------------------------------------------

def train_losses(rounds) -> list[str]:
    """`rounds`: per-step losses of each round, all from the same start.

    Losses must be finite, the last quarter of steps must average below the
    first quarter, and every round must repeat the first bit for bit.
    """
    out = []
    first = rounds[0]
    if not all(math.isfinite(x) for x in first):
        out.append("train: non-finite loss")
    q = max(1, len(first) // 4)
    head, tail = float(np.mean(first[:q])), float(np.mean(first[-q:]))
    if not tail < head:
        out.append(f"train: loss did not fall ({head:.6g} over the first {q} steps, {tail:.6g} over the last)")
    for i, other in enumerate(rounds[1:], start=2):
        if list(other) != list(first):
            out.append(f"train: round {i} losses differ from round 1 under the same seed")
    return out


def directional_derivative(fd: float, analytic: float) -> list[str]:
    """Central difference of the NCE loss against the analytic gradient along one direction."""
    if not (math.isfinite(fd) and math.isfinite(analytic)):
        return [f"train: non-finite directional derivative (fd={fd}, analytic={analytic})"]
    if abs(fd - analytic) > FD_RTOL * max(abs(fd), abs(analytic)) + 1e-12:
        return [f"train: finite difference {fd:.10g} != analytic gradient {analytic:.10g}"]
    return []


# --- refine --------------------------------------------------------------

def refine_traces(traces, steps: int, step_size: float, decay: float) -> list[str]:
    """Per-detection ascent traces (rows with iteration, current_value,
    proposal_value, accepted, step_size)."""
    out = []
    for d, trace in enumerate(traces):
        if len(trace) != steps:
            out.append(f"refine: det {d} ran {len(trace)} iterations, expected {steps}")
            continue
        lam = step_size
        cur = trace[0].current_value if trace else None
        for row in trace:
            if row.step_size != lam:
                out.append(f"refine: det {d} iteration {row.iteration} step {row.step_size!r}, expected {lam!r}")
                break
            if row.current_value != cur:
                out.append(f"refine: det {d} iteration {row.iteration} starts from a value it did not accept")
                break
            if row.accepted:
                if not row.proposal_value > row.current_value:
                    out.append(f"refine: det {d} iteration {row.iteration} accepted a step that did not raise f")
                    break
                cur = row.proposal_value
            else:
                lam = lam * decay
    return out


def refine_energies(f_initial, f_refined) -> list[str]:
    """f(refined) >= f(initial) for every detection."""
    return [f"refine: det {i} ends at f={b!r} below its initial f={a!r}"
            for i, (a, b) in enumerate(zip(f_initial, f_refined)) if not b >= a]


def refine_progress(f_initial, f_refined) -> list[str]:
    """Refinement moves boxes uphill: at least MIN_UPHILL of the detections
    end strictly above their initial f. A refinement that rejects every
    proposal, as one with its gradient's sign flipped does, fails here."""
    up = sum(b > a for a, b in zip(f_initial, f_refined))
    if up < MIN_UPHILL * len(f_initial):
        return [f"refine: only {up} of {len(f_initial)} detections strictly raised f"]
    return []


def refine_passes(grad_passes, forward_passes, steps: int) -> list[str]:
    """At most T gradient passes and 2T forward passes per detection."""
    out = []
    for d, (g, f) in enumerate(zip(grad_passes, forward_passes)):
        if g > steps or f > 2 * steps:
            out.append(f"refine: det {d} used {g} gradient and {f} forward passes (T={steps})")
    return out


def parse_result_boxes(text: str):
    """(boxes (N, 7) in the library's world frame, scores) from KITTI result
    text, converted here rather than by the program's parser."""
    rows, scores = [], []
    for line in text.splitlines():
        tok = line.split()
        if len(tok) != 16:
            raise ValueError(f"result line has {len(tok)} fields: {line!r}")
        h, w, l, x, y, z, ry, score = (float(t) for t in tok[8:16])
        rows.append((z, -x, -y + h / 2.0, h, w, l, -ry - math.pi / 2.0))
        scores.append(score)
    return np.array(rows).reshape(-1, 7), np.array(scores)


def refine_outputs(initial, refined, result_text: str) -> list[str]:
    """`initial`/`refined`: (boxes (N, 7), scores (N,)) of one scene.

    Scores and order must be unchanged (each refined box lies nearest its
    own initial box), and the written result file must parse back to the
    refined boxes within the file's 6 decimals.
    """
    out = []
    b0, s0 = initial
    b1, s1 = refined
    if len(b1) != len(b0) or not np.array_equal(s0, s1):
        return ["refine: detection count or scores changed"]
    if len(b0) > 1:
        dist = np.linalg.norm(b1[:, None, :2] - b0[None, :, :2], axis=2)
        if not np.array_equal(dist.argmin(axis=1), np.arange(len(b0))):
            out.append("refine: detection order changed")
    fb, fs = parse_result_boxes(result_text)
    if fb.shape != b1.shape:
        return out + [f"refine: result file holds {len(fb)} boxes, expected {len(b1)}"]
    diff = np.abs(fb - b1)
    diff[:, 6] = np.abs((fb[:, 6] - b1[:, 6] + math.pi) % (2 * math.pi) - math.pi)
    if diff.max(initial=0.0) > FILE_ATOL:
        out.append(f"refine: result file differs from the refined boxes by {diff.max():.3g}")
    if np.abs(fs - s1).max(initial=0.0) > FILE_ATOL:
        out.append("refine: result file scores differ from the detection scores")
    return out


# --- eval_kitti ----------------------------------------------------------

def read_csv(text: str) -> list[list[str]]:
    """Rows of an eval CSV, without its comment line and header."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def eval_tables(ap_text: str, pr_text: str, expected: dict) -> list[str]:
    """`expected`: (mode, threshold, difficulty) -> (ap, 40 interpolated
    precisions), from exact rational arithmetic."""
    out = []
    ap_rows = {(r[0], float(r[1]), r[2]): float(r[4]) for r in read_csv(ap_text)}
    pr_rows = {(r[0], float(r[1]), r[2]): [float(x) for x in r[4:]]
               for r in read_csv(pr_text) if r[3] == "refined"}
    if set(ap_rows) != set(expected) or set(pr_rows) != set(expected):
        return [f"eval: table keys differ from the expected {len(expected)} (mode, threshold, difficulty) rows"]
    recalls = [i / 40 for i in range(1, 41)]
    for key, (ap, precisions) in expected.items():
        if abs(ap_rows[key] - ap) > TABLE_ATOL:
            out.append(f"eval: ap.csv {key} = {ap_rows[key]!r}, expected {ap!r}")
        row = pr_rows[key]
        want = [ap] + [x for pair in zip(recalls, precisions) for x in pair]
        if len(row) != len(want) or max(abs(a - b) for a, b in zip(row, want)) > TABLE_ATOL:
            out.append(f"eval: pr.csv {key} differs from the expected curve")
    return out
