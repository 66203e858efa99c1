"""`eval_kitti` workload: in-process `boxebm eval --kitti-gt --dets`.

Set-up writes KITTI label and result files, not synthetic BEV scenes, so
only text parsing, polygon IoU, greedy matching and AP run, with no
network. Every scene is crowded and has the same make-up (GT_PER_SCENE
cars, DETS_PER_GT detections on them, FAR_FP far false positives, two
DontCare lines), so every invocation does the same amount of work.

Every detection copies the size and heading of its ground truth and is
shifted in the box frame: a along the heading, b across it, c vertically.
Two congruent boxes with the same heading overlap in a rectangle, so

    I = (l - |a|)(w - |b|),   IoU_bev = I / (2lw - I),
    V = I (h - |c|),          IoU_3d  = V / (2lwh - V),

computed here from the numbers as written to the files. Shifts are drawn
until both IoUs lie at least MARGIN from every threshold, so rounding to
6 decimals cannot move a match. Cars sit in distinct cells of an 8 m
lattice, far enough apart that every other (detection, ground truth)
pair has IoU 0. From these IoUs the expected AP table and PR curves are
computed with exact rational arithmetic.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import time
import traceback
from fractions import Fraction

import numpy as np

from boxebm import cli

import checks
from common import p50_ms, p90_ms

MODES = ("3d", "bev")
THRESHOLDS = (0.7, 0.75, 0.8, 0.85, 0.9)
DIFFICULTIES = ("easy", "moderate", "hard")
SETUP_REPEATS = 9  # set-up takes about 0.45 s, so its median rests on several
MARGIN = 1e-3

N_DIRS = 24  # one `boxebm eval` invocation per directory
SCENES_PER_DIR = 10
GT_PER_SCENE = 10
DETS_PER_GT = (0, 1, 1, 1, 1, 1, 1, 2, 2, 3)  # misses, single hits and duplicates
GT_CLASS_MIX = (0, 0, 0, 0, 1, 1, 2, 2, 3, 4)  # indices into GT_CLASSES, one per ground truth
FAR_FP = 2
DONT_CARE = 2

CELL = 8.0  # m; lattice cell size in the camera x-z plane
COLS, ROWS = 5, 8
JITTER = 0.25  # m
SHIFT = (0.6, 0.3, 0.2)  # largest |a|, |b|, |c| in m

# KITTI difficulty gates: (min 2D box height px, max occlusion, max truncation)
GATES = {"easy": (40.0, 0, 0.15), "moderate": (25.0, 1, 0.30), "hard": (25.0, 2, 0.50)}
# Ground-truth classes: (2D box height range px, occlusion, truncation range),
# chosen away from every gate boundary.
GT_CLASSES = (
    ((45.0, 120.0), 0, (0.0, 0.10)),  # counts at every difficulty
    ((27.0, 38.0), 1, (0.0, 0.10)),  # moderate and hard
    ((45.0, 120.0), 2, (0.35, 0.48)),  # hard only
    ((45.0, 120.0), 3, (0.0, 0.10)),  # ignored everywhere
    ((12.0, 22.0), 0, (0.0, 0.10)),  # ignored everywhere
)


def passes(gt, difficulty: str) -> bool:
    min_h, max_occ, max_trunc = GATES[difficulty]
    return gt["height"] >= min_h and gt["occ"] <= max_occ and gt["trunc"] <= max_trunc


def r6(x: float) -> float:
    """The value a 6-decimal text field reads back as."""
    return float(f"{x:.6f}")


def closed_form_iou(gt, det):
    """(IoU_3d, IoU_bev) of a detection with the heading and size of `gt`."""
    yaw = -gt["ry"] - math.pi / 2.0
    dcx, dcy = det["z"] - gt["z"], -(det["x"] - gt["x"])  # world frame: cx = z, cy = -x
    a = abs(math.cos(yaw) * dcx + math.sin(yaw) * dcy)
    b = abs(-math.sin(yaw) * dcx + math.cos(yaw) * dcy)
    c = abs(det["y"] - gt["y"])
    l, w, h = gt["l"], gt["w"], gt["h"]
    inter = (l - a) * (w - b)
    vol = inter * (h - c)
    return vol / (2 * l * w * h - vol), inter / (2 * l * w - inter)


def far_from_thresholds(iou: float) -> bool:
    return all(abs(iou - t) >= MARGIN for t in THRESHOLDS)


def gen_scene(rng: np.random.Generator):
    """Ground truths (dicts), detections (dicts, `gt` index or None) and DontCare boxes."""
    cells = rng.permutation(COLS * ROWS)[:GT_PER_SCENE + FAR_FP]
    gts = []
    for cell, cls in zip(cells[:GT_PER_SCENE], rng.permutation(GT_CLASS_MIX)):
        (h_lo, h_hi), occ, (t_lo, t_hi) = GT_CLASSES[cls]
        x = (cell % COLS - (COLS - 1) / 2) * CELL + rng.uniform(-JITTER, JITTER)
        z = 6.0 + (cell // COLS) * CELL + rng.uniform(-JITTER, JITTER)
        top = r6(rng.uniform(150.0, 200.0))
        gts.append(dict(
            h=r6(rng.uniform(1.4, 1.8)), w=r6(rng.uniform(1.5, 1.9)), l=r6(rng.uniform(3.4, 4.6)),
            x=r6(x), y=r6(rng.uniform(1.55, 1.8)), z=r6(z), ry=r6(rng.uniform(-math.pi, math.pi)),
            top=top, bottom=r6(top + rng.uniform(h_lo, h_hi)), occ=occ, trunc=r6(rng.uniform(t_lo, t_hi)),
        ))
        gts[-1]["height"] = gts[-1]["bottom"] - gts[-1]["top"]
    dets = []
    # shift sizes are stratified over the scene's detections, so every
    # scene has the same spread of IoUs
    strata = iter(rng.permutation(sum(DETS_PER_GT)))
    for g, n in zip(range(GT_PER_SCENE), rng.permutation(DETS_PER_GT)):
        gt = gts[g]
        yaw = -gt["ry"] - math.pi / 2.0
        for _ in range(n):
            stratum = next(strata)
            while True:
                s = (stratum + rng.uniform(0.0, 1.0)) / sum(DETS_PER_GT)
                a, b, c = (s * m * rng.uniform(-1.0, 1.0) for m in SHIFT)
                det = dict(x=r6(gt["x"] - (a * math.sin(yaw) + b * math.cos(yaw))),
                           y=r6(gt["y"] + c),
                           z=r6(gt["z"] + a * math.cos(yaw) - b * math.sin(yaw)), gt=g)
                iou3d, ioubev = closed_form_iou(gt, det)
                if far_from_thresholds(iou3d) and far_from_thresholds(ioubev):
                    break
            det.update(iou={"3d": iou3d, "bev": ioubev}, h=gt["h"], w=gt["w"], l=gt["l"], ry=gt["ry"])
            dets.append(det)
    for cell in cells[GT_PER_SCENE:]:
        dets.append(dict(
            x=r6((cell % COLS - (COLS - 1) / 2) * CELL), y=r6(rng.uniform(1.55, 1.8)),
            z=r6(6.0 + (cell // COLS) * CELL), h=r6(rng.uniform(1.4, 1.8)), w=r6(rng.uniform(1.5, 1.9)),
            l=r6(rng.uniform(3.4, 4.6)), ry=r6(rng.uniform(-math.pi, math.pi)), gt=None,
            iou={"3d": 0.0, "bev": 0.0},
        ))
    order = rng.permutation(len(dets))  # detection order in the file is arbitrary
    return gts, [dets[i] for i in order]


def assign_scores(scenes, rng: np.random.Generator):
    """Distinct 6-decimal scores in (0, 1), higher for better-placed detections."""
    dets = [d for _, ds in scenes for d in ds]
    raw = np.array([8.0 * (d["iou"]["3d"] - 0.6) for d in dets]) + rng.normal(0.0, 1.5, len(dets))
    ticks = np.sort(rng.choice(np.arange(1, 1_000_000), size=len(dets), replace=False))
    for d, tick in zip(dets, ticks[np.argsort(np.argsort(raw))]):
        d["score"] = int(tick) / 1e6


def label_line(kind: str, trunc, occ, bbox, d, score=None) -> str:
    alpha = (d["ry"] - math.atan2(d["x"], d["z"]) + math.pi) % (2 * math.pi) - math.pi
    nums = [trunc, occ, alpha, *bbox, d["h"], d["w"], d["l"], d["x"], d["y"], d["z"], d["ry"]]
    if score is not None:
        nums.append(score)
    return kind + " " + " ".join(f"{v:.6f}" for v in nums) + "\n"


def write_dir(scenes, rng, root):
    (root / "label").mkdir(parents=True)
    (root / "dets").mkdir()
    for sid, (gts, dets) in enumerate(scenes):
        lines = [label_line("Car", g["trunc"], g["occ"], (600.0, g["top"], 680.0, g["bottom"]), g) for g in gts]
        for _ in range(DONT_CARE):
            left, top = rng.uniform(0, 1100), rng.uniform(150, 250)
            lines.append(f"DontCare -1 -1 -10 {left:.2f} {top:.2f} {left + 40:.2f} {top + 20:.2f} "
                         "-1 -1 -1 -1000 -1000 -1000 -10\n")
        (root / "label" / f"{sid:06d}.txt").write_text("".join(lines))
        (root / "dets" / f"{sid:06d}.txt").write_text(
            "".join(label_line("Car", 0.0, 0, (0.0, 0.0, 0.0, 0.0), d, d["score"]) for d in dets))


def setup(seed: int, work):
    """[(directory, scenes)]: N_DIRS directories of KITTI label and result files."""
    root = work / "kitti"
    rng = np.random.default_rng(seed)
    datasets = []
    for k in range(N_DIRS):
        scenes = [gen_scene(rng) for _ in range(SCENES_PER_DIR)]
        assign_scores(scenes, rng)
        write_dir(scenes, rng, root / f"set{k:02d}")
        datasets.append((root / f"set{k:02d}", scenes))
    return datasets


def expected_tables(scenes) -> dict:
    """(mode, threshold, difficulty) -> (AP, 40 interpolated precisions),
    from the closed-form IoUs with exact rational arithmetic."""
    out = {}
    for mode in MODES:
        for thr in THRESHOLDS:
            for diff in DIFFICULTIES:
                pooled, num_gt = [], 0
                for gts, dets in scenes:
                    num_gt += sum(passes(g, diff) for g in gts)
                    taken = set()
                    for d in sorted(dets, key=lambda d: -d["score"]):
                        g = d["gt"]
                        if g is not None and g not in taken and d["iou"][mode] >= thr:
                            taken.add(g)
                            if passes(gts[g], diff):
                                pooled.append((d["score"], True))
                        else:
                            pooled.append((d["score"], False))
                pooled.sort(key=lambda p: -p[0])
                hits = np.cumsum([hit for _, hit in pooled]).tolist()
                # best precision over all operating points from k on
                best = [Fraction(0)] * (len(hits) + 1)
                for k in range(len(hits) - 1, -1, -1):
                    best[k] = max(best[k + 1], Fraction(hits[k], k + 1))
                # interpolated precision at recall i/40: best from the first
                # point whose recall hits[k] / num_gt reaches it
                interp, k = [], 0
                for i in range(1, 41):
                    while k < len(hits) and 40 * hits[k] < i * num_gt:
                        k += 1
                    interp.append(best[k])
                out[(mode, thr, diff)] = (float(sum(interp) / 40), [float(p) for p in interp])
    return out


def argv(root):
    return ["eval", "--kitti-gt", str(root / "label"), "--dets", str(root / "dets"),
            "--out", str(root / "eval"),
            "--set", "eval.modes=" + ",".join(MODES),
            "--set", "eval.thresholds=" + ",".join(map(str, THRESHOLDS)),
            "--set", "eval.difficulties=" + ",".join(DIFFICULTIES)]


def run_round(datasets, res) -> list[float]:
    """One `boxebm eval` per directory; the units are invocations."""
    call_s = []
    for root, _ in datasets:
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv(root))
        except Exception:  # a traceback instead of an error line still counts as one failure
            traceback.print_exc(file=sys.stderr)
            code = -1
        if code != 0:
            res.failed += 1
            continue
        call_s.append(time.perf_counter() - t0)
    return call_s


def finish(datasets, res, round_s, call_s) -> dict:
    aps = []
    for root, scenes in datasets:
        ap_text = (root / "eval" / "ap.csv").read_text()
        pr_text = (root / "eval" / "pr.csv").read_text()
        res.failures += checks.eval_tables(ap_text, pr_text, expected_tables(scenes))
        aps += [float(r[4]) for r in checks.read_csv(ap_text)]
    res.notes = {"rounds": len(round_s), "invocations": len(call_s), "scenes_per_invocation": SCENES_PER_DIR}
    return {
        "throughput_per_s": SCENES_PER_DIR * len(call_s) / sum(round_s),
        "latency_ms_p50": p50_ms(call_s),
        "latency_ms_p90": p90_ms(call_s),
        "quality": float(np.mean(aps)),
    }
