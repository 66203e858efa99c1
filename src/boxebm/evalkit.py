"""Detection evaluation: greedy matching and 40-recall-position average precision.

Matching follows the common devkit protocol: detections in descending
score order (ties by input order) claim the unmatched ground truth with
highest IoU; a claim is a true positive only if that IoU clears the
threshold. Ground truths filtered out by a difficulty gate are "ignored":
they do not count toward recall, and detections matched to them count
neither as true nor as false positives. AP is computed on matches pooled
across scenes, as the mean of interpolated precision at the 40 recall
positions {1/40, ..., 1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .geometry import Box3D, box_rows, pair_ious

RECALL_POSITIONS = np.arange(1, 41) / 40.0

# difficulty -> (min 2D bbox height px, max occlusion, max truncation)
DIFFICULTY_GATES = {
    "easy": (40.0, 0, 0.15),
    "moderate": (25.0, 1, 0.30),
    "hard": (25.0, 2, 0.50),
}

MODES = ("3d", "bev")

# per-detection match labels
TP, FP, IGNORED = 1, 0, -1

# padded (detection, ground truth) slots per matching pass, which makes one
# `pair_ious` call: bounds the temporaries of both
PAIR_BLOCK = 1 << 15


@dataclass(frozen=True)
class EvalConfig:
    thresholds: tuple = (0.7, 0.75, 0.8, 0.85, 0.9)
    modes: tuple = MODES
    difficulties: tuple = ("all",)

    def __post_init__(self):
        if not self.thresholds or not all(0.0 < t <= 1.0 for t in self.thresholds):
            raise ConfigError(f"IoU thresholds must be in (0, 1], got {self.thresholds}")
        if not self.modes or not set(self.modes) <= set(MODES):
            raise ConfigError(f"eval.modes must be one or more of {MODES}, got {self.modes}")
        levels = ("all", *DIFFICULTY_GATES)
        if not self.difficulties or not set(self.difficulties) <= set(levels):
            raise ConfigError(f"eval.difficulties must be one or more of {levels}, got {self.difficulties}")


@dataclass(frozen=True)
class GroundTruth:
    box: Box3D
    bbox_height: float | None = None  # 2D image box height, pixels
    occlusion: int | None = None  # 0..3
    truncation: float | None = None  # [0, 1]

    def __post_init__(self):
        if self.bbox_height is not None and not 0.0 <= self.bbox_height < math.inf:
            raise InputError(f"bbox_height must be finite and >= 0, got {self.bbox_height}")
        if self.occlusion is not None and self.occlusion not in (0, 1, 2, 3):
            raise InputError(f"occlusion must be in 0..3, got {self.occlusion}")
        if self.truncation is not None and not 0.0 <= self.truncation <= 1.0:
            raise InputError(f"truncation must be in [0, 1], got {self.truncation}")

    @property
    def has_difficulty_meta(self) -> bool:
        return self.bbox_height is not None and self.occlusion is not None and self.truncation is not None

    @property
    def meta(self) -> tuple:
        """Difficulty columns (bbox height, occlusion, truncation), NaN where unknown."""
        return tuple(math.nan if v is None else float(v) for v in (self.bbox_height, self.occlusion, self.truncation))


def difficulty_mask(meta: np.ndarray, difficulties) -> np.ndarray:
    """Which of G ground truths count at each of K difficulty levels (K, G),
    from their difficulty columns meta (G, 3): 2D box height, occlusion and
    truncation. A row with a NaN (no metadata: synthetic scenes) counts at
    every level."""
    height, occlusion, truncation = meta.T
    out = np.ones((len(difficulties), len(meta)), dtype=bool)
    unknown = np.isnan(meta).any(axis=1)
    for k, difficulty in enumerate(difficulties):
        if difficulty in (None, "", "all"):
            continue
        if difficulty not in DIFFICULTY_GATES:
            raise InputError(f"unknown difficulty {difficulty!r}")
        min_h, max_occ, max_trunc = DIFFICULTY_GATES[difficulty]
        out[k] = unknown | ((height >= min_h) & (occlusion <= max_occ) & (truncation <= max_trunc))
    return out


@dataclass(frozen=True)
class APResult:
    ap: float
    pr_curve: list  # 40 (recall, precision) pairs
    num_gt: int = 0


def _padded_index(counts: np.ndarray, members: list) -> np.ndarray:
    """Pooled indices (M, N) of the items of the M scenes `members`, one row
    per scene padded with -1 to the longest, N; items are pooled in scene
    order and counts (S,) holds every scene's item count."""
    n = counts[members]
    start = (np.cumsum(counts) - counts)[members]
    slot = np.arange(n.max(initial=0))
    return np.where(slot < n[:, None], start[:, None] + slot, -1)


def _match_scenes(scores: np.ndarray, iou: np.ndarray, thresholds, valid: np.ndarray) -> np.ndarray:
    """Labels (S, D, K, T) of S scenes' detections for T thresholds and K difficulties at once.

    scores (S, D) and iou (S, D, G) hold each scene's detections and ground
    truths, padded with NaN IoUs, which clear no threshold; valid (S, K, G)
    says which ground truths count at each difficulty. In each scene,
    detections go in descending score order (ties by input order). Each
    claims the unclaimed ground truth of highest IoU at or above the
    threshold (the lowest index among equals): a valid one if there is any
    (TP), else an ignored one (IGNORED). Step r handles every scene's r-th
    detection in that order.
    """
    n_scenes, n_dets, n_gts = iou.shape
    labels = np.full((n_scenes, n_dets, valid.shape[1], len(thresholds)), FP, dtype=int)
    taken = np.zeros((n_scenes, valid.shape[1], len(thresholds), n_gts), dtype=bool)
    if n_gts == 0:  # nothing to claim: every detection is FP
        return labels
    thresholds = np.asarray(thresholds, dtype=float)[:, None]
    valid = valid[:, :, None, :]
    scene = np.arange(n_scenes)
    order = np.argsort(-scores, axis=1, kind="stable")
    for di in order.T:
        row = iou[scene, di][:, None, None, :]
        open_ = (row >= thresholds) & ~taken
        open_valid = open_ & valid
        has_valid = open_valid.any(axis=-1)
        pool = np.where(has_valid[..., None], open_valid, open_)
        found = pool.any(axis=-1)
        best = np.where(pool, row, -np.inf).argmax(axis=-1)
        ss, ks, ts = np.nonzero(found)
        taken[ss, ks, ts, best[ss, ks, ts]] = True
        labels[scene, di] = np.where(has_valid, TP, np.where(found, IGNORED, FP))
    return labels


def _interp_precisions(scores: np.ndarray, tp: np.ndarray, kept: np.ndarray, num_gt: np.ndarray) -> np.ndarray:
    """Interpolated precisions (C, 40) at the recall positions of C columns
    over one pool of N detections with scores (N,): tp and kept (C, N) mark
    each column's true positives and its counted (not ignored) detections,
    num_gt (C,) its ground-truth count.

    One stable score sort serves every column: restricted to a column's
    kept detections it is the stable sort of their scores.
    """
    if (num_gt < 1).any():
        raise InputError("average precision undefined without ground truths")
    out = np.zeros((len(tp), len(RECALL_POSITIONS)))
    if not len(scores):
        return out
    order = np.argsort(-scores, kind="stable")
    s, tp, kept = scores[order], tp[:, order], kept[:, order]
    tp_cum, k = np.cumsum(tp, axis=1), np.cumsum(kept, axis=1)
    # operating points come from sweeping the score threshold, so a group of
    # tied scores enters or leaves as one unit: a column's operating points
    # are its last kept detection of each tie group
    group_last = np.flatnonzero(np.append(s[:-1] != s[1:], True))
    group_end = np.repeat(group_last, np.diff(group_last, prepend=-1))
    point = kept & (k == k[:, group_end])
    precision = np.zeros(tp_cum.shape)
    np.divide(tp_cum, k, out=precision, where=point)
    # interpolated precision at r: the best precision at any operating point
    # whose recall tp_cum / num_gt is >= r (up to rounding); recall never
    # decreases, so that is a suffix maximum from the first detection that
    # reaches r, the need-th true positive
    best_from = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    need = np.zeros(out.shape, dtype=int)
    for n in np.unique(num_gt).tolist():
        need[num_gt == n] = np.searchsorted(np.arange(n + 1) / n, RECALL_POSITIONS - 1e-12, side="left")
    at = np.nonzero(tp)[1]  # positions of each column's true positives, column by column
    n_tp = tp_cum[:, -1]
    reached = need <= n_tp[:, None]
    c, r = np.nonzero(reached)
    out[c, r] = best_from[c, at[(np.cumsum(n_tp) - n_tp)[c] + need[c, r] - 1]]
    return out


def _ap_result(interp: list, num_gt: int) -> APResult:
    """The AP of one column's interpolated precisions, summed exactly."""
    return APResult(ap=math.fsum(interp) / len(RECALL_POSITIONS),
                    pr_curve=list(zip(RECALL_POSITIONS.tolist(), interp)), num_gt=num_gt)


def average_precision(tp_flags, scores, num_gt: int) -> APResult:
    """Interpolated AP over the fixed recall positions: one column of
    `_interp_precisions`.

    tp_flags/scores describe the pooled non-ignored detections.
    """
    tp = np.asarray(tp_flags, dtype=bool).reshape(1, -1)
    interp = _interp_precisions(np.asarray(scores, dtype=float), tp, np.ones_like(tp), np.array([num_gt]))
    return _ap_result(interp[0].tolist(), num_gt)


def relative_gain(initial: float, refined: float) -> float:
    """(refined - initial) / initial: 0.0 when both APs are 0, inf when
    only the initial one is."""
    if initial == 0.0:
        return float("inf") if refined > 0 else 0.0
    return (refined - initial) / initial


def evaluate_rows(dets_by_scene: dict, gts_by_scene: dict, modes=EvalConfig.modes,
                  thresholds=EvalConfig.thresholds, difficulties=EvalConfig.difficulties) -> dict:
    """Pooled AP per (mode, threshold, difficulty) across aligned scenes, from arrays.

    dets_by_scene maps a scene id to detection box rows (D, 7) and finite
    scores (D,); gts_by_scene maps it to ground-truth box rows (G, 7) and
    difficulty columns (G, 3) (see `difficulty_mask`).
    Returns {(mode, threshold, difficulty): APResult}.
    """
    missing = sorted(set(dets_by_scene) - set(gts_by_scene))
    if missing:
        raise InputError(f"unknown scene ids in detections: {missing}")
    for mode in modes:
        if mode not in MODES:
            raise InputError(f"unknown mode {mode!r}; expected one of {MODES}")
    sids = sorted(gts_by_scene)
    dets = [dets_by_scene.get(sid, (np.zeros((0, 7)), np.zeros(0))) for sid in sids]
    gts = [gts_by_scene[sid] for sid in sids]
    # pooled in scene id, then input order
    det_rows = np.concatenate([np.zeros((0, 7)), *(rows for rows, _ in dets)])
    pooled_scores = np.concatenate([np.zeros(0), *(scores for _, scores in dets)])
    gt_rows = np.concatenate([np.zeros((0, 7)), *(rows for rows, _ in gts)])
    meta = np.concatenate([np.zeros((0, 3)), *(meta for _, meta in gts)])
    valid = difficulty_mask(meta, difficulties)  # (K, pooled ground truths)
    # Scenes with detections, grouped by the bit lengths of their detection
    # and ground-truth counts, so that padding a group to its longest scene
    # at most doubles either count; then split into passes of at most
    # PAIR_BLOCK padded pairs (or one scene). Work and memory follow the
    # scenes' sizes, not the largest scene's.
    n_det = np.array([len(s) for _, s in dets], dtype=int)
    n_gt = np.array([len(rows) for rows, _ in gts], dtype=int)
    groups = {}
    for s in np.flatnonzero(n_det).tolist():
        groups.setdefault((int(n_det[s]).bit_length(), int(n_gt[s]).bit_length()), []).append(s)
    passes = []
    for members in groups.values():
        step = max(1, PAIR_BLOCK // (n_det[members].max() * max(n_gt[members].max(), 1)))
        passes += [members[k:k + step] for k in range(0, len(members), step)]
    n_modes = len(modes)
    labels = np.full((n_modes, len(det_rows), len(difficulties), len(thresholds)), FP, dtype=int)
    for members in passes:
        # pooled indices (M, D) and (M, G), padded with -1; IoUs (modes, M, D, G)
        # of the pairs in one kernel call, padded with NaN, which clears no
        # threshold
        det_ix, gt_ix = _padded_index(n_det, members), _padded_index(n_gt, members)
        has_det = det_ix >= 0
        pairs = has_det[:, :, None] & (gt_ix[:, None, :] >= 0)
        iou = np.full((n_modes, *pairs.shape), np.nan)
        iou[:, pairs] = pair_ious(det_rows[np.broadcast_to(det_ix[:, :, None], pairs.shape)[pairs]],
                                  gt_rows[np.broadcast_to(gt_ix[:, None, :], pairs.shape)[pairs]], modes)
        scores = np.where(has_det, pooled_scores[det_ix], 0.0)
        pass_valid = (valid[:, gt_ix] & (gt_ix >= 0)).transpose(1, 0, 2)
        # every mode's scenes match in one rank loop, as scenes of their own
        got = _match_scenes(np.tile(scores, (n_modes, 1)), iou.reshape(n_modes * len(members), *pairs.shape[1:]),
                            thresholds, np.tile(pass_valid, (n_modes, 1, 1)))
        labels[:, det_ix[has_det]] = got.reshape(n_modes, *has_det.shape, *got.shape[2:])[:, has_det]
    # one column per (mode, difficulty, threshold) over the pooled detections
    columns = labels.transpose(0, 2, 3, 1).reshape(n_modes * len(difficulties) * len(thresholds), len(det_rows))
    num_gt = np.tile(np.repeat(valid.sum(axis=1), len(thresholds)), n_modes)
    interp = _interp_precisions(pooled_scores, columns == TP, columns != IGNORED, num_gt).tolist()
    keys = [(mode, thr, difficulty) for mode in modes for difficulty in difficulties for thr in thresholds]
    return {key: _ap_result(row, int(n)) for key, row, n in zip(keys, interp, num_gt)}


def evaluate(dets_by_scene: dict, gts_by_scene: dict, modes=EvalConfig.modes,
             thresholds=EvalConfig.thresholds, difficulties=EvalConfig.difficulties) -> dict:
    """`evaluate_rows` on scenes of objects: detections with `.box` and a
    finite `.score` (such as `Detection`) and `GroundTruth`s."""
    return evaluate_rows({sid: det_arrays(dets) for sid, dets in dets_by_scene.items()},
                         {sid: gt_arrays(gts) for sid, gts in gts_by_scene.items()},
                         modes, thresholds, difficulties)


def det_arrays(dets) -> tuple:
    """Box rows (D, 7) and scores (D,) of detections."""
    return box_rows([d.box for d in dets]), np.array([d.score for d in dets], dtype=float)


def gt_arrays(gts) -> tuple:
    """Box rows (G, 7) and difficulty columns (G, 3) of `GroundTruth`s."""
    return box_rows([gt.box for gt in gts]), np.array([gt.meta for gt in gts], dtype=float).reshape(len(gts), 3)
