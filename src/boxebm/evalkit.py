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
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InputError
from .geometry import Box3D, box_rows, pair_iou

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
# `pair_iou` call: bounds the temporaries of both
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

    def passes(self, difficulty: str | None) -> bool:
        """Whether this ground truth counts at the given difficulty level.

        Without metadata nothing is filtered (synthetic scenes).
        """
        if difficulty in (None, "", "all"):
            return True
        if difficulty not in DIFFICULTY_GATES:
            raise InputError(f"unknown difficulty {difficulty!r}")
        if not self.has_difficulty_meta:
            return True
        min_h, max_occ, max_trunc = DIFFICULTY_GATES[difficulty]
        return self.bbox_height >= min_h and self.occlusion <= max_occ and self.truncation <= max_trunc


class ScoredBox(NamedTuple):
    """A detection as evaluation sees it: AP depends only on the order of
    scores, so any finite score is accepted."""

    box: Box3D
    score: float


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


def average_precision(tp_flags, scores, num_gt: int) -> APResult:
    """Interpolated AP over the fixed recall positions.

    tp_flags/scores describe the pooled non-ignored detections.
    """
    if num_gt < 1:
        raise InputError("average precision undefined without ground truths")
    tp_flags = np.asarray(tp_flags, dtype=bool)
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(-scores, kind="stable")
    tp_cum = np.cumsum(tp_flags[order])
    k = np.arange(1, len(order) + 1)
    # operating points come from sweeping the score threshold, so a group of
    # tied scores enters or leaves as one unit (last index of each tie group)
    s = scores[order]
    if len(s):
        boundary = np.append(s[:-1] != s[1:], True)
        tp_cum, k = tp_cum[boundary], k[boundary]
    recalls = tp_cum / num_gt
    precisions = tp_cum / k
    # interpolated precision at r: the best precision at any recall >= r
    # (up to rounding); recall never decreases, so that is a suffix maximum
    best_from = np.append(np.maximum.accumulate(precisions[::-1])[::-1], 0.0)
    interp = best_from[np.searchsorted(recalls, RECALL_POSITIONS - 1e-12, side="left")]
    ap = math.fsum(interp.tolist()) / len(RECALL_POSITIONS)
    curve = list(zip(RECALL_POSITIONS.tolist(), interp.tolist()))
    return APResult(ap=ap, pr_curve=curve, num_gt=num_gt)


def relative_gain(initial: float, refined: float) -> float:
    """(refined - initial) / initial: 0.0 when both APs are 0, inf when
    only the initial one is."""
    if initial == 0.0:
        return float("inf") if refined > 0 else 0.0
    return (refined - initial) / initial


def evaluate(dets_by_scene: dict, gts_by_scene: dict, modes=EvalConfig.modes,
             thresholds=EvalConfig.thresholds, difficulties=EvalConfig.difficulties) -> dict:
    """Pooled AP per (mode, threshold, difficulty) across aligned scenes.

    Detections have `.box` and a finite `.score` (`ScoredBox`, `Detection`).
    Returns {(mode, threshold, difficulty): APResult}.
    """
    missing = sorted(set(dets_by_scene) - set(gts_by_scene))
    if missing:
        raise InputError(f"unknown scene ids in detections: {missing}")
    for mode in modes:
        if mode not in MODES:
            raise InputError(f"unknown mode {mode!r}; expected one of {MODES}")
    sids = sorted(gts_by_scene)
    dets = [dets_by_scene.get(sid, []) for sid in sids]
    gts = [gts_by_scene[sid] for sid in sids]
    # pooled in scene id, then input order
    flat_dets = [d for scene in dets for d in scene]
    flat_gts = [gt for scene in gts for gt in scene]
    det_rows, gt_rows = box_rows([d.box for d in flat_dets]), box_rows([gt.box for gt in flat_gts])
    pooled_scores = np.array([d.score for d in flat_dets], dtype=float)
    valid = np.array([[gt.passes(diff) for gt in flat_gts] for diff in difficulties],
                     dtype=bool).reshape(len(difficulties), len(flat_gts))  # (K, pooled ground truths)
    num_gt = valid.sum(axis=1)
    # Scenes with detections, grouped by the bit lengths of their detection
    # and ground-truth counts, so that padding a group to its longest scene
    # at most doubles either count; then split into passes of at most
    # PAIR_BLOCK padded pairs (or one scene). Work and memory follow the
    # scenes' sizes, not the largest scene's.
    n_det = np.array([len(scene) for scene in dets], dtype=int)
    n_gt = np.array([len(scene) for scene in gts], dtype=int)
    groups = {}
    for s in np.flatnonzero(n_det).tolist():
        groups.setdefault((int(n_det[s]).bit_length(), int(n_gt[s]).bit_length()), []).append(s)
    passes = []
    for members in groups.values():
        step = max(1, PAIR_BLOCK // (n_det[members].max() * max(n_gt[members].max(), 1)))
        passes += [members[k:k + step] for k in range(0, len(members), step)]
    results = {}
    for mode in modes:
        labels = np.full((len(flat_dets), len(difficulties), len(thresholds)), FP, dtype=int)
        for members in passes:
            # pooled indices (M, D) and (M, G), padded with -1; IoUs (M, D, G)
            # of the pairs in one kernel call, padded with NaN, which clears
            # no threshold
            det_ix, gt_ix = _padded_index(n_det, members), _padded_index(n_gt, members)
            has_det = det_ix >= 0
            pairs = has_det[:, :, None] & (gt_ix[:, None, :] >= 0)
            iou = np.full(pairs.shape, np.nan)
            iou[pairs] = pair_iou(det_rows[np.broadcast_to(det_ix[:, :, None], pairs.shape)[pairs]],
                                  gt_rows[np.broadcast_to(gt_ix[:, None, :], pairs.shape)[pairs]], mode)
            scores = np.where(has_det, pooled_scores[det_ix], 0.0)
            pass_valid = (valid[:, gt_ix] & (gt_ix >= 0)).transpose(1, 0, 2)
            labels[det_ix[has_det]] = _match_scenes(scores, iou, thresholds, pass_valid)[has_det]
        labels = labels.transpose(1, 2, 0)  # (K, T, pooled detections)
        for k, difficulty in enumerate(difficulties):
            for t, thr in enumerate(thresholds):
                keep = labels[k, t] != IGNORED
                results[(mode, thr, difficulty)] = average_precision(
                    labels[k, t, keep] == TP, pooled_scores[keep], int(num_gt[k]))
    return results
