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
from .geometry import Box3D, iou_matrix

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


@dataclass(frozen=True)
class EvalConfig:
    thresholds: tuple = (0.7, 0.75, 0.8, 0.85, 0.9)
    modes: tuple = MODES
    difficulties: tuple = ("all",)

    def __post_init__(self):
        if not self.thresholds or not all(0.0 < t <= 1.0 for t in self.thresholds):
            raise ConfigError(f"IoU thresholds must be in (0, 1], got {self.thresholds}")


@dataclass(frozen=True)
class GroundTruth:
    box: Box3D
    bbox_height: float | None = None  # 2D image box height, pixels
    occlusion: int | None = None  # 0..3
    truncation: float | None = None  # [0, 1]

    def __post_init__(self):
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


def _match_scene(scores: np.ndarray, iou: np.ndarray, thresholds, valid: np.ndarray) -> np.ndarray:
    """Labels (K, T, D) of one scene for T thresholds and K difficulties at once.

    scores (D,) and iou (D, G) describe the scene; valid (K, G) says which
    ground truths count at each difficulty. Detections go in descending
    score order (ties by input order). Each claims the unclaimed ground
    truth of highest IoU at or above the threshold (the lowest index among
    equals): a valid one if there is any (TP), else an ignored one (IGNORED).
    """
    labels = np.full((len(valid), len(thresholds), len(scores)), FP, dtype=int)
    taken = np.zeros((len(valid), len(thresholds), iou.shape[1]), dtype=bool)
    thresholds = np.asarray(thresholds, dtype=float)[:, None]
    valid = valid[:, None, :]
    # a detection below every threshold on every ground truth stays FP
    hits = (iou >= np.min(thresholds, initial=np.inf)).any(axis=1)
    for di in np.argsort(-scores, kind="stable"):
        if not hits[di]:
            continue
        row = iou[di]
        open_ = (row >= thresholds) & ~taken
        open_valid = open_ & valid
        has_valid = open_valid.any(axis=-1)
        pool = np.where(has_valid[..., None], open_valid, open_)
        found = pool.any(axis=-1)
        best = np.where(pool, row, -np.inf).argmax(axis=-1)
        ks, ts = np.nonzero(found)
        taken[ks, ts, best[ks, ts]] = True
        labels[..., di] = np.where(has_valid, TP, np.where(found, IGNORED, FP))
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
    scenes = []
    for sid in sorted(gts_by_scene):
        dets = dets_by_scene.get(sid, [])
        gts = gts_by_scene[sid]
        valid = np.array([[gt.passes(diff) for gt in gts] for diff in difficulties],
                         dtype=bool).reshape(len(difficulties), len(gts))
        scenes.append(([d.box for d in dets], np.array([d.score for d in dets], dtype=float),
                       [gt.box for gt in gts], valid))
    num_gt = sum((valid.sum(axis=1) for *_, valid in scenes), np.zeros(len(difficulties), dtype=int))
    scores = np.concatenate([np.empty(0)] + [s for _, s, _, _ in scenes])
    results = {}
    for mode in modes:
        # (K, T, pooled detections): scenes in id order, detections in input order
        labels = np.concatenate(
            [np.empty((len(difficulties), len(thresholds), 0), dtype=int)]
            + [_match_scene(s, iou_matrix(dets, gts, mode), thresholds, valid)
               for dets, s, gts, valid in scenes],
            axis=-1,
        )
        for k, difficulty in enumerate(difficulties):
            for t, thr in enumerate(thresholds):
                keep = labels[k, t] != IGNORED
                results[(mode, thr, difficulty)] = average_precision(
                    labels[k, t, keep] == TP, scores[keep], int(num_gt[k]))
    return results
