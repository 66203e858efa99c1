import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxebm import evalkit
from boxebm.errors import InputError
from boxebm.evalkit import (
    FP,
    IGNORED,
    TP,
    APResult,
    DIFFICULTY_GATES,
    GroundTruth,
    average_precision,
    evaluate,
    relative_gain,
)
from boxebm.evalkit import _match_scenes
from boxebm.geometry import Box3D, box_rows, iou_3d, iou_matrix, pair_iou
from boxebm.refine import Detection
from helpers import reference_match_scene


def car_at(cx, cy, yaw=0.0, cz=0.8, h=1.6, w=1.7, l=4.0):
    return Box3D(cx, cy, cz, h, w, l, yaw)


def det_at(cx, cy, score, **kw):
    return Detection(box=car_at(cx, cy, **kw), score=score)


def gt_at(cx, cy, **kw):
    return GroundTruth(box=car_at(cx, cy, **kw))


def match_greedy(dets, gts, threshold, difficulty=None):
    """Labels of one scene's detections at one threshold, in input order,
    from the matching kernel `evaluate` runs on the 3D IoU matrix."""
    scores = np.array([d.score for d in dets])
    iou = iou_matrix([d.box for d in dets], [gt.box for gt in gts], "3d")
    valid = np.array([[gt.passes(difficulty) for gt in gts]], dtype=bool)
    return match_one_scene(scores, iou, [threshold], valid)[0, 0]


def match_one_scene(scores, iou, thresholds, valid):
    """`_match_scenes` on a single scene, as labels (K, T, D)."""
    return _match_scenes(scores[None], iou[None], thresholds, valid[None])[0].transpose(1, 2, 0)


class TestMatchGreedy:
    def test_exact_hit(self):
        labels = match_greedy([det_at(0, 0, 0.9)], [gt_at(0, 0)], 0.7)
        assert labels.tolist() == [TP]

    def test_two_dets_one_gt(self):
        dets = [det_at(0, 0, 0.6), det_at(0.05, 0, 0.9)]
        labels = match_greedy(dets, [gt_at(0, 0)], 0.7)
        # higher-scored detection claims the ground truth
        assert labels.tolist() == [FP, TP]

    def test_iou_margin_above_threshold_is_irrelevant(self):
        # IoU 0.71-ish and 0.99-ish behave identically for the metric
        tight = [det_at(0.005, 0, 0.9)]
        loose = [det_at(0.30, 0, 0.9)]
        gt = [gt_at(0, 0)]
        assert iou_3d(loose[0].box, gt[0].box) > 0.7
        la = match_greedy(tight, gt, 0.7)
        lb = match_greedy(loose, gt, 0.7)
        assert la.tolist() == lb.tolist() == [TP]

    def test_each_gt_used_once(self):
        dets = [det_at(0, 0, 0.9), det_at(0.02, 0, 0.8), det_at(10, 0, 0.7)]
        gts = [gt_at(0, 0), gt_at(10, 0)]
        labels = match_greedy(dets, gts, 0.7)
        assert labels.tolist() == [TP, FP, TP]

    def test_ignored_gt(self):
        gts = [GroundTruth(box=car_at(0, 0), bbox_height=10.0, occlusion=3, truncation=0.9)]
        dets = [det_at(0, 0, 0.9)]
        labels = match_greedy(dets, gts, 0.7, difficulty="moderate")
        assert labels.tolist() == [IGNORED]

    def test_score_ties_broken_by_input_order(self):
        dets = [det_at(0, 0, 0.5), det_at(0.05, 0, 0.5)]
        labels = match_greedy(dets, [gt_at(0, 0)], 0.5)
        assert labels.tolist() == [TP, FP]


def reference_match(scores, iou, threshold, valid):
    """The per-threshold double loop the matching kernel replaced, kept as an oracle."""
    d, g = iou.shape
    labels = np.full(d, FP, dtype=int)
    taken = np.zeros(g, dtype=bool)
    for di in np.argsort(-scores, kind="stable"):
        best_valid, best_valid_iou = -1, -1.0
        best_ign, best_ign_iou = -1, -1.0
        for gi in range(g):
            if taken[gi]:
                continue
            v = iou[di, gi]
            if v < threshold:
                continue
            if valid[gi]:
                if v > best_valid_iou:
                    best_valid, best_valid_iou = gi, v
            elif v > best_ign_iou:
                best_ign, best_ign_iou = gi, v
        if best_valid >= 0:
            labels[di] = TP
            taken[best_valid] = True
        elif best_ign >= 0:
            labels[di] = IGNORED
            taken[best_ign] = True
    return labels


class TestMatchKernel:
    THRESHOLDS = (0.0, 0.25, 0.5, 0.7, 0.75, 0.9, 1.0)

    def test_matches_reference_loop(self, rng):
        for _ in range(300):
            d, g, k = int(rng.integers(0, 9)), int(rng.integers(0, 7)), int(rng.integers(1, 4))
            # IoUs from a small lattice that holds every threshold, so ties in
            # IoU and values exactly at a threshold are common
            iou = rng.choice([0.0, 0.25, 0.5, 0.6, 0.7, 0.75, 0.9, 1.0], size=(d, g))
            iou[rng.random((d, g)) < 0.2] = rng.uniform(0, 1)
            scores = rng.choice([0.2, 0.4, 0.6, 0.8], size=d)  # tied scores too
            valid = rng.random((k, g)) < 0.6
            labels = match_one_scene(scores, iou, self.THRESHOLDS, valid)
            assert labels.shape == (k, len(self.THRESHOLDS), d)
            for ki in range(k):
                for ti, thr in enumerate(self.THRESHOLDS):
                    expect = reference_match(scores, iou, thr, valid[ki])
                    assert labels[ki, ti].tolist() == expect.tolist()

    def test_evaluate_matches_reference_loop(self, rng):
        diffs = tuple(DIFFICULTY_GATES)
        gts, dets = {}, {}
        for sid in range(6):
            gts[sid] = [GroundTruth(box=car_at(4.0 * i, 0, yaw=float(rng.uniform(-0.2, 0.2))),
                                    bbox_height=float(rng.choice([20.0, 30.0, 60.0])),
                                    occlusion=int(rng.integers(0, 4)),
                                    truncation=float(rng.choice([0.1, 0.2, 0.4, 0.6])))
                        for i in range(int(rng.integers(0, 5)))]
            dets[sid] = [det_at(4.0 * rng.integers(0, 5) + rng.normal(0, 0.2), rng.normal(0, 0.2),
                                float(rng.choice([0.3, 0.5, 0.7, 0.9])))
                         for _ in range(int(rng.integers(0, 7)))]
        gts[0].append(GroundTruth(box=car_at(20.0, 0), bbox_height=60.0, occlusion=0, truncation=0.0))
        assert_evaluate_matches_reference(dets, gts, (0.5, 0.7), diffs)

    @pytest.mark.parametrize("pair_block", [1, 100, evalkit.PAIR_BLOCK])
    def test_skewed_scene_sizes(self, rng, monkeypatch, pair_block):
        # scenes from empty to one of 30 detections fall into several size
        # groups, most of them holding scenes of different sizes; a small
        # block splits a group into several passes
        monkeypatch.setattr(evalkit, "PAIR_BLOCK", pair_block)
        gts, dets = {}, {}
        for sid, (n_gt, n_det) in enumerate([(2, 3), (0, 2), (3, 0), (12, 30), (1, 1), (3, 2), (5, 9), (4, 4),
                                             (6, 7), (7, 5), (13, 20)]):
            gts[sid] = [GroundTruth(box=car_at(4.0 * i, 0, yaw=float(rng.uniform(-0.2, 0.2))),
                                    bbox_height=60.0, occlusion=int(rng.integers(0, 4)), truncation=0.0)
                        for i in range(n_gt)]
            dets[sid] = [det_at(4.0 * rng.integers(0, max(n_gt, 1)) + rng.normal(0, 0.2), rng.normal(0, 0.2),
                                float(rng.choice([0.3, 0.5, 0.7, 0.9])))
                         for _ in range(n_det)]
        assert_evaluate_matches_reference(dets, gts, (0.5, 0.7), ("all", "moderate"))


def assert_evaluate_matches_reference(dets, gts, thresholds, diffs):
    """`evaluate` gives, for every key, the AP of the per-threshold reference
    matcher run scene by scene on IoUs from one `pair_iou` call per mode
    over every (detection, ground truth) pair."""
    out = evaluate(dets, gts, modes=("3d", "bev"), thresholds=thresholds, difficulties=diffs)
    pairs = [(d.box, gt.box) for sid in sorted(gts) for d in dets[sid] for gt in gts[sid]]
    for mode in ("3d", "bev"):
        flat = pair_iou(*(box_rows(boxes) for boxes in zip(*pairs)), mode) if pairs else np.zeros(0)
        ious, at = {}, 0
        for sid in sorted(gts):
            size = len(dets[sid]) * len(gts[sid])
            ious[sid] = flat[at:at + size].reshape(len(dets[sid]), len(gts[sid]))
            at += size
        for diff in diffs:
            for thr in thresholds:
                flags, scores, num_gt = [], [], 0
                for sid in sorted(gts):
                    valid = np.array([gt.passes(diff) for gt in gts[sid]], dtype=bool)
                    num_gt += int(valid.sum())
                    s = np.array([d.score for d in dets[sid]])
                    labels = reference_match(s, ious[sid], thr, valid)
                    flags += (labels[labels != IGNORED] == TP).tolist()
                    scores += s[labels != IGNORED].tolist()
                expect = average_precision(flags, scores, num_gt)
                assert out[(mode, thr, diff)].pr_curve == expect.pr_curve
                assert out[(mode, thr, diff)].ap == expect.ap


@st.composite
def multi_scene_instance(draw):
    """Scenes of detection scores, IoUs and difficulty masks, with tied
    scores, IoUs tied with each other and with the thresholds, ignored
    ground truths, duplicate detections on one ground truth, and scenes
    without detections or without ground truths."""
    n_diff = draw(st.integers(1, 3))
    scenes = []
    for _ in range(draw(st.integers(1, 6))):
        d, g = draw(st.integers(0, 7)), draw(st.integers(0, 5))
        scores = np.array(draw(st.lists(st.sampled_from([0.2, 0.5, 0.8, 0.9]), min_size=d, max_size=d)))
        cell = st.one_of(st.sampled_from([0.0, 0.5, 0.7, 0.75, 0.9, 1.0]), st.floats(0.0, 1.0))
        iou = np.array(draw(st.lists(cell, min_size=d * g, max_size=d * g))).reshape(d, g)
        if d >= 2 and g >= 1 and draw(st.booleans()):  # two detections on one ground truth
            iou[1] = iou[0]
        valid = np.array(draw(st.lists(st.booleans(), min_size=n_diff * g, max_size=n_diff * g)),
                         dtype=bool).reshape(n_diff, g)
        scenes.append((scores, iou, valid))
    return scenes


class TestMatchScenes:
    THRESHOLDS = (0.0, 0.5, 0.7, 0.75, 0.9)

    @given(multi_scene_instance())
    @settings(max_examples=200, deadline=None)
    def test_equals_per_scene_matcher(self, scenes):
        n_dets = max(len(s) for s, _, _ in scenes)
        n_gts = max(iou.shape[1] for _, iou, _ in scenes)
        # padding: NaN IoUs, and scores that rank among the real ones
        scores = np.full((len(scenes), n_dets), 0.5)
        iou = np.full((len(scenes), n_dets, n_gts), np.nan)
        valid = np.zeros((len(scenes), len(scenes[0][2]), n_gts), dtype=bool)
        for k, (s, m, v) in enumerate(scenes):
            scores[k, :len(s)] = s
            iou[k, :m.shape[0], :m.shape[1]] = m
            valid[k, :, :m.shape[1]] = v
        labels = _match_scenes(scores, iou, self.THRESHOLDS, valid)
        assert labels.shape == (len(scenes), n_dets, len(valid[0]), len(self.THRESHOLDS))
        for k, (s, m, v) in enumerate(scenes):
            expect = reference_match_scene(s, m, self.THRESHOLDS, v)
            assert labels[k, :len(s)].transpose(1, 2, 0).tolist() == expect.tolist()


class TestAveragePrecision:
    def test_hand_example(self):
        # 2 GTs, [TP(.9), FP(.8), TP(.7)] -> precision 1.0 up to r=.5, 2/3 after
        res = average_precision([True, False, True], [0.9, 0.8, 0.7], num_gt=2)
        assert res.ap == pytest.approx(5 / 6, abs=1e-12)
        curve = dict(res.pr_curve)
        assert curve[0.5] == pytest.approx(1.0)
        assert curve[0.525] == pytest.approx(2 / 3)

    def test_perfect(self):
        res = average_precision([True, True], [0.9, 0.8], num_gt=2)
        assert res.ap == 1.0

    def test_no_detections(self):
        res = average_precision([], [], num_gt=3)
        assert res.ap == 0.0

    def test_zero_gt_rejected(self):
        with pytest.raises(InputError):
            average_precision([True], [0.9], num_gt=0)

    def test_curve_has_forty_positions(self):
        res = average_precision([True], [0.9], num_gt=1)
        assert len(res.pr_curve) == 40
        assert res.pr_curve[0][0] == pytest.approx(1 / 40)
        assert res.pr_curve[-1][0] == pytest.approx(1.0)


class TestRelativeGain:
    def test_zero_to_zero_is_no_gain(self):
        assert relative_gain(0.0, 0.0) == 0.0

    def test_zero_to_positive_is_infinite(self):
        assert relative_gain(0.0, 0.25) == float("inf")

    def test_ratio_of_change(self):
        assert relative_gain(0.5, 0.75) == 0.5
        assert relative_gain(0.5, 0.0) == -1.0


@st.composite
def pooled_instance(draw):
    n = draw(st.integers(1, 30))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    scores = draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n))
    extra_gt = draw(st.integers(0, 5))
    num_gt = max(1, sum(flags) + extra_gt)
    return flags, scores, num_gt


class TestApProperties:
    @given(pooled_instance(), st.floats(0.1, 5.0), st.floats(-2, 2))
    @settings(max_examples=60, deadline=None)
    def test_monotone_score_transform_invariance(self, inst, a, b):
        flags, scores, num_gt = inst
        base = average_precision(flags, scores, num_gt).ap
        transformed = [a * s + b for s in scores]
        # increasing in exact arithmetic, but rounding can tie two close scores
        assume(all((si < sj) == (ti < tj) and (si == sj) == (ti == tj)
                   for si, ti in zip(scores, transformed) for sj, tj in zip(scores, transformed)))
        assert average_precision(flags, transformed, num_gt).ap == base

    @given(pooled_instance())
    @settings(max_examples=60, deadline=None)
    def test_curve_matches_reference_loop(self, inst):
        flags, scores, num_gt = inst
        order = np.argsort(-np.array(scores), kind="stable")
        s = np.array(scores)[order]
        last = np.append(s[:-1] != s[1:], True)  # operating points end tie groups
        tp_cum = np.cumsum(np.array(flags)[order])[last]
        recalls, precisions = tp_cum / num_gt, tp_cum / np.arange(1, len(s) + 1)[last]
        expect = [precisions[recalls >= r - 1e-12].max() if np.any(recalls >= r - 1e-12) else 0.0
                  for r in np.arange(1, 41) / 40.0]
        assert [p for _, p in average_precision(flags, scores, num_gt).pr_curve] == expect

    @given(pooled_instance())
    @settings(max_examples=60, deadline=None)
    def test_low_score_fp_never_increases_ap(self, inst):
        flags, scores, num_gt = inst
        base = average_precision(flags, scores, num_gt).ap
        worse = average_precision(flags + [False], scores + [0.001], num_gt).ap
        assert worse <= base + 1e-12

    @given(pooled_instance())
    @settings(max_examples=60, deadline=None)
    def test_duplication_invariance(self, inst):
        flags, scores, num_gt = inst
        base = average_precision(flags, scores, num_gt).ap
        doubled = average_precision(flags + flags, scores + scores, 2 * num_gt).ap
        assert doubled == pytest.approx(base, abs=1e-12)

    @given(pooled_instance())
    @settings(max_examples=60, deadline=None)
    def test_interpolated_precision_non_increasing(self, inst):
        flags, scores, num_gt = inst
        res = average_precision(flags, scores, num_gt)
        precisions = [p for _, p in res.pr_curve]
        assert all(a >= b - 1e-15 for a, b in zip(precisions, precisions[1:]))


class TestEvaluate:
    def test_single_scene_matches_average_precision(self):
        dets = {0: [det_at(0, 0, 0.9), det_at(5, 5, 0.8), det_at(10, 0, 0.7)]}
        gts = {0: [gt_at(0, 0), gt_at(10, 0)]}
        out = evaluate(dets, gts, modes=("3d",), thresholds=(0.7,))
        direct = average_precision([True, False, True], [0.9, 0.8, 0.7], num_gt=2)
        assert out[("3d", 0.7, "all")].ap == pytest.approx(direct.ap, abs=1e-15)

    def test_perfect_detections_all_thresholds(self):
        dets = {0: [det_at(0, 0, 0.9)], 1: [det_at(3, 3, 0.8)]}
        gts = {0: [gt_at(0, 0)], 1: [gt_at(3, 3)]}
        out = evaluate(dets, gts)
        for res in out.values():
            assert res.ap == 1.0
        assert len(out) == 2 * 5

    def test_pooling_across_scenes(self):
        dets = {0: [det_at(0, 0, 0.9)], 1: [det_at(50, 0, 0.95)]}
        gts = {0: [gt_at(0, 0)], 1: [gt_at(0, 0)]}
        out = evaluate(dets, gts, modes=("3d",), thresholds=(0.7,))
        # one TP (scene 0), one FP with higher score (scene 1), 2 GTs:
        # precision at r<=0.5 is 1/2, unreachable beyond
        assert out[("3d", 0.7, "all")].ap == pytest.approx(0.25, abs=1e-12)

    def test_unknown_scene_id(self):
        with pytest.raises(InputError, match="99"):
            evaluate({99: []}, {0: [gt_at(0, 0)]})

    def test_difficulty_filtering(self):
        hard_gt = GroundTruth(box=car_at(0, 0), bbox_height=30.0, occlusion=2, truncation=0.4)
        easy_gt = GroundTruth(box=car_at(10, 0), bbox_height=80.0, occlusion=0, truncation=0.0)
        dets = {0: [det_at(0, 0, 0.9), det_at(10, 0, 0.8)]}
        gts = {0: [hard_gt, easy_gt]}
        out = evaluate(dets, gts, modes=("3d",), thresholds=(0.7,),
                       difficulties=("easy", "hard", "all"))
        # at easy, the hard GT is ignored: 1 GT, its det is TP, other det ignored
        assert out[("3d", 0.7, "easy")].ap == 1.0
        assert out[("3d", 0.7, "easy")].num_gt == 1
        assert out[("3d", 0.7, "hard")].ap == 1.0
        assert out[("3d", 0.7, "hard")].num_gt == 2
        assert out[("3d", 0.7, "all")].num_gt == 2

    def test_bev_mode(self):
        # same BEV, disjoint verticals: BEV IoU 1, 3D IoU 0
        a = Detection(box=Box3D(0, 0, 5.0, 1.6, 1.7, 4.0, 0.0), score=0.9)
        gts = {0: [gt_at(0, 0)]}
        out = evaluate({0: [a]}, gts, modes=("3d", "bev"), thresholds=(0.7,))
        assert out[("bev", 0.7, "all")].ap == 1.0
        assert out[("3d", 0.7, "all")].ap == 0.0


def test_mode_validation():
    with pytest.raises(InputError):
        evaluate({0: [det_at(0, 0, 0.9)]}, {0: [gt_at(0, 0)]}, modes=("2d",))
