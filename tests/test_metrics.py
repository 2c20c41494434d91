import importlib
import math
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cxrdet import (
    DEFAULT_THRESHOLDS,
    Box,
    ClassificationMetrics,
    ConfusionCounts,
    Detection,
    MatchResult,
    PredRecord,
    average_precision,
    binary_cross_entropy,
    confusion_metrics,
    group_predictions,
    kfold_split,
    match_boxes,
    mean_average_precision,
    read_predictions,
    score_dataset,
    smooth_l1,
    threshold_range,
    total_loss,
    write_predictions,
)
from cxrdet.formats import read_prediction_table
from cxrdet.geometry import detection_rows, iou
from cxrdet.metrics import MAX_THRESHOLDS, _match, _overlaps, validate_thresholds
from helpers import random_detections, random_int_box, random_positive_box
from oracles import greedy_consistent_assignments, per_threshold_match

metrics_module = importlib.import_module("cxrdet.metrics")


def det(box, score):
    return Detection(box, score)


def match_image(preds, gt, ts, inclusive):
    """``_match`` on the one image of Detections ``preds`` and Boxes ``gt``,
    read off ``_overlaps`` as every scorer reads its images."""
    return _match(*next(_overlaps([(detection_rows(preds), list(gt))])), ts, inclusive)


class TestThresholds:
    def test_default_set(self):
        assert DEFAULT_THRESHOLDS == (0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75)

    def test_range_builder(self):
        assert threshold_range(0.4, 0.75, 0.05) == DEFAULT_THRESHOLDS
        assert threshold_range(0.5, 0.5, 0.1) == (0.5,)

    @pytest.mark.parametrize("lo, hi, step", [
        (0.4, math.nan, 0.05), (0.4, math.inf, 0.05), (math.nan, 0.75, 0.05),
        (-math.inf, 0.75, 0.05), (0.4, 0.75, math.nan), (0.4, 0.75, math.inf),
    ])
    def test_non_finite_range_rejected(self, lo, hi, step):
        with pytest.raises(ValueError, match="threshold range must be finite"):
            threshold_range(lo, hi, step)

    def test_range_capped_before_it_is_built(self):
        assert len(threshold_range(0.0001, 0.1, 0.0001)) == MAX_THRESHOLDS == 1000
        for lo, hi, step in [(0.0001, 0.1001, 0.0001), (0.4, 0.75, 1e-8), (-1e308, 1e308, 1e-300)]:
            with pytest.raises(ValueError, match="holds more than 1000 thresholds"):
                threshold_range(lo, hi, step)

    @pytest.mark.parametrize("step", [0.0, -0.05])
    def test_range_step_must_be_positive(self, step):
        with pytest.raises(ValueError) as info:
            threshold_range(0.4, 0.75, step)
        assert str(info.value) == f"step must be positive: {step!r}"

    @pytest.mark.parametrize("bad", [(), (0.5, 0.5), (0.7, 0.4), (0.0, 0.5), (0.5, 1.0)])
    def test_invalid_sets(self, bad):
        with pytest.raises(ValueError):
            validate_thresholds(bad)


class TestMatchBoxes:
    def test_exact_copy_matches(self):
        gt = [Box(0, 0, 10, 10)]
        m = match_boxes([det(gt[0], 0.9)], gt, 0.5)
        assert (m.tp, m.fp, m.fn) == (1, 0, 0)
        assert m.matched_pairs == ((0, 0, 1.0),)

    def test_duplicate_prediction_is_false_positive(self):
        gt = [Box(0, 0, 10, 10)]
        preds = [det(gt[0], 0.9), det(gt[0], 0.8)]
        m = match_boxes(preds, gt, 0.5)
        assert (m.tp, m.fp, m.fn) == (1, 1, 0)
        assert m.matched_pairs == ((0, 0, 1.0),)

    def test_unmatched_truth_is_false_negative(self):
        m = match_boxes([], [Box(0, 0, 10, 10)], 0.5)
        assert (m.tp, m.fp, m.fn) == (0, 0, 1)

    def test_strict_threshold_by_default(self):
        gt = [Box(0, 0, 10, 10)]
        pred = det(Box(0, 0, 10, 5), 0.9)  # IoU exactly 0.5
        assert match_boxes([pred], gt, 0.5).tp == 0
        assert match_boxes([pred], gt, 0.5, inclusive=True).tp == 1

    def test_confidence_order_decides_who_matches(self):
        gt = [Box(0, 0, 10, 10)]
        low_first = [det(Box(0, 0, 10, 9), 0.3), det(gt[0], 0.9)]
        m = match_boxes(low_first, gt, 0.5)
        assert m.matched_pairs == ((1, 0, 1.0),)

    def test_equal_overlap_takes_the_lowest_gt_index(self):
        # the prediction overlaps both halves identically (IoU 0.5 each)
        gt = [Box(0, 0, 10, 5), Box(0, 5, 10, 10)]
        m = match_boxes([det(Box(0, 0, 10, 10), 0.9)], gt, 0.4)
        assert m.matched_pairs == ((0, 0, 0.5),)

    def test_counts_always_consistent(self):
        rng = random.Random(43)
        for _ in range(100):
            preds = [det(random_positive_box(rng), round(rng.random(), 2)) for _ in range(rng.randint(0, 8))]
            gts = [random_positive_box(rng) for _ in range(rng.randint(0, 8))]
            m = match_boxes(preds, gts, 0.5)
            assert m.tp + m.fp == len(preds)
            assert m.tp + m.fn == len(gts)
            assert m.tp == len(m.matched_pairs)

    def test_agrees_with_assignment_enumeration_oracle(self):
        rng = random.Random(47)
        for _ in range(60):
            n, m_ = rng.randint(0, 4), rng.randint(0, 4)
            pred_boxes = [random_positive_box(rng, hi=20, min_side=2) for _ in range(n)]
            scores = [round(rng.random(), 1) for _ in range(n)]
            gt_boxes = [random_positive_box(rng, hi=20, min_side=2) for _ in range(m_)]
            t = rng.choice([0.2, 0.4, 0.6])
            result = match_boxes([det(b, s) for b, s in zip(pred_boxes, scores)], gt_boxes, t)
            coords = [(b.x_min, b.y_min, b.x_max, b.y_max) for b in pred_boxes]
            gcoords = [(b.x_min, b.y_min, b.x_max, b.y_max) for b in gt_boxes]
            consistent = greedy_consistent_assignments(coords, scores, gcoords, t)
            assert len(consistent) == 1
            assert dict((pi, gi) for pi, gi, _ in result.matched_pairs) == consistent[0]

    def test_scale_invariance(self):
        rng = random.Random(53)
        for _ in range(30):
            preds = [det(random_positive_box(rng), round(rng.random(), 2)) for _ in range(rng.randint(0, 6))]
            gts = [random_positive_box(rng) for _ in range(rng.randint(0, 6))]
            factor = rng.choice([0.25, 3.0, 17.5])
            scaled_preds = [
                det(Box(d.box.x_min * factor, d.box.y_min * factor,
                        d.box.x_max * factor, d.box.y_max * factor), d.score)
                for d in preds
            ]
            scaled_gts = [Box(g.x_min * factor, g.y_min * factor, g.x_max * factor, g.y_max * factor) for g in gts]
            a = match_boxes(preds, gts, 0.5)
            b = match_boxes(scaled_preds, scaled_gts, 0.5)
            assert (a.tp, a.fp, a.fn) == (b.tp, b.fp, b.fn)
            assert average_precision(preds, gts) == average_precision(scaled_preds, scaled_gts)


# integer boxes on a small board overlap in exact fractions such as 0.5 and
# 0.75; boxes of side 1e300 have infinite areas, so two of them overlap in nan
grid_boxes = st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h),
                       st.integers(0, 6), st.integers(0, 6), st.integers(0, 4), st.integers(0, 4))
huge_boxes = st.sampled_from([Box(0.0, 0.0, 1e300, 1e300), Box(-1e300, 0.0, 1e300, 1e300),
                              Box(1.0, 1.0, 1e300, 2e300)])
match_boxes_st = st.one_of(grid_boxes, grid_boxes, huge_boxes)
tied_scores = st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0])
threshold_sets = st.one_of(
    st.just(DEFAULT_THRESHOLDS),
    st.lists(st.sampled_from([0.1, 0.25, 0.3, 0.4, 0.5, 0.6, 0.75, 0.8, 0.9]), min_size=1, max_size=6,
             unique=True).map(lambda ts: tuple(sorted(ts))),
)


class TestBandedMatching:
    """The matcher walks at the first threshold and walks again only at a
    threshold whose floor (t, or the next float above t when strict) its
    last walk's least matched overlap fails; it must equal one full walk per
    threshold."""

    @given(st.lists(st.builds(det, match_boxes_st, tied_scores), max_size=6),
           st.lists(match_boxes_st, max_size=5), threshold_sets, st.booleans(), st.booleans())
    # no overlap passes the first threshold: one walk, kept at every threshold
    @example([det(Box(0, 0, 4, 4), 0.5)], [Box(0, 0, 4, 1)], DEFAULT_THRESHOLDS, False, False)
    # matched overlaps 0.5 and 0.75 sit exactly on thresholds, strict and inclusive
    @example([det(Box(0, 0, 4, 2), 0.9), det(Box(10, 0, 14, 3), 0.5)], [Box(0, 0, 4, 4), Box(10, 0, 14, 4)],
             DEFAULT_THRESHOLDS, False, False)
    @example([det(Box(0, 0, 4, 2), 0.9), det(Box(10, 0, 14, 3), 0.5)], [Box(0, 0, 4, 4), Box(10, 0, 14, 4)],
             DEFAULT_THRESHOLDS, True, False)
    def test_equals_one_walk_per_threshold(self, preds, gt, ts, inclusive, on_overlaps):
        if on_overlaps:  # every overlap in (0, 1) is a threshold too, so overlaps sit exactly on thresholds
            overlaps = {iou(p.box, g) for p in preds for g in gt}
            ts = tuple(sorted(set(ts) | {v for v in overlaps if 0.0 < v < 1.0}))
        assert match_image(preds, gt, ts, inclusive) == per_threshold_match(preds, gt, ts, inclusive)

    @pytest.mark.parametrize("inclusive", [False, True])
    def test_overlaps_on_the_thresholds(self, inclusive):
        gt = [Box(0, 0, 4, 4), Box(10, 0, 14, 4)]
        preds = [det(Box(0, 0, 4, 3), 0.9), det(Box(10, 0, 12, 4), 0.9), det(Box(10, 0, 14, 4), 0.1)]  # 0.75, 0.5, 1.0
        ts = (0.4, 0.5, 0.6, 0.75, 0.8)
        got = match_image(preds, gt, ts, inclusive)
        assert got == per_threshold_match(preds, gt, ts, inclusive)
        assert [m.tp for m in got] == ([2, 2, 2, 2, 1] if inclusive else [2, 2, 2, 1, 1])

    def test_nan_overlaps_never_count(self):
        # a nan overlap fails every comparison, so no walk takes it, however it sits among the others
        huge = Box(0.0, 0.0, 1e300, 1e300)
        gt = [huge, Box(0, 0, 4, 4)]
        preds = [det(Box(0, 2, 4, 6), 0.9), det(huge, 0.9)]  # overlaps (0, 1/3) and (nan, 0)
        ts = (0.25, 0.5, 0.75)
        for inclusive in (False, True):
            got = match_image(preds, gt, ts, inclusive)
            assert got == per_threshold_match(preds, gt, ts, inclusive)
            assert [m.matched_pairs for m in got] == [((0, 1, 1 / 3),), (), ()]

    @pytest.mark.parametrize("n, m", [(0, 0), (3, 0), (0, 2)])
    def test_empty_sides(self, n, m):
        preds = [det(Box(0, 0, 4, 4), 0.5)] * n
        gt = [Box(0, 0, 4, 4)] * m
        assert match_image(preds, gt, DEFAULT_THRESHOLDS, False) == [MatchResult(0, n, m, ())] * 8

    @pytest.mark.parametrize("inclusive", [False, True])
    def test_an_unmatched_overlap_between_thresholds_costs_no_walk(self, inclusive):
        gt = [Box(0, 0, 10, 10)]
        preds = [det(Box(0, 0, 10, 9), 0.9), det(Box(0, 0, 10, 5.5), 0.5)]  # overlaps 0.9 and 0.55
        with patch.object(metrics_module, "_walk", wraps=metrics_module._walk) as walk:
            got = match_image(preds, gt, DEFAULT_THRESHOLDS, inclusive)
        assert walk.call_count == 1
        assert [m.matched_pairs for m in got] == [((0, 0, 0.9),)] * len(DEFAULT_THRESHOLDS)


zero_area_boxes = st.sampled_from([Box(2, 2, 2, 2), Box(0, 0, 0, 4), Box(1, 3, 5, 3)])
# areas of inf: (1e308 - -1e308) overflows, and so does 1e300 * 1e300
overflowing_boxes = st.sampled_from([Box(-1e308, 0.0, 1e308, 1.0), Box(-1e308, -1e308, 1e308, 1e308)])
scored_boxes = st.one_of(grid_boxes, grid_boxes, huge_boxes, zero_area_boxes, overflowing_boxes)


@st.composite
def datasets(draw):
    """(gt_boxes, predictions) maps over a few images; an image may appear in
    one map only, or in both with either side empty."""
    gt_boxes, predictions = {}, {}
    for i in range(draw(st.integers(0, 7))):
        where = draw(st.sampled_from(("both", "both", "gt", "preds")))
        if where != "preds":
            gt_boxes[f"p{i}"] = draw(st.lists(scored_boxes, max_size=5))
        if where != "gt":
            predictions[f"p{i}"] = draw(st.lists(st.builds(det, scored_boxes, tied_scores), max_size=7))
    return gt_boxes, predictions


def per_image_oracle(gt_boxes, predictions, ts, inclusive):
    """Per-image scores and per-threshold [tp, fp, fn] totals from one full
    walk per threshold and image, with overlaps from the scalar iou."""
    per_image, totals = [], [[0, 0, 0] for _ in ts]
    for pid in sorted(set(gt_boxes) | set(predictions)):
        preds, gt = list(predictions.get(pid, ())), list(gt_boxes.get(pid, ()))
        if not preds and not gt:
            per_image.append((pid, None))
            continue
        matches = per_threshold_match(preds, gt, ts, inclusive)
        per_image.append((pid, sum(m.tp / (m.tp + m.fp + m.fn) for m in matches) / len(ts)))
        for total, m in zip(totals, matches):
            total[0] += m.tp
            total[1] += m.fp
            total[2] += m.fn
    return per_image, totals


def pass_sizes(budget, run):
    """Run ``run()`` with the pair budget set to ``budget``; its result and the
    number of pairs in each iou_columns pass."""
    sizes = []
    iou_columns = metrics_module.iou_columns

    def counted(a, b):
        sizes.append(a.shape[1])
        return iou_columns(a, b)

    with patch.object(metrics_module, "_PAIR_BUDGET", budget), patch.object(metrics_module, "iou_columns", counted):
        return run(), sizes


def stream_passes(pairs, budget):
    """The pass sizes of a stream of ``pairs`` pairs: each pass holds the
    budget or, the last, the pairs left."""
    return [min(budget, pairs - start) for start in range(0, pairs, budget)]


class TestBatchedOverlaps:
    """score_dataset takes the pairs of all images as one flat stream, cut into
    passes of exactly the pair budget but the last, and an image may span
    passes; whatever the budget, it equals one walk per threshold over the
    scalar iou of each image on its own."""

    @given(datasets(), threshold_sets, st.booleans(), st.sampled_from((1, 2, 3, 5, 8, 2048)))
    def test_equals_the_per_image_oracle(self, data, ts, inclusive, budget):
        gt_boxes, predictions = data
        report, sizes = pass_sizes(budget, lambda: score_dataset(gt_boxes, predictions, ts, inclusive=inclusive))
        per_image, totals = per_image_oracle(gt_boxes, predictions, ts, inclusive)
        assert report.per_image == tuple(per_image)
        assert [(c.tp, c.fp, c.fn) for c in report.counts] == [tuple(t) for t in totals]
        assert all(0 < size <= budget for size in sizes)
        pairs = sum(len(predictions.get(p, ())) * len(gt_boxes.get(p, ())) for p in set(gt_boxes) | set(predictions))
        assert sizes == stream_passes(pairs, budget)
        assert sum(sizes) == pairs

    @pytest.mark.parametrize("inclusive", [False, True])
    def test_images_split_across_runs(self, inclusive):
        rng = random.Random(79)
        gt_boxes, predictions = {}, {}
        for i, (n, m) in enumerate([(2, 2), (1, 3), (0, 2), (3, 0), (2, 1), (4, 1), (1, 1), (0, 0)]):
            gt_boxes[f"p{i}"] = [random_positive_box(rng, hi=20, min_side=2) for _ in range(m)]
            predictions[f"p{i}"] = [det(random_positive_box(rng, hi=20, min_side=2), round(rng.random(), 1))
                                    for _ in range(n)]
        ts = (0.1, 0.3, 0.5)
        report, sizes = pass_sizes(5, lambda: score_dataset(gt_boxes, predictions, ts, inclusive=inclusive))
        # 4 + 3 + 2 + 4 + 1 pairs in passes of 5: p1 (pairs 4-6) and p5 (pairs 9-12) each span two passes
        assert sizes == [5, 5, 4]
        per_image, totals = per_image_oracle(gt_boxes, predictions, ts, inclusive)
        assert report.per_image == tuple(per_image)
        assert [(c.tp, c.fp, c.fn) for c in report.counts] == [tuple(t) for t in totals]

    @pytest.mark.parametrize("inclusive", [False, True])
    def test_one_image_banded_by_rows(self, inclusive):
        rng = random.Random(83)
        gt = [random_positive_box(rng, hi=30, min_side=3) for _ in range(3)]
        preds = [det(random_positive_box(rng, hi=30, min_side=3), round(rng.random(), 1)) for _ in range(7)]
        preds += [det(g, 0.5) for g in gt]  # exact copies, so some overlaps pass every threshold
        ts = (0.2, 0.5, 0.8)
        # 10 x 3 pairs, then 1 x 1, over a budget of 7: passes cut rows and images alike
        for run, expected in ((lambda: score_dataset({"a": gt, "b": gt[:1]}, {"a": preds, "b": preds[:1]}, ts,
                                                     inclusive=inclusive), [7, 7, 7, 7, 3]),
                              (lambda: match_image(preds, gt, ts, inclusive), [7, 7, 7, 7, 2])):
            result, sizes = pass_sizes(7, run)
            assert sizes == expected
        assert result == per_threshold_match(preds, gt, ts, inclusive)
        report, _ = pass_sizes(7, lambda: score_dataset({"a": gt}, {"a": preds}, ts, inclusive=inclusive))
        assert report.per_image == tuple(per_image_oracle({"a": gt}, {"a": preds}, ts, inclusive)[0])

    def test_one_row_wider_than_the_budget(self):
        gt = [Box(k, 0, k + 2, 2) for k in range(6)]
        preds = [det(Box(1, 0, 3, 2), 0.9), det(Box(4, 0, 6, 2), 0.8)]
        result, sizes = pass_sizes(4, lambda: match_image(preds, gt, DEFAULT_THRESHOLDS, False))
        # 2 rows of 6 pairs in passes of 4: each row spans two passes
        assert sizes == [4, 4, 4]
        assert result == per_threshold_match(preds, gt, DEFAULT_THRESHOLDS, False)
        report, sizes = pass_sizes(4, lambda: score_dataset({"a": gt, "b": gt[:1]}, {"a": preds, "b": preds}, (0.3,)))
        assert sizes == [4, 4, 4, 2]
        assert report.per_image == tuple(per_image_oracle({"a": gt, "b": gt[:1]}, {"a": preds, "b": preds}, (0.3,),
                                                          False)[0])

    def test_a_suspended_stream_leaves_the_callers_errstate_alone(self):
        # numpy keeps errstate in a context variable, which a generator shares
        # with its caller, so the stream must leave errstate before each yield
        huge = Box(0.0, 0.0, 1e300, 1e300)  # its overlaps overflow inside the passes
        rows = detection_rows([det(huge, 0.9), det(Box(0, 0, 4, 4), 0.5), det(huge, 0.1)])
        images = [(rows, [huge, Box(0, 0, 4, 4)])] * 3
        before = np.geterr()
        with patch.object(metrics_module, "_PAIR_BUDGET", 4):
            stream = metrics_module._overlaps(images)
            for _ in images:
                next(stream)
                assert np.geterr() == before

    def test_integer_coordinates_past_2_53_are_taken_as_floats(self):
        # the documented edge: as in nms and label_anchors, overlaps come from
        # float64 corners, so ints that a float cannot hold are rounded first
        # (here both widths become 2**53); the scalar iou takes them exactly
        pred, gt = Box(0, 0, 2**53 + 1, 1), Box(0, 0, 2**53, 1)
        t = iou(pred, gt)
        assert t == 2**53 / (2**53 + 1) == 1 - 2**-53
        preds = [det(pred, 0.9)]
        assert match_boxes(preds, [gt], t).matched_pairs == ((0, 0, 1.0),)
        assert per_threshold_match(preds, [gt], (t,), False)[0].tp == 0
        report = score_dataset({"a": [gt]}, {"a": preds}, (0.5, t))
        assert [(c.tp, c.fp, c.fn) for c in report.counts] == [(1, 0, 0), (1, 0, 0)]

    def test_integer_areas_past_2_53_are_taken_as_floats(self):
        # small int coordinates, but an area past 2**53: the scalar iou multiplies
        # exactly, the float64 overlap rounds, and the two differ in the last bit
        k = 2**27
        pred, gt = Box(0, 0, k + 1, k + 1), Box(1, 0, k + 1, k + 3)
        as_floats = [Box(*(float(v) for v in (b.x_min, b.y_min, b.x_max, b.y_max))) for b in (pred, gt)]
        assert iou(*as_floats) != iou(pred, gt)
        assert match_boxes([det(pred, 0.9)], [gt], 0.5).matched_pairs == ((0, 0, iou(*as_floats)),)

    def test_integer_too_large_for_a_float_overflows(self):
        # as in nms: corners refuses it; the scalar iou would take it exactly
        with pytest.raises(OverflowError):
            score_dataset({"a": [Box(0, 0, 10**400, 1)]}, {"a": [det(Box(0, 0, 1, 1), 0.5)]})


class TestOneStream:
    """score_dataset, average_precision and match_boxes all read their images
    off the one pair stream, so on one image they agree: the per-image score
    is average_precision's and each threshold's counts are match_boxes'."""

    @given(st.lists(st.builds(det, scored_boxes, tied_scores), max_size=6), st.lists(scored_boxes, max_size=4),
           threshold_sets, st.booleans())
    @example([], [], DEFAULT_THRESHOLDS, False)
    @example([det(Box(0, 0, 4, 4), 0.5)] * 2, [], DEFAULT_THRESHOLDS, False)
    @example([], [Box(0, 0, 4, 4)], DEFAULT_THRESHOLDS, True)
    def test_the_scorers_agree_on_one_image(self, preds, gt, ts, inclusive):
        report = score_dataset({"a": gt}, {"a": preds}, ts, inclusive=inclusive)
        assert report.per_image == (("a", average_precision(preds, gt, ts, inclusive=inclusive)),)
        matches = [match_boxes(preds, gt, t, inclusive=inclusive) for t in ts]
        assert [(c.tp, c.fp, c.fn) for c in report.counts] == [(r.tp, r.fp, r.fn) for r in matches]


class TestAveragePrecision:
    def test_both_empty_is_excluded(self):
        assert average_precision([], []) is None

    def test_predictions_without_truth_score_zero(self):
        preds = [det(Box(0, 0, 5, 5), 0.9)] * 3
        assert average_precision(preds, []) == 0.0

    def test_exact_match_scores_one(self):
        gt = [Box(0, 0, 10, 10)]
        assert average_precision([det(gt[0], 1.0)], gt) == 1.0

    def test_missing_predictions_score_zero(self):
        assert average_precision([], [Box(0, 0, 10, 10)]) == 0.0

    def test_single_threshold_value(self):
        gt = [Box(0, 0, 10, 10), Box(50, 50, 60, 60)]
        preds = [det(gt[0], 0.9), det(Box(80, 80, 90, 90), 0.8)]
        # one TP, one FP, one FN at every threshold: 1 / 3
        assert average_precision(preds, gt) == pytest.approx(1 / 3)

    def test_monotone_in_thresholds(self):
        rng = random.Random(59)
        for _ in range(50):
            preds = [det(random_positive_box(rng), round(rng.random(), 2)) for _ in range(rng.randint(1, 6))]
            gts = [random_positive_box(rng) for _ in range(rng.randint(1, 6))]
            base = (0.3, 0.5)
            extended = (0.3, 0.5, 0.8)
            lo = average_precision(preds, gts, extended)
            hi = average_precision(preds, gts, base)
            assert lo <= hi + 1e-12


class TestDatasetMean:
    def test_plain_mean(self):
        assert mean_average_precision([1.0, 0.0]) == 0.5

    def test_absent_images_excluded(self):
        assert mean_average_precision([None, 1.0]) == 1.0

    def test_empty_mean_is_zero(self):
        assert mean_average_precision([]) == 0.0
        assert mean_average_precision([None, None]) == 0.0


class TestScoreDataset:
    def test_report_fields(self):
        gt = {"a": [Box(0, 0, 10, 10)], "b": [], "c": []}
        preds = {"a": [det(Box(0, 0, 10, 10), 1.0)], "b": [det(Box(5, 5, 9, 9), 0.5)]}
        report = score_dataset(gt, preds, (0.5,))
        assert [pid for pid, _ in report.per_image] == ["a", "b", "c"]
        assert dict(report.per_image) == {"a": 1.0, "b": 0.0, "c": None}
        assert report.dataset_map == 0.5
        assert report.counts[0].threshold == 0.5
        assert (report.counts[0].tp, report.counts[0].fp, report.counts[0].fn) == (1, 1, 0)
        assert report.undefined == ()

    def test_all_absent_flags_undefined(self):
        report = score_dataset({"a": []}, {}, (0.5,))
        assert report.dataset_map == 0.0
        assert report.undefined == ("dataset_map",)

    def test_perfect_predictions_score_one(self):
        rng = random.Random(67)
        gt = {f"p{i}": [random_positive_box(rng) for _ in range(rng.randint(1, 3))] for i in range(10)}
        preds = {pid: [det(b, 1.0) for b in boxes] for pid, boxes in gt.items()}
        assert score_dataset(gt, preds).dataset_map == 1.0

    def test_detections_score_as_the_read_table_does(self):
        """A Detections mapping, taken as rows per image, and the table read
        from the same predictions file give equal reports."""
        rng = random.Random(83)
        gt, records = {}, []
        for _ in range(40):
            pid = f"p{rng.randint(0, 24):02d}"  # ids repeat across rows
            gt.setdefault(pid, [random_int_box(rng, hi=40) for _ in range(rng.randint(0, 3))])
            records.append(PredRecord(pid, random_detections(rng, rng.randint(0, 4))))
        text = write_predictions(records)
        detections = group_predictions(read_predictions(text))
        for ts, inclusive in ((DEFAULT_THRESHOLDS, False), (threshold_range(0.05, 0.95, 0.05), True)):
            report = score_dataset(gt, detections, ts, inclusive=inclusive)
            assert 0.0 < report.dataset_map < 1.0
            assert report == score_dataset(gt, read_prediction_table(text), ts, inclusive=inclusive)


class TestConfusionMetrics:
    def test_perfect_classifier(self):
        m = confusion_metrics(ConfusionCounts(tp=10, fp=0, tn=10, fn=0))
        assert m == ClassificationMetrics(1.0, 1.0, 1.0, 1.0, 1.0, ())

    def test_worked_example(self):
        m = confusion_metrics(ConfusionCounts(tp=8, fp=2, tn=9, fn=1))
        assert m.accuracy == pytest.approx(0.85, abs=1e-4)
        assert m.precision == pytest.approx(0.8, abs=1e-4)
        assert m.recall == pytest.approx(0.8889, abs=1e-4)
        assert m.specificity == pytest.approx(0.8182, abs=1e-4)
        assert m.f1 == pytest.approx(0.8421, abs=1e-4)
        assert m.undefined == ()

    def test_zero_over_zero_is_flagged(self):
        m = confusion_metrics(ConfusionCounts(tp=0, fp=0, tn=5, fn=5))
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert m.accuracy == 0.5
        assert "precision" in m.undefined and "f1" in m.undefined
        assert "recall" not in m.undefined

    def test_values_stay_in_unit_interval(self):
        rng = random.Random(71)
        for _ in range(200):
            counts = ConfusionCounts(*(rng.randint(0, 3) for _ in range(4)))
            m = confusion_metrics(counts)
            for v in (m.accuracy, m.specificity, m.precision, m.recall, m.f1):
                assert 0.0 <= v <= 1.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


class TestKfold:
    def test_even_split(self):
        ids = [f"p{i}" for i in range(10)]
        folds = kfold_split(ids, 5, seed=7)
        assert set(folds) == set(ids)
        sizes = [sum(1 for f in folds.values() if f == k) for k in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_deterministic(self):
        ids = [f"p{i}" for i in range(23)]
        assert kfold_split(ids, 5, seed=123) == kfold_split(ids, 5, seed=123)
        assert kfold_split(ids, 5, seed=123) != kfold_split(ids, 5, seed=124)

    def test_uneven_split_sizes(self):
        folds = kfold_split([f"p{i}" for i in range(11)], 5, seed=1)
        sizes = sorted(sum(1 for f in folds.values() if f == k) for k in range(5))
        assert sizes == [2, 2, 2, 2, 3]

    @pytest.mark.parametrize("ids,k", [(list("abc"), 4), (list("abc"), 1), (list("aab"), 2), (list("abcde"), 2.5),
                                      (list("abcde"), 3.0)])
    def test_invalid_requests(self, ids, k):
        with pytest.raises(ValueError):
            kfold_split(ids, k, seed=0)

    @pytest.mark.parametrize("k", [2.5, 3.0, "3"])
    def test_fold_count_that_is_not_an_integer_is_named(self, k):
        with pytest.raises(ValueError) as info:
            kfold_split(list("abcde"), k, seed=0)
        assert str(info.value) == f"fold count must be an integer: {k!r}"

    def test_numpy_integer_fold_count(self):
        assert kfold_split(list("abcde"), np.int64(2), seed=0) == kfold_split(list("abcde"), 2, seed=0)

    @pytest.mark.parametrize("ids, first", [(list("aab"), "a"), (list("bcaacb"), "a"), (["p,1", "q", "p,1"], "p,1")])
    def test_first_repeated_id_is_named(self, ids, first):
        with pytest.raises(ValueError) as info:
            kfold_split(ids, 2, seed=0)
        assert str(info.value) == f"ids must be unique: {first!r} repeats"


class TestLosses:
    def test_smooth_l1_values(self):
        assert smooth_l1(0, 1) == 0.0
        assert smooth_l1(0.5, 1) == 0.125
        assert smooth_l1(2, 1) == 1.5

    def test_smooth_l1_continuous_at_beta(self):
        for beta in (0.5, 1.0, 3.0):
            inside = smooth_l1(beta * (1 - 1e-12), beta)
            outside = smooth_l1(beta, beta)
            assert inside == pytest.approx(0.5 * beta, rel=1e-9)
            assert outside == pytest.approx(0.5 * beta, rel=1e-9)

    def test_smooth_l1_nonnegative_and_symmetric(self):
        rng = random.Random(73)
        for _ in range(200):
            x = rng.uniform(-10, 10)
            beta = rng.uniform(0.1, 5)
            assert smooth_l1(x, beta) >= 0.0
            assert smooth_l1(x, beta) == smooth_l1(-x, beta)

    def test_smooth_l1_needs_positive_beta(self):
        with pytest.raises(ValueError):
            smooth_l1(1.0, 0.0)

    def test_bce_values(self):
        assert binary_cross_entropy(0.5, 1) == pytest.approx(math.log(2), abs=1e-12)
        assert binary_cross_entropy(0.5, 0) == pytest.approx(math.log(2), abs=1e-12)
        assert binary_cross_entropy(0.9, 1) == pytest.approx(-math.log(0.9), abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_bce_domain(self, p):
        with pytest.raises(ValueError):
            binary_cross_entropy(p, 1)

    def test_bce_label_domain(self):
        with pytest.raises(ValueError):
            binary_cross_entropy(0.5, 2)

    def test_total_loss(self):
        assert total_loss(1.0, 2.0) == 3.0
        assert total_loss(1.0, 2.0, reg_weight=0.5) == 2.0
