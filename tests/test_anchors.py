import math
import random

import pytest

from cxrdet import (
    IGNORE,
    NEGATIVE,
    POSITIVE,
    AnchorLabel,
    AnchorSpec,
    Box,
    BoxDelta,
    decode_box,
    encode_box,
    generate_anchors,
    iou,
    label_anchors,
    select_proposals,
)
from helpers import random_positive_box
from oracles import brute_force_hard_nms


class TestAnchorSpec:
    def test_anchors_per_cell(self):
        spec = AnchorSpec(16, (8, 16, 32), (0.5, 1, 2), 16)
        assert spec.anchors_per_cell == 9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_size": 0},
            {"stride": -1},
            {"scales": ()},
            {"ratios": ()},
            {"scales": (8, -2)},
            {"ratios": (math.inf,)},
        ],
    )
    def test_invalid_spec(self, kwargs):
        base = {"base_size": 16, "scales": (8,), "ratios": (1,), "stride": 16}
        base.update(kwargs)
        with pytest.raises(ValueError):
            AnchorSpec(**base)


class TestGenerate:
    def test_nine_anchors_on_single_cell(self):
        spec = AnchorSpec(16, (8, 16, 32), (0.5, 1, 2), 16)
        assert len(generate_anchors(spec, 1, 1)) == 9

    def test_two_by_two_grid_placement(self):
        spec = AnchorSpec(16, (8,), (1,), 16)
        anchors = generate_anchors(spec, 2, 2)
        assert [a.center for a in anchors] == [(8, 8), (24, 8), (8, 24), (24, 24)]
        for a in anchors:
            assert (a.width, a.height) == (128.0, 128.0)

    def test_tall_aspect_ratio(self):
        spec = AnchorSpec(16, (8,), (4,), 16)
        (anchor,) = generate_anchors(spec, 1, 1)
        assert anchor.height / anchor.width == pytest.approx(4.0, abs=1e-12)
        assert anchor.width * anchor.height == pytest.approx(128.0**2, rel=1e-12)

    def test_count_and_shape_invariants(self):
        rng = random.Random(23)
        for _ in range(20):
            spec = AnchorSpec(
                base_size=rng.uniform(4, 32),
                scales=tuple(rng.uniform(1, 16) for _ in range(rng.randint(1, 3))),
                ratios=tuple(rng.uniform(0.2, 5) for _ in range(rng.randint(1, 3))),
                stride=rng.uniform(4, 32),
            )
            gw, gh = rng.randint(1, 5), rng.randint(1, 5)
            anchors = generate_anchors(spec, gw, gh)
            assert len(anchors) == gw * gh * spec.anchors_per_cell
            k = spec.anchors_per_cell
            sizes = [s for r in spec.ratios for s in spec.scales]
            ratios = [r for r in spec.ratios for _ in spec.scales]
            for idx, anchor in enumerate(anchors):
                assert abs(anchor.height / anchor.width - ratios[idx % k]) < 1e-9
                side = math.sqrt(anchor.width * anchor.height)
                assert abs(side - spec.base_size * sizes[idx % k]) < 1e-9

    def test_bad_grid(self):
        spec = AnchorSpec(16, (8,), (1,), 16)
        with pytest.raises(ValueError):
            generate_anchors(spec, 0, 1)


class TestLabels:
    def test_identical_anchor_is_positive(self):
        gt = [Box(0, 0, 10, 10)]
        assert label_anchors(gt, gt) == [AnchorLabel(POSITIVE, 0)]

    def test_disjoint_anchor_is_negative(self):
        labels = label_anchors([Box(50, 50, 60, 60)], [Box(0, 0, 10, 10)], neg_iou=0.3)
        assert labels == [AnchorLabel(NEGATIVE)]

    def test_force_match_below_positive_threshold(self):
        # IoU is exactly 0.5: between the thresholds, but this anchor is the
        # ground-truth box's best, so it must come out positive
        anchor = Box(0, 0, 10, 10)
        gt = Box(0, 0, 10, 5)
        assert iou(anchor, gt) == 0.5
        assert label_anchors([anchor], [gt], pos_iou=0.7, neg_iou=0.3) == [AnchorLabel(POSITIVE, 0)]

    def test_between_thresholds_is_ignore_when_not_forced(self):
        near = Box(0, 0, 10, 5)  # IoU 0.5 with gt
        exact = Box(0, 0, 10, 10)  # IoU 1, takes the forced match
        labels = label_anchors([near, exact], [Box(0, 0, 10, 10)], pos_iou=0.7, neg_iou=0.3)
        assert labels == [AnchorLabel(IGNORE), AnchorLabel(POSITIVE, 0)]

    def test_empty_gt_means_all_negative(self):
        labels = label_anchors([Box(0, 0, 1, 1), Box(2, 2, 3, 3)], [])
        assert labels == [AnchorLabel(NEGATIVE)] * 2

    def test_boundary_rules(self):
        # IoU exactly neg_iou is not negative; exactly pos_iou is positive
        anchor = Box(0, 0, 10, 10)
        gt_half = Box(0, 0, 10, 5)
        blocker = Box(0, 0, 10, 5.0001)  # steals the forced match
        labels = label_anchors([anchor, blocker], [gt_half], pos_iou=0.5, neg_iou=0.5)
        assert labels[0] == AnchorLabel(POSITIVE, 0)
        gt = Box(0, 0, 10, 10)
        third = Box(0, 0, 10, 3)  # IoU exactly 0.3 with gt
        labels = label_anchors([third, gt], [gt], pos_iou=0.7, neg_iou=0.3)
        assert labels == [AnchorLabel(IGNORE), AnchorLabel(POSITIVE, 0)]

    def test_every_overlapped_gt_gets_its_best_anchor_positive(self):
        rng = random.Random(29)
        for _ in range(50):
            anchors = [random_positive_box(rng) for _ in range(rng.randint(1, 15))]
            gts = [random_positive_box(rng) for _ in range(rng.randint(1, 5))]
            labels = label_anchors(anchors, gts)
            assert len(labels) == len(anchors)
            for gi, gt in enumerate(gts):
                overlaps = [iou(a, gt) for a in anchors]
                best = max(overlaps)
                if best > 0:
                    best_anchor = overlaps.index(best)
                    assert labels[best_anchor].kind == POSITIVE

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            label_anchors([Box(0, 0, 1, 1)], [], pos_iou=0.3, neg_iou=0.7)


class TestEncodeDecode:
    def test_identity_encoding(self):
        box = Box(3, 4, 10, 20)
        assert encode_box(box, box) == BoxDelta(0, 0, 0, 0)

    def test_half_width_shift(self):
        delta = encode_box(Box(0, 0, 10, 10), Box(5, 0, 15, 10))
        assert (delta.tx, delta.ty, delta.tw, delta.th) == (0.5, 0.0, 0.0, 0.0)

    def test_round_trip(self):
        rng = random.Random(31)
        worst = 0.0
        for _ in range(1000):
            anchor = random_positive_box(rng)
            gt = random_positive_box(rng)
            back = decode_box(anchor, encode_box(anchor, gt))
            worst = max(
                worst,
                abs(back.x_min - gt.x_min),
                abs(back.y_min - gt.y_min),
                abs(back.x_max - gt.x_max),
                abs(back.y_max - gt.y_max),
            )
        assert worst < 1e-9

    def test_degenerate_anchor_rejected(self):
        flat = Box(0, 0, 10, 0)
        with pytest.raises(ValueError):
            encode_box(flat, Box(0, 0, 5, 5))
        with pytest.raises(ValueError):
            decode_box(flat, BoxDelta(0, 0, 0, 0))

    def test_overflowing_delta_rejected(self):
        # exp(800) is beyond float range; the error names the delta, nothing is clamped
        with pytest.raises(ValueError, match="tw=800"):
            decode_box(Box(0, 0, 10, 10), BoxDelta(0, 0, 800, 0))
        with pytest.raises(ValueError, match="th=710"):
            decode_box(Box(0, 0, 10, 10), BoxDelta(0, 0, 0, 710))

    def test_degenerate_target_rejected(self):
        # log of a zero extent would make the offsets non-finite
        with pytest.raises(ValueError):
            encode_box(Box(0, 0, 10, 10), Box(0, 0, 0, 5))


class TestSelectProposals:
    def test_single_box_passes_through(self):
        (prop,) = select_proposals([Box(10, 10, 20, 20)], [0.9], 100, 100)
        assert prop.box == Box(10, 10, 20, 20)
        assert prop.score == 0.9

    def test_out_of_bounds_box_is_clipped(self):
        (prop,) = select_proposals([Box(-5, -5, 5, 5)], [0.5], 100, 100)
        assert prop.box == Box(0, 0, 5, 5)

    def test_duplicates_collapse_to_one(self):
        props = select_proposals(
            [Box(0, 0, 10, 10), Box(0, 0, 10, 10)], [0.9, 0.8], 100, 100, nms_iou=0.5
        )
        assert len(props) == 1
        assert props[0].score == 0.9

    def test_small_boxes_removed(self):
        props = select_proposals(
            [Box(0, 0, 0.5, 10), Box(0, 0, 10, 0.5), Box(0, 0, 10, 10)],
            [0.9, 0.8, 0.7],
            100,
            100,
            min_size=1.0,
        )
        assert [p.box for p in props] == [Box(0, 0, 10, 10)]

    def test_top_n_limits(self):
        rng = random.Random(37)
        boxes = [random_positive_box(rng, hi=90) for _ in range(30)]
        scores = [round(rng.random(), 3) for _ in boxes]
        props = select_proposals(boxes, scores, 100, 100, pre_top_n=20, post_top_n=5, nms_iou=0.9)
        assert len(props) <= 5
        out_scores = [p.score for p in props]
        assert out_scores == sorted(out_scores, reverse=True)

    def test_matches_reference_nms_after_clipping(self):
        rng = random.Random(41)
        for _ in range(50):
            boxes = [random_positive_box(rng, hi=90, min_side=2.0) for _ in range(rng.randint(1, 20))]
            scores = [round(rng.random(), 2) for _ in boxes]
            props = select_proposals(boxes, scores, 100, 100, nms_iou=0.5)
            kept = brute_force_hard_nms(
                [(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes], scores, 0.5
            )
            assert [p.box for p in props] == [boxes[i] for i in kept]
            for p in props:
                assert 0 <= p.box.x_min <= p.box.x_max <= 100
                assert 0 <= p.box.y_min <= p.box.y_max <= 100

    def test_empty_input(self):
        assert select_proposals([], [], 100, 100) == []

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            select_proposals([Box(0, 0, 1, 1)], [0.5, 0.6], 100, 100)
