import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cxrdet import (
    IGNORE,
    NEGATIVE,
    POSITIVE,
    AnchorLabel,
    AnchorSpec,
    Box,
    BoxDelta,
    NmsConfig,
    decode_box,
    encode_box,
    generate_anchors,
    iou,
    label_anchors,
    nms,
    select_proposals,
)
from cxrdet import anchors as anchors_module
from cxrdet.anchors import MAX_ANCHORS
from helpers import random_detections, random_positive_box
from oracles import brute_force_hard_nms, property_decode_box, scalar_label_anchors

side = st.integers(min_value=0, max_value=10)


@st.composite
def board_boxes(draw, max_size):
    """Boxes on a small integer board, so duplicate and zero-area boxes and
    tied overlaps are common."""
    boxes = []
    for _ in range(draw(st.integers(0, max_size))):
        x0, x1 = sorted((draw(side), draw(side)))
        y0, y1 = sorted((draw(side), draw(side)))
        boxes.append(Box(float(x0), float(y0), float(x1), float(y1)))
    return boxes


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

    @pytest.mark.parametrize("grid_w, grid_h", [(100_000, 100_000), (MAX_ANCHORS // 9 + 1, 1), (1, MAX_ANCHORS // 9 + 1)])
    def test_grid_past_the_anchor_cap_rejected_before_allocation(self, grid_w, grid_h):
        spec = AnchorSpec(16, (8, 16, 32), (0.5, 1, 2), 16)
        with pytest.raises(ValueError, match=f"{grid_w}x{grid_h} cells of 9 anchors exceed {MAX_ANCHORS} anchors"):
            generate_anchors(spec, grid_w, grid_h)


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

    @given(
        board_boxes(30),
        board_boxes(5),
        st.lists(st.sampled_from((0.0, 0.25, 0.3, 0.5, 0.7, 1.0)), min_size=2, max_size=2),
    )
    def test_equals_scalar_loop(self, anchors, gt, thresholds):
        neg_iou, pos_iou = sorted(thresholds)
        labels = label_anchors(anchors, gt, pos_iou=pos_iou, neg_iou=neg_iou)
        assert [(label.kind, label.gt_index) for label in labels] == scalar_label_anchors(
            [(a.x_min, a.y_min, a.x_max, a.y_max) for a in anchors],
            [(g.x_min, g.y_min, g.x_max, g.y_max) for g in gt],
            pos_iou,
            neg_iou,
        )


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

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
        st.lists(st.floats(-750.0, 750.0), min_size=2, max_size=2),
    )
    def test_bit_identical_to_property_form(self, coords, shift, scale):
        anchor = Box(min(coords[:2]), min(coords[2:]), max(coords[:2]), max(coords[2:]))
        delta = BoxDelta(*shift, *scale)
        try:
            want = property_decode_box(anchor, delta)
            Box(*want)
        except (ValueError, OverflowError):  # a flat anchor, an overflowing exp or a non-finite corner
            with pytest.raises(ValueError):
                decode_box(anchor, delta)
            return
        got = decode_box(anchor, delta)
        assert [v.hex() for v in (got.x_min, got.y_min, got.x_max, got.y_max)] == [v.hex() for v in want]

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

    @pytest.mark.parametrize("post_top_n", [0, 1, 3, 7, -2])
    def test_early_stop_keeps_the_full_prefix(self, post_top_n):
        rng = random.Random(43)
        for _ in range(30):
            boxes = [random_positive_box(rng, hi=90) for _ in range(rng.randint(0, 25))]
            scores = [round(rng.random(), 2) for _ in boxes]
            full = select_proposals(boxes, scores, 100, 100, post_top_n=len(boxes) + 5)
            props = select_proposals(boxes, scores, 100, 100, post_top_n=post_top_n)
            assert props == full[:post_top_n]

    @pytest.mark.parametrize("post_top_n, max_keep", [(0, 0), (5, 5), (-2, None)])
    def test_nms_stops_at_post_top_n(self, monkeypatch, post_top_n, max_keep):
        seen = []

        def spy(dets, config=None, *, max_keep=None):
            seen.append(max_keep)
            return nms(dets, config, max_keep=max_keep)

        monkeypatch.setattr(anchors_module, "nms", spy)
        select_proposals([Box(0, 0, 10, 10), Box(1, 1, 11, 11)], [0.9, 0.8], 100, 100, post_top_n=post_top_n)
        assert seen == [max_keep]

    def test_empty_input(self):
        assert select_proposals([], [], 100, 100) == []

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            select_proposals([Box(0, 0, 1, 1)], [0.5, 0.6], 100, 100)

    @pytest.mark.parametrize("bad", [1.5, -0.1, math.nan])
    def test_out_of_range_score_rejected_wherever_it_is(self, bad):
        boxes = [Box(0, 0, 10, 10), Box(20, 20, 30, 30), Box(40, 40, 50, 50)]
        # outside the pre_top_n shortlist
        with pytest.raises(ValueError, match="score"):
            select_proposals(boxes, [0.9, 0.8, bad], 100, 100, pre_top_n=1)
        # on a box the size filter drops
        with pytest.raises(ValueError, match="score"):
            select_proposals([*boxes, Box(0, 0, 0.5, 10)], [0.9, 0.8, 0.7, bad], 100, 100)


def as_scalars(box, kind):
    """``box`` with every coordinate a numpy scalar of type ``kind``."""
    return Box(*(kind(v) for v in (box.x_min, box.y_min, box.x_max, box.y_max)))


class TestCornersPath:
    """Labelling, proposals and NMS read their boxes through ``corners``; numpy
    scalar coordinates and generator inputs must take that path unchanged."""

    @pytest.mark.parametrize("kind", [np.float64, np.float32])
    def test_label_anchors_from_numpy_scalars_equal_scalar_loop(self, kind):
        rng = random.Random(2031)
        for _ in range(100):
            anchors = [as_scalars(random_positive_box(rng), kind) for _ in range(rng.randint(1, 40))]
            gt = [random_positive_box(rng) for _ in range(rng.randint(0, 4))]
            neg_iou, pos_iou = sorted(rng.choice((0.0, 0.3, 0.5, 0.7, 1.0)) for _ in range(2))
            labels = label_anchors((a for a in anchors), iter(gt), pos_iou=pos_iou, neg_iou=neg_iou)
            assert [(label.kind, label.gt_index) for label in labels] == scalar_label_anchors(
                [(float(a.x_min), float(a.y_min), float(a.x_max), float(a.y_max)) for a in anchors],
                [(g.x_min, g.y_min, g.x_max, g.y_max) for g in gt],
                pos_iou,
                neg_iou,
            )

    @pytest.mark.parametrize("kind", [np.float64, np.float32])
    def test_select_proposals_from_numpy_scalars_equal_brute_force(self, kind):
        rng = random.Random(2033)
        for _ in range(100):
            boxes = [as_scalars(random_positive_box(rng, hi=90, min_side=2.0), kind) for _ in range(rng.randint(0, 30))]
            scores = [round(rng.random(), 2) for _ in boxes]
            props = select_proposals(iter(boxes), iter(scores), 100, 100, nms_iou=0.5, post_top_n=1000)
            kept = brute_force_hard_nms([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes], scores, 0.5)
            assert [(p.box, p.score) for p in props] == [(boxes[i], scores[i]) for i in kept]
            assert all(type(v) is float for p in props for v in (p.box.x_min, p.box.y_max))

    def test_nms_of_a_generator_equals_brute_force(self):
        rng = random.Random(2035)
        for _ in range(300):
            dets = random_detections(rng, rng.randint(0, 50))
            threshold = rng.choice([0.3, 0.5, 0.7])
            kept = brute_force_hard_nms(
                [(d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max) for d in dets], [d.score for d in dets], threshold
            )
            assert nms((d for d in dets), NmsConfig(iou_threshold=threshold)) == [dets[i] for i in kept]
