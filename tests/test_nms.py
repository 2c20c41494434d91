import importlib
import math
import random
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrdet import HARD, SOFT_GAUSSIAN, SOFT_LINEAR, Box, Detection, NmsConfig, iou, nms
from cxrdet.nms import _MATRIX_BELOW, nms_rows

nms_module = importlib.import_module("cxrdet.nms")  # the package's own name nms is the function
from helpers import random_detections
from oracles import brute_force_hard_nms, scalar_nms


def det(x0, y0, x1, y1, score, class_id=None):
    return Detection(Box(x0, y0, x1, y1), score, class_id)


class TestConfig:
    def test_defaults(self):
        cfg = NmsConfig()
        assert (cfg.mode, cfg.iou_threshold, cfg.sigma, cfg.score_cutoff) == (HARD, 0.5, 0.5, 0.001)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "softest"},
            {"iou_threshold": 0.0},
            {"iou_threshold": 1.0},
            {"sigma": 0.0},
            {"score_cutoff": -0.1},
            {"score_cutoff": float("nan")},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            NmsConfig(**kwargs)

    def test_nan_score_cutoff_is_named(self):
        with pytest.raises(ValueError, match=r"^score_cutoff must be non-negative: nan$"):
            NmsConfig(score_cutoff=float("nan"))


class TestDetection:
    @pytest.mark.parametrize("score", [math.nan, math.inf, -0.5, 10**400], ids=["nan", "inf", "-0.5", "10**400"])
    def test_score_outside_the_unit_interval_rejected(self, score):
        with pytest.raises(ValueError, match="detection score must be in"):
            Detection(Box(0, 0, 1, 1), score)


class TestExamples:
    def test_empty_input(self):
        assert nms([], NmsConfig()) == []

    def test_single_detection_unchanged(self):
        d = det(0, 0, 10, 10, 0.42)
        assert nms([d]) == [d]

    def test_gaussian_decay_on_identical_pair(self):
        dets = [det(0, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)]
        out = nms(dets, NmsConfig(mode=SOFT_GAUSSIAN, sigma=0.5))
        # identical boxes have IoU 1, so the runner-up decays by e^(-1/0.5)
        assert [d.score for d in out] == pytest.approx([0.9, 0.8 * math.exp(-2.0)], abs=1e-12)

    def test_hard_three_box(self):
        dets = [
            det(0, 0, 10, 10, 0.9),
            det(0, 0, 10, 10, 0.8),
            det(20, 20, 30, 30, 0.7),
        ]
        out = nms(dets, NmsConfig(mode=HARD, iou_threshold=0.5))
        assert out == [dets[0], dets[2]]


class TestInvariants:
    def test_scores_never_increase(self):
        rng = random.Random(7)
        for mode in (HARD, SOFT_LINEAR, SOFT_GAUSSIAN):
            cfg = NmsConfig(mode=mode)
            for _ in range(50):
                dets = random_detections(rng, rng.randint(0, 20))
                best_in = {d.score for d in dets}
                for d in nms(dets, cfg):
                    assert d.score <= max(best_in)

    def test_hard_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(300):
            dets = random_detections(rng, rng.randint(0, 30))
            threshold = rng.choice([0.3, 0.5, 0.7])
            out = nms(dets, NmsConfig(mode=HARD, iou_threshold=threshold))
            kept = brute_force_hard_nms(
                [(d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max) for d in dets],
                [d.score for d in dets],
                threshold,
            )
            assert out == [dets[i] for i in kept]

    def test_hard_output_independent_of_positive_cutoff(self):
        rng = random.Random(13)
        for _ in range(50):
            dets = random_detections(rng, rng.randint(0, 20))
            outs = [
                nms(dets, NmsConfig(mode=HARD, iou_threshold=0.5, score_cutoff=c))
                for c in (1e-12, 0.001, 0.9)
            ]
            assert outs[0] == outs[1] == outs[2]

    def test_soft_linear_zero_cutoff_keeps_everything(self):
        rng = random.Random(17)
        for _ in range(50):
            dets = random_detections(rng, rng.randint(0, 20))
            out = nms(dets, NmsConfig(mode=SOFT_LINEAR, iou_threshold=0.5, score_cutoff=0.0))
            assert len(out) == len(dets)
            assert {d.box for d in out} == {d.box for d in dets}

    def test_soft_linear_below_threshold_decays_nothing(self):
        # pairwise IoUs all at most Nt, so every score survives untouched
        dets = [det(0, 0, 10, 10, 0.9), det(8, 8, 18, 18, 0.6), det(30, 0, 40, 10, 0.3)]
        assert max(iou(a.box, b.box) for a in dets for b in dets if a is not b) <= 0.5
        out = nms(dets, NmsConfig(mode=SOFT_LINEAR, iou_threshold=0.5))
        assert out == dets

    def test_disjoint_detections_pass_through(self):
        dets = [
            det(0, 0, 5, 5, 0.2),
            det(10, 10, 15, 15, 0.0005),  # below the default cutoff, still kept
            det(20, 20, 25, 25, 0.9),
        ]
        expected = sorted(dets, key=lambda d: -d.score)
        for mode in (HARD, SOFT_LINEAR, SOFT_GAUSSIAN):
            assert nms(dets, NmsConfig(mode=mode)) == expected

    def test_distinct_classes_never_suppress(self):
        dets = [det(0, 0, 10, 10, 0.9, class_id=0), det(0, 0, 10, 10, 0.8, class_id=1)]
        for mode in (HARD, SOFT_LINEAR, SOFT_GAUSSIAN):
            out = nms(dets, NmsConfig(mode=mode))
            assert out == dets

    def test_equal_scores_keep_input_order(self):
        dets = [det(0, 0, 5, 5, 0.5), det(20, 0, 25, 5, 0.5), det(40, 0, 45, 5, 0.5)]
        assert nms(dets, NmsConfig(mode=SOFT_GAUSSIAN)) == dets

    def test_output_sorted_by_final_score(self):
        rng = random.Random(19)
        for mode in (HARD, SOFT_LINEAR, SOFT_GAUSSIAN):
            for _ in range(50):
                dets = random_detections(rng, rng.randint(0, 20))
                scores = [d.score for d in nms(dets, NmsConfig(mode=mode))]
                assert scores == sorted(scores, reverse=True)


side = st.integers(min_value=0, max_value=12)


@st.composite
def crowded_detections(draw):
    """Boxes on a small integer board with scores in tenths, so overlaps,
    duplicates and tied scores are common; class ids mix None, 0 and 1."""
    dets = []
    for _ in range(draw(st.integers(0, 25))):
        x0, x1 = sorted((draw(side), draw(side)))
        y0, y1 = sorted((draw(side), draw(side)))
        box = Box(float(x0), float(y0), float(x1), float(y1))
        dets.append(Detection(box, draw(st.integers(0, 10)) / 10, draw(st.sampled_from((None, 0, 1)))))
    return dets


def triples(dets):
    return [((d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max), d.score, d.class_id) for d in dets]


class TestScalarReference:
    @given(
        crowded_detections(),
        st.sampled_from((HARD, SOFT_LINEAR, SOFT_GAUSSIAN)),
        st.sampled_from((0.3, 0.5, 0.7)),
        st.sampled_from((0.1, 0.5)),
        st.sampled_from((0.0, 0.001, 0.3)),
    )
    def test_bit_identical_to_scalar_loop(self, dets, mode, threshold, sigma, cutoff):
        out = nms(dets, NmsConfig(mode, threshold, sigma, cutoff))
        ref = scalar_nms(triples(dets), mode, threshold, sigma, cutoff)
        # the same box objects, in the same order, with the same score bits
        assert [(id(d.box), d.score.hex(), d.class_id) for d in out] == [
            (id(dets[i].box), score.hex(), dets[i].class_id) for i, score in ref
        ]

    @given(
        crowded_detections(),
        st.sampled_from((HARD, SOFT_LINEAR, SOFT_GAUSSIAN)),
        st.booleans(),
        st.sampled_from((None, 0, 1, 3)),
    )
    def test_row_core_picks_equal_scalar_loop(self, dets, mode, with_classes, max_keep):
        rows = np.array([(d.score, d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max) for d in dets]).reshape(-1, 5)
        codes = {None: 0, 0: 1, 1: 2}
        classes = np.array([codes[d.class_id] for d in dets], dtype=np.intp) if with_classes else None
        picks = nms_rows(rows, NmsConfig(mode=mode), classes, max_keep=max_keep)
        ref = scalar_nms([(box, score, cls if with_classes else None) for box, score, cls in triples(dets)],
                         mode, 0.5, 0.5, 0.001)[:max_keep]
        assert [(type(i), i, score.hex()) for i, score in picks] == [(int, i, score.hex()) for i, score in ref]

    def test_vanishing_linear_decay_matches_scalar_loop(self):
        # an overlap of about 2**-60 is above the threshold, but 1 - overlap rounds to 1: no decay
        dets = [det(0, 0, 1, 1, 0.9), det(1 - 2**-40, 0, 2**20, 1, 0.0005)]
        out = nms(dets, NmsConfig(SOFT_LINEAR, 1e-20, 0.5, 0.001))
        ref = scalar_nms(triples(dets), SOFT_LINEAR, 1e-20, 0.5, 0.001)
        assert [(d.box, d.score) for d in out] == [(dets[i].box, score) for i, score in ref]
        assert out == dets

    @pytest.mark.parametrize("mode", [HARD, SOFT_LINEAR, SOFT_GAUSSIAN])
    def test_overflowing_overlaps_match_scalar_loop(self, mode):
        # areas overflow to inf, so overlaps between the first two boxes are nan
        huge = 1e300
        dets = [det(-huge, -huge, huge, huge, 0.9), det(-huge, 0, huge, huge, 0.8), det(0, 0, 1, 1, 0.7)]
        out = nms(dets, NmsConfig(mode=mode))
        ref = scalar_nms(triples(dets), mode, 0.5, 0.5, 0.001)
        assert [(d.box, d.score) for d in out] == [(dets[i].box, score) for i, score in ref]


class TestMaxKeep:
    @given(
        crowded_detections(),
        st.sampled_from((HARD, SOFT_LINEAR, SOFT_GAUSSIAN)),
        st.sampled_from((0.0, 0.001, 0.3)),
        st.sampled_from(("mixed", None, 0, 1)),
        st.sampled_from(("0", "1", "n-1", "n", "n+5")),
    )
    def test_prefix_of_the_full_output(self, dets, mode, cutoff, class_id, cut):
        if class_id != "mixed":
            dets = [Detection(d.box, d.score, class_id) for d in dets]
        n = len(dets)
        k = {"0": 0, "1": 1, "n-1": max(n - 1, 0), "n": n, "n+5": n + 5}[cut]
        cfg = NmsConfig(mode, 0.5, 0.5, cutoff)
        out = nms(dets, cfg, max_keep=k)
        full = nms(dets, cfg)[:k]
        assert [(id(d.box), d.score.hex(), d.class_id) for d in out] == [
            (id(d.box), d.score.hex(), d.class_id) for d in full
        ]

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="max_keep"):
            nms([det(0, 0, 1, 1, 0.5)], max_keep=-1)

    @pytest.mark.parametrize("mode", [HARD, SOFT_LINEAR, SOFT_GAUSSIAN])
    def test_overflowing_boxes_warn_nothing(self, mode):
        huge = 1e300
        dets = [det(-huge, -huge, huge, huge, 0.9), det(-huge, 0, huge, huge, 0.8), det(0, 0, 1, 1, 0.7)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(nms(dets, NmsConfig(mode=mode))) >= 1


@st.composite
def detections_near_the_switch(draw):
    """Crowded detections, as many as the matrix switch or a few either side
    of it, with class ids mixed or shared."""
    n = draw(st.integers(_MATRIX_BELOW - 4, _MATRIX_BELOW + 4))
    classes = draw(st.sampled_from(((None,), (0, 1), (None, 0, 1))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_detections(rng, n, hi=48, classes=classes)


class TestRowSources:
    """Below _MATRIX_BELOW detections each IoU row is read from one matrix per
    call, at and above it computed per pick; either way the walk is the same."""

    @settings(max_examples=30)
    @given(
        detections_near_the_switch(),
        st.sampled_from((HARD, SOFT_LINEAR, SOFT_GAUSSIAN)),
        st.sampled_from((0.0, 0.001, 0.3)),
        st.sampled_from((None, 0, 1, 50, _MATRIX_BELOW)),
    )
    def test_both_sides_of_the_switch_equal_the_scalar_loop(self, dets, mode, cutoff, max_keep):
        out = nms(dets, NmsConfig(mode, 0.5, 0.5, cutoff), max_keep=max_keep)
        ref = scalar_nms(triples(dets), mode, 0.5, 0.5, cutoff)[:max_keep]
        assert [(id(d.box), d.score.hex(), d.class_id) for d in out] == [
            (id(dets[i].box), score.hex(), dets[i].class_id) for i, score in ref
        ]

    @given(crowded_detections(), st.sampled_from((HARD, SOFT_LINEAR, SOFT_GAUSSIAN)), st.booleans())
    def test_matrix_rows_equal_per_pick_rows(self, dets, mode, huge):
        if huge:  # overlaps of inf and nan
            dets = dets + [det(-1e300, -1e300, 1e300, 1e300, 0.9), det(-1e300, 0, 1e300, 1e300, 0.8)]
        cfg = NmsConfig(mode=mode)
        outs = []
        for below in (0, len(dets) + 1):
            with patch.object(nms_module, "_MATRIX_BELOW", below):
                outs.append([(id(d.box), d.score.hex(), d.class_id) for d in nms(dets, cfg)])
        assert outs[0] == outs[1]


def _flat_row(rng):
    """A zero-area box on the board: a point, or a segment along x or y."""
    x0, y0 = rng.randint(0, 24), rng.randint(0, 24)
    x1, y1 = rng.choice(((x0, y0), (x0, rng.randint(y0, 24)), (rng.randint(x0, 24), y0)))
    return (x0, y0, x1, y1)


def _board_row(rng):
    x0, x1 = sorted((rng.randint(0, 24), rng.randint(0, 24)))
    y0, y1 = sorted((rng.randint(0, 24), rng.randint(0, 24)))
    return (x0, y0, x1, y1)


def _huge_row(rng):
    """A box whose side spans 2e300 along x, y or both, so its area and its
    overlaps with other huge boxes overflow to inf and nan; it may be flat."""
    x0, y0, x1, y1 = _board_row(rng)
    along = rng.choice(("x", "y", "xy"))
    if "x" in along:
        x0, x1 = -1e300, 1e300
    if "y" in along:
        y0, y1 = -1e300, 1e300
    return (x0, y0, x1, y1)


def _inverted_row(rng):
    """A row with a negative extent along x or y (no Box takes it): its area
    is negative or zero, so its union with a box of the opposite area is 0."""
    x0, y0, x1, y1 = _board_row(rng)
    return rng.choice(((x1 + 1, y0, x0, y1), (x0, y1 + 1, x1, y0)))


@st.composite
def buffered_row_inputs(draw, inverted=False):
    """_MATRIX_BELOW to _MATRIX_BELOW + 8 corner rows, so the walk computes
    its own row per pick, with scores in tenths and class codes 0 to 2. The
    small board mixes in 1e300 boxes, zero-area boxes (any two have a union
    of 0, and their overlap is 0/0 before the union test), duplicates of
    earlier rows and, with ``inverted``, rows with a negative extent."""
    n = draw(st.integers(_MATRIX_BELOW, _MATRIX_BELOW + 8))
    rng = random.Random(draw(st.integers(0, 2**32)))
    makers = [_board_row] * 5 + [_flat_row, _flat_row, _huge_row] + ([_inverted_row] if inverted else [])
    boxes = []
    for _ in range(n):
        if boxes and rng.random() < 0.1:
            boxes.append(rng.choice(boxes))
        else:
            boxes.append(tuple(float(v) for v in rng.choice(makers)(rng)))
    scores = [rng.randint(0, 10) / 10 for _ in range(n)]
    classes = [rng.randint(0, 2) for _ in range(n)]
    return boxes, scores, classes


class TestBufferedRow:
    """At and above _MATRIX_BELOW rows each pick computes its IoU row into
    buffers and decays only the rivals it touches; the walk still equals the
    scalar loop, overflowing, zero-area, duplicate and zero-union pairs included."""

    @settings(max_examples=40)
    @given(
        buffered_row_inputs(inverted=True),
        st.sampled_from((HARD, SOFT_LINEAR, SOFT_GAUSSIAN)),
        st.sampled_from((0.0, 0.001, 0.3)),
        st.booleans(),
        st.sampled_from((None, 0, 1, 50, _MATRIX_BELOW + 8)),
    )
    def test_row_walk_equals_the_scalar_loop(self, drawn, mode, cutoff, with_classes, max_keep):
        boxes, scores, classes = drawn
        rows = np.array([(score, *box) for box, score in zip(boxes, scores)])
        codes = np.array(classes, dtype=np.intp) if with_classes else None
        picks = nms_rows(rows, NmsConfig(mode, 0.5, 0.5, cutoff), codes, max_keep=max_keep)
        entries = [(box, score, cls if with_classes else None) for box, score, cls in zip(boxes, scores, classes)]
        ref = scalar_nms(entries, mode, 0.5, 0.5, cutoff)[:max_keep]
        assert [(type(i), i, score.hex()) for i, score in picks] == [(int, i, score.hex()) for i, score in ref]

    @settings(max_examples=40)
    @given(
        buffered_row_inputs(),
        st.sampled_from((HARD, SOFT_LINEAR, SOFT_GAUSSIAN)),
        st.sampled_from((0.0, 0.001, 0.3)),
        st.sampled_from((None, 0, 1, 50)),
    )
    def test_detection_walk_equals_the_scalar_loop(self, drawn, mode, cutoff, max_keep):
        boxes, scores, classes = drawn
        dets = [Detection(Box(*box), score, (None, 0, 1)[cls]) for box, score, cls in zip(boxes, scores, classes)]
        out = nms(dets, NmsConfig(mode, 0.5, 0.5, cutoff), max_keep=max_keep)
        ref = scalar_nms(triples(dets), mode, 0.5, 0.5, cutoff)[:max_keep]
        assert [(id(d.box), d.score.hex(), d.class_id) for d in out] == [
            (id(dets[i].box), score.hex(), dets[i].class_id) for i, score in ref
        ]

    @pytest.mark.parametrize("mode", [HARD, SOFT_LINEAR, SOFT_GAUSSIAN])
    def test_overflowing_boxes_warn_nothing(self, mode):
        huge = 1e300
        dets = [det(-huge, -huge, huge, huge, 0.9), det(-huge, 0, huge, huge, 0.8), det(0, 0, 1, 1, 0.7)]
        dets += random_detections(random.Random(5), _MATRIX_BELOW + 1 - len(dets))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(nms(dets, NmsConfig(mode=mode))) >= 1
