import importlib
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cxrdet.geometry
from cxrdet import Box, area, intersection_area, iou
from cxrdet.geometry import box_columns, clip_corners, corners, iou_columns, iou_matrix
from oracles import raster_iou, tuple_corners

coord = st.integers(min_value=0, max_value=64)


@st.composite
def int_boxes(draw):
    x0, x1 = sorted((draw(coord), draw(coord)))
    y0, y1 = sorted((draw(coord), draw(coord)))
    return Box(float(x0), float(y0), float(x1), float(y1))


fcoord = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def float_boxes(draw):
    x0, x1 = sorted((draw(fcoord), draw(fcoord)))
    y0, y1 = sorted((draw(fcoord), draw(fcoord)))
    return Box(x0, y0, x1, y1)


class TestBox:
    def test_degenerate_boxes_allowed(self):
        assert area(Box(5, 5, 5, 9)) == 0.0
        assert area(Box(5, 5, 5, 5)) == 0.0

    @pytest.mark.parametrize("coords", [(2, 0, 0, 2), (0, 2, 2, 0), (1, 1, 0.5, 2)])
    def test_negative_extent_rejected(self, coords):
        with pytest.raises(ValueError, match="must be non-negative"):
            Box(*coords)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            Box(0, 0, bad, 1)

    @given(st.lists(st.sampled_from((-1.0, 0.0, 2.5, math.nan, math.inf, -math.inf)), min_size=4, max_size=4))
    def test_each_bad_box_names_its_fault(self, coords):
        x0, y0, x1, y1 = coords
        if not all(map(math.isfinite, coords)):
            with pytest.raises(ValueError, match="must be finite"):
                Box(*coords)
        elif x1 < x0 or y1 < y0:
            with pytest.raises(ValueError, match="must be non-negative"):
                Box(*coords)
        else:
            assert Box(*coords).to_xywh() == (x0, y0, x1 - x0, y1 - y0)

    def test_xywh_round_trip(self):
        box = Box.from_xywh(10, 20, 30, 40)
        assert box == Box(10, 20, 40, 60)
        assert box.to_xywh() == (10, 20, 30, 40)

    @pytest.mark.parametrize("xywh, message", [
        ((0, 0, -1, 1), "negative box extent -1"),
        ((0, 0, 1, -2.5), "negative box extent -2.5"),
        ((0, 0, -1, -2), "negative box extent -1"),
        # x + w rounds back to x, so only the extent itself shows the fault
        ((1e20, 0, -1, 1), "negative box extent -1"),
        ((0, 1e20, 1, -1), "negative box extent -1"),
    ])
    def test_from_xywh_refuses_a_negative_extent_before_adding(self, xywh, message):
        with pytest.raises(ValueError) as info:
            Box.from_xywh(*xywh)
        assert str(info.value) == message

    def test_center_and_sides(self):
        box = Box(0, 0, 4, 2)
        assert box.center == (2.0, 1.0)
        assert (box.width, box.height) == (4.0, 2.0)


def test_detection_has_one_home():
    """Detection is defined in geometry, beside Box; the package and nms re-export that one class."""
    nms_module = importlib.import_module("cxrdet.nms")  # cxrdet.nms is the function the package re-exports
    assert cxrdet.Detection is nms_module.Detection is cxrdet.geometry.Detection
    assert cxrdet.Detection.__module__ == "cxrdet.geometry"


class TestArea:
    def test_unit_square_arithmetic(self):
        assert area(Box(0, 0, 2, 2)) == 4.0

    def test_integer_box_matches_cell_count(self):
        # 3 x 7 rasterized cells
        assert area(Box(0, 0, 3, 7)) == 21.0


class TestIntersection:
    def test_partial_overlap(self):
        assert intersection_area(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == 1.0

    def test_edge_touch_is_zero(self):
        assert intersection_area(Box(0, 0, 2, 2), Box(2, 0, 4, 2)) == 0.0

    def test_self_intersection_equals_area(self):
        box = Box(0, 0, 10, 10)
        assert intersection_area(box, box) == 100.0

    @given(int_boxes(), int_boxes())
    def test_never_exceeds_smaller_area(self, a, b):
        assert intersection_area(a, b) <= min(area(a), area(b))


class TestIou:
    def test_identical_boxes(self):
        box = Box(0, 0, 10, 10)
        assert iou(box, box) == 1.0

    def test_one_seventh_overlap(self):
        # rasterization: intersection 1 cell, union 7 cells
        assert iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == pytest.approx(1 / 7, abs=1e-12)

    def test_disjoint(self):
        assert iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0

    def test_both_degenerate_defined_as_zero(self):
        assert iou(Box(1, 1, 1, 1), Box(1, 1, 1, 1)) == 0.0
        assert iou(Box(0, 0, 0, 5), Box(0, 0, 5, 0)) == 0.0

    @given(float_boxes(), float_boxes())
    def test_symmetric(self, a, b):
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0

    @given(float_boxes())
    def test_self_iou_is_one(self, box):
        if area(box) > 0:
            assert iou(box, box) == 1.0

    @given(int_boxes(), int_boxes())
    def test_matches_rasterization_oracle(self, a, b):
        expected = raster_iou(
            (a.x_min, a.y_min, a.x_max, a.y_max),
            (b.x_min, b.y_min, b.x_max, b.y_max),
            grid=65,
        )
        assert iou(a, b) == pytest.approx(expected, abs=1e-12)


def test_rasterization_oracle_bulk():
    rng = random.Random(20240901)
    for _ in range(2000):
        coords = [sorted(rng.randint(0, 64) for _ in range(2)) for _ in range(4)]
        a = Box(coords[0][0], coords[1][0], coords[0][1], coords[1][1])
        b = Box(coords[2][0], coords[3][0], coords[2][1], coords[3][1])
        expected = raster_iou(
            (a.x_min, a.y_min, a.x_max, a.y_max),
            (b.x_min, b.y_min, b.x_max, b.y_max),
            grid=65,
        )
        assert abs(iou(a, b) - expected) <= 1e-12


# a small shared pool of values makes touching, nested and zero-area boxes
# common; the scale reaches 1e300, where areas overflow to inf and IoU to nan
pooled = st.sampled_from((-1.0, -0.0, 0.0, 0.25, 0.5, 1.0))
any_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def box_batches(draw):
    scale = draw(st.sampled_from((1.0, 3.0, 1e-300, 1e150, 1e300)))
    boxes = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            xs, ys = [draw(pooled) * scale for _ in range(2)], [draw(pooled) * scale for _ in range(2)]
        else:
            xs, ys = [draw(any_finite) for _ in range(2)], [draw(any_finite) for _ in range(2)]
        boxes.append(Box(min(xs), min(ys), max(xs), max(ys)))
    return boxes


class TestIouMatrix:
    @given(box_batches(), box_batches())
    def test_bit_identical_to_scalar_iou(self, a, b):
        got = iou_matrix(corners(a), corners(b))
        want = np.array([[iou(p, q) for q in b] for p in a], dtype=np.float64).reshape(len(a), len(b))
        assert got.shape == want.shape
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_bit_identical_on_random_overlaps(self):
        # real-valued, mostly overlapping boxes, where any reordering of the arithmetic shows in the last bits
        rng = random.Random(3)
        boxes = []
        for _ in range(150):
            x, y = rng.uniform(0, 50), rng.uniform(0, 50)
            boxes.append(Box(x, y, x + rng.uniform(0, 60), y + rng.uniform(0, 60)))
        got = iou_matrix(corners(boxes), corners(boxes))
        want = np.array([[iou(p, q) for q in boxes] for p in boxes], dtype=np.float64)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_named_cases(self):
        big = Box(-1e300, -1e300, 1e300, 1e300)
        boxes = [Box(0, 0, 2, 2), Box(2, 0, 4, 2), Box(1, 1, 1, 5), Box(0.5, 0.5, 1.5, 1.5), big]
        got = iou_matrix(corners(boxes), corners(boxes))
        assert got[0, 1] == 0.0  # touching along an edge
        assert got[0, 2] == 0.0 and got[2, 2] == 0.0  # zero area
        assert got[0, 3] == 0.25  # nested
        assert math.isnan(got[4, 4]) and math.isnan(iou(big, big))  # inf - inf, as in the scalar form
        assert corners([]).shape == (0, 4)


def _unchecked_box(x0, y0, x1, y1):
    """A Box built without the constructor's checks, so its extents may be negative."""
    box = object.__new__(Box)
    for name, v in zip(("x_min", "y_min", "x_max", "y_max"), (x0, y0, x1, y1)):
        object.__setattr__(box, name, v)
    return box


# ends of 1e300 make areas overflow to inf and overlaps to nan; repeated ends make zero-area rows
edge = st.sampled_from((-1e300, 0.0, 0.5, 1.0, 3.0, 1e300))


@st.composite
def board_rows(draw):
    """(N, 4) corner rows on a small board. About one row in four keeps its
    ends in drawn order, so it may be inverted: a negative extent gives it a
    negative area, and its union with a box of the opposite area is 0."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        x0, x1, y0, y1 = (draw(edge) for _ in range(4))
        if draw(st.integers(0, 3)):
            (x0, x1), (y0, y1) = sorted((x0, x1)), sorted((y0, y1))
        rows.append((x0, y0, x1, y1))
    return np.array(rows)


def _hexes(values):
    return [v.hex() for v in np.ravel(values).tolist()]


class TestIouColumns:
    """iou_columns in the three broadcast forms its callers use: one box's
    five scalars against columns (an NMS pick's row), column against column
    (the scorer's pair pass) and (5, N, 1) against (5, 1, M) (iou_matrix)."""

    @given(board_rows(), board_rows(), st.booleans())
    def test_bit_identical_to_scalar_iou(self, a, b, with_out):
        ca, cb = box_columns(a), box_columns(b)
        boxes_a, boxes_b = [_unchecked_box(*r) for r in a.tolist()], [_unchecked_box(*r) for r in b.tolist()]
        pa, pb = np.repeat(np.arange(len(a)), len(b)), np.tile(np.arange(len(b)), len(a))
        forms = [(ca[:, 0].tolist(), cb, [iou(boxes_a[0], q) for q in boxes_b]),
                 (ca[:, pa], cb[:, pb], [iou(boxes_a[i], boxes_b[j]) for i, j in zip(pa, pb)]),
                 (ca[:, :, None], cb[:, None, :], [[iou(p, q) for q in boxes_b] for p in boxes_a])]
        for left, right, want in forms:
            out = np.full((5, *np.shape(want)), np.nan) if with_out else None  # stale values change nothing
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(all="ignore"):
                    got = iou_columns(left, right, out)
            assert got.shape == np.shape(want)
            assert _hexes(got) == _hexes(want)
            if with_out:
                assert np.shares_memory(got, out[4])

    def test_results_own_their_memory(self):
        a = corners([Box(0, 0, 2, 2), Box(1, 1, 3, 3), Box(0, 0, 0, 5)])
        ca = box_columns(a)
        with np.errstate(invalid="ignore"):  # the zero-area box against itself is 0/0
            results = (iou_columns(ca[:, 0].tolist(), ca), iou_columns(ca, ca),
                       iou_columns(ca[:, :, None], ca[:, None, :]), iou_matrix(a, a))
        for got in results:
            assert got.base is None  # not a view that keeps the four scratch arrays alive


# coordinate types a caller may hand Box: numpy scalars widen exactly to float64
as_type = st.sampled_from((float, np.float64, np.float32, np.float16))


def _fits(box, kind):
    """Whether ``box`` keeps finite corners once cast to ``kind`` (rounding keeps their order)."""
    with np.errstate(over="ignore"):
        return all(math.isfinite(kind(v)) for v in (box.x_min, box.y_min, box.x_max, box.y_max))


class TestCorners:
    @given(box_batches(), as_type)
    def test_equals_the_tuple_form(self, boxes, kind):
        boxes = [Box(*(kind(v) for v in (b.x_min, b.y_min, b.x_max, b.y_max))) for b in boxes if _fits(b, kind)]
        want = tuple_corners(boxes)
        for got in (corners(boxes), corners(iter(boxes)), corners(b for b in boxes)):
            assert got.dtype == np.float64 and got.shape == (len(boxes), 4)
            assert got.tobytes() == want.tobytes()

    def test_empty_input(self):
        for empty in ([], (), iter([]), (b for b in [])):
            got = corners(empty)
            assert got.dtype == np.float64 and got.shape == (0, 4)

    def test_integer_coordinates(self):
        boxes = [Box(0, 1, 2**53 + 1, 3), Box(-5, -4, 2**70, 7)]
        assert corners(boxes).tobytes() == tuple_corners(boxes).tobytes()

    def test_int_too_large_for_a_float_overflows(self):
        box = Box(0, 0, 10**400, 1)  # Box compares it exactly and accepts it
        for build in (corners, tuple_corners):
            with pytest.raises(OverflowError):
                build([Box(0, 0, 1, 1), box])
            with pytest.raises(OverflowError):
                build(b for b in [box])


class TestClipCorners:
    @given(st.lists(st.tuples(*[st.sampled_from((0.0, -0.0, 5.0, 7.0, -3.0, 9.5)) | st.floats(-20.0, 20.0)] * 4),
                    max_size=6),
           st.sampled_from((7.0, 5, 0.5)), st.sampled_from((5.0, 7, 0.25)))
    def test_equals_max_then_min_per_corner(self, rows, w, h):
        # as max(v, 0.0) then min(v, bound) on Python floats, down to the sign of a zero
        arr = np.array(rows, dtype=float).reshape(-1, 4)
        got = clip_corners(arr, w, h)
        assert got is arr
        want = [[min(max(v, 0.0), float(bound)) for v, bound in zip(row, (w, h, w, h))] for row in rows]
        assert repr(got.tolist()) == repr(want)
