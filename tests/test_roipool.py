import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cxrdet import Box, roi_max_pool
from cxrdet.roipool import _MAX_CACHED_SIDE, _PLAN_CACHE_SIZE, _bin_taps, _taps
from oracles import list_bin_taps, per_bin_max_pool, separable_take_max_pool


def ramp(h, w):
    return np.arange(1, h * w + 1, dtype=float).reshape(h, w)


class TestExamples:
    def test_quadrant_maxes_on_ramp(self):
        out = roi_max_pool(ramp(4, 4), Box(0, 0, 4, 4), 2, 2)
        assert out.tolist() == [[6, 8], [14, 16]]

    def test_constant_map(self):
        fm = np.full((6, 9), 3.5)
        for roi in (Box(0, 0, 9, 6), Box(1.2, 0.4, 7.9, 5.5), Box(4, 4, 5, 5)):
            out = roi_max_pool(fm, roi, 3, 2)
            assert (out == 3.5).all()

    def test_five_cells_into_two_bins_share_middle_cell(self):
        # spans are {0,1,2} and {2,3,4}: both bins see the shared cell
        row = np.array([[1.0, 2.0, 9.0, 3.0, 4.0]])
        out = roi_max_pool(row, Box(0, 0, 5, 1), 2, 1)
        assert out.tolist() == [[9.0, 9.0]]
        row2 = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        assert roi_max_pool(row2, Box(0, 0, 5, 1), 2, 1).tolist() == [[3.0, 5.0]]

    def test_multichannel_pools_each_channel(self):
        fm = np.stack([ramp(4, 4), -ramp(4, 4)])
        out = roi_max_pool(fm, Box(0, 0, 4, 4), 2, 2)
        assert out.shape == (2, 2, 2)
        assert out[0].tolist() == [[6, 8], [14, 16]]
        assert out[1].tolist() == [[-1, -3], [-9, -11]]

    def test_tied_zero_takes_the_sign_of_the_last_max_cell_of_the_last_column(self):
        # rows pool first: column 0 gives -0.0 (row 1), column 1 gives 0.0 (row 0),
        # and the later column wins the tie
        fm = np.array([[-1.0, 0.0], [-0.0, -1.0]])
        out = roi_max_pool(fm, Box(0, 0, 2, 2), 1, 1)
        assert out.tolist() == [[0.0]] and not np.signbit(out).any()
        out = roi_max_pool(fm.T, Box(0, 0, 2, 2), 1, 1)
        assert out.tolist() == [[0.0]] and np.signbit(out).all()

    def test_fractional_roi_snaps_outward(self):
        out = roi_max_pool(ramp(4, 4), Box(0.2, 0.2, 3.8, 3.8), 2, 2)
        assert out.tolist() == [[6, 8], [14, 16]]


class TestErrors:
    def test_roi_outside_map(self):
        with pytest.raises(ValueError):
            roi_max_pool(ramp(4, 4), Box(10, 10, 20, 20), 2, 2)

    def test_zero_cell_roi(self):
        with pytest.raises(ValueError):
            roi_max_pool(ramp(4, 4), Box(2, 1, 2, 3), 1, 1)

    @pytest.mark.parametrize("shape", [(5,), (1, 2, 3, 4), ()])
    def test_map_must_be_2d_or_3d(self, shape):
        with pytest.raises(ValueError) as info:
            roi_max_pool(np.zeros(shape), Box(0, 0, 1, 1), 1, 1)
        assert str(info.value) == f"feature map must be 2-D or 3-D, got shape {shape}"

    def test_bad_output_size(self):
        with pytest.raises(ValueError):
            roi_max_pool(ramp(4, 4), Box(0, 0, 4, 4), 0, 2)

    def test_nonfinite_map(self):
        fm = ramp(3, 3)
        fm[1, 1] = np.nan
        with pytest.raises(ValueError):
            roi_max_pool(fm, Box(0, 0, 3, 3), 1, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_only_cells_the_roi_reads_are_checked(self, bad):
        fm = np.stack([ramp(6, 6), -ramp(6, 6)])
        roi = Box(1.5, 2.2, 3.5, 3.8)  # snaps outward to rows 2-3, columns 1-3
        expected = roi_max_pool(fm, roi, 2, 2)
        for y, x in ((2, 1), (3, 3), (3, 2)):  # inside, the last two reached only by the snap
            inside = fm.copy()
            inside[1, y, x] = bad
            with pytest.raises(ValueError, match="finite"):
                roi_max_pool(inside, roi, 2, 2)
        for y, x in ((1, 1), (4, 2), (2, 0), (3, 4), (0, 0)):  # just outside, and far
            outside = fm.copy()
            outside[:, y, x] = bad
            assert roi_max_pool(outside, roi, 2, 2).tolist() == expected.tolist()


def random_roi(rng, w, h):
    x0, x1 = sorted(rng.uniform(-2, w + 2) for _ in range(2))
    y0, y1 = sorted(rng.uniform(-2, h + 2) for _ in range(2))
    return Box(x0, y0, x1, y1)


def snapped_region(roi, w, h):
    x0 = int(np.floor(max(roi.x_min, 0)))
    y0 = int(np.floor(max(roi.y_min, 0)))
    x1 = int(np.ceil(min(roi.x_max, w)))
    y1 = int(np.ceil(min(roi.y_max, h)))
    return x0, y0, x1, y1


class TestProperties:
    def test_outputs_are_input_values_from_the_roi(self):
        rng = random.Random(101)
        for _ in range(200):
            h, w = rng.randint(1, 12), rng.randint(1, 12)
            fm = np.array([[rng.uniform(-5, 5) for _ in range(w)] for _ in range(h)])
            roi = random_roi(rng, w, h)
            try:
                out = roi_max_pool(fm, roi, rng.randint(1, 4), rng.randint(1, 4))
            except ValueError:
                continue
            x0, y0, x1, y1 = snapped_region(roi, w, h)
            region_values = set(fm[y0:y1, x0:x1].ravel().tolist())
            assert set(out.ravel().tolist()) <= region_values

    def test_bin_union_covers_every_snapped_cell(self):
        # the overall output max must equal the region max wherever the
        # distinguished hot cell lands, so no cell can be missed by all bins
        rng = random.Random(103)
        for _ in range(200):
            h, w = rng.randint(1, 10), rng.randint(1, 10)
            roi = random_roi(rng, w, h)
            x0, y0, x1, y1 = snapped_region(roi, w, h)
            if x1 <= x0 or y1 <= y0:
                continue
            hot_r = rng.randrange(y0, y1)
            hot_c = rng.randrange(x0, x1)
            fm = np.zeros((h, w))
            fm[hot_r, hot_c] = 7.0
            out = roi_max_pool(fm, roi, rng.randint(1, 5), rng.randint(1, 5))
            assert out.max() == 7.0

    def test_monotone_in_the_feature_map(self):
        rng = random.Random(107)
        for _ in range(100):
            h, w = rng.randint(2, 10), rng.randint(2, 10)
            fm = np.array([[rng.uniform(-5, 5) for _ in range(w)] for _ in range(h)])
            bumped = fm + np.abs(np.random.default_rng(rng.getrandbits(32)).normal(size=fm.shape))
            roi = Box(0, 0, w, h)
            ow, oh = rng.randint(1, 4), rng.randint(1, 4)
            assert (roi_max_pool(bumped, roi, ow, oh) >= roi_max_pool(fm, roi, ow, oh)).all()

    def test_exact_cell_grid_is_a_copy(self):
        fm = ramp(3, 5)
        out = roi_max_pool(fm, Box(0, 0, 5, 3), 5, 3)
        assert out.tolist() == fm.tolist()
        sub = roi_max_pool(fm, Box(1, 1, 4, 3), 3, 2)
        assert sub.tolist() == fm[1:3, 1:4].tolist()


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from((np.float64, np.float32, np.int64, np.int32, np.uint8)),
    st.sampled_from((None, 1, 3)),
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(1, 5),
    st.integers(1, 5),
)
def test_bit_identical_to_per_bin_loop(seed, dtype, channels, h, w, out_w, out_h):
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    shape = (h, w) if channels is None else (channels, h, w)
    values = gen.integers(0, 6, size=shape)  # few values: ties inside bins
    if np.dtype(dtype).kind == "f" and rng.random() < 0.5:
        values = values + gen.standard_normal(shape)
    fm = values.astype(dtype)
    roi = random_roi(rng, w, h)
    try:
        got = roi_max_pool(fm, roi, out_w, out_h)
    except ValueError:
        return
    want = per_bin_max_pool(fm, (roi.x_min, roi.y_min, roi.x_max, roi.y_max), out_w, out_h)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# Rois 0.5x to 6x the output grid, so bins span 1, 2, 3 and 6 cells (and
# overlap when the roi is smaller than the grid), on wide and integer maps.
FLOAT_MAP = np.random.default_rng(7).standard_normal((256, 48, 48))
INT_MAP = np.random.default_rng(11).integers(-50, 50, size=(48, 48))


@pytest.mark.parametrize("fm", [FLOAT_MAP, INT_MAP], ids=["float64-256ch", "int-2d"])
@pytest.mark.parametrize("scale", [0.5, 1, 2, 3, 6])
@pytest.mark.parametrize("origin", [(3.0, 2.0), (1.25, 2.5)])
def test_long_bins_equal_per_bin_loop(fm, scale, origin):
    out_w, out_h = 7, 5
    x0, y0 = origin
    roi = Box(x0, y0, x0 + scale * out_w, y0 + scale * out_h)
    got = roi_max_pool(fm, roi, out_w, out_h)
    want = per_bin_max_pool(fm, (roi.x_min, roi.y_min, roi.x_max, roi.y_max), out_w, out_h)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def laid_out(values, layout):
    """``values`` as a map with the same cells in another memory layout."""
    if layout == "fortran":
        return np.asfortranarray(values)
    if layout == "sliced":  # every other row and column of a larger map
        shape = values.shape[:-2] + (2 * values.shape[-2], 2 * values.shape[-1] + 1)
        big = np.ones(shape, dtype=values.dtype)
        big[..., ::2, 1::2] = values
        return big[..., ::2, 1::2]
    if layout == "reversed":  # negative strides on every axis
        return np.flip(np.flip(values).copy())
    return values


def assert_matches_separable_take_form(fm, roi, out_w, out_h):
    got = roi_max_pool(fm, roi, out_w, out_h)
    want = separable_take_max_pool(fm, (roi.x_min, roi.y_min, roi.x_max, roi.y_max), out_w, out_h)
    assert got.dtype == fm.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous
    assert not np.shares_memory(got, fm)


def signed_zero_map(gen, shape, kind):
    if kind == "signed-zeros":  # every cell ties: the tap order alone picks the sign
        return np.where(gen.random(shape) < 0.5, -0.0, 0.0)
    return gen.choice(np.array([-1.0, -0.0, 0.0]), size=shape)  # ties among the non-negative


LAYOUTS = ("c", "fortran", "sliced", "reversed")


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from((np.float64, np.float32, np.int64, np.uint8, np.bool_)),
    st.sampled_from((None, 0, 1, 3)),
    st.sampled_from(LAYOUTS),
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(1, 5),
    st.integers(1, 5),
)
def test_bit_identical_to_separable_take_form(seed, dtype, channels, layout, h, w, out_w, out_h):
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    shape = (h, w) if channels is None else (channels, h, w)
    kind = rng.choice(("mixed", "signed-zeros", "zeros-and-minus-one"))
    if kind == "mixed" or np.dtype(dtype).kind != "f":
        values = gen.integers(0, 6, size=shape)
        if np.dtype(dtype).kind == "f" and rng.random() < 0.5:
            values = values + gen.standard_normal(shape)
    else:
        values = signed_zero_map(gen, shape, kind)
    roi = random_roi(rng, w, h)
    x0, y0, x1, y1 = snapped_region(roi, w, h)
    if x1 > x0 and y1 > y0:
        assert_matches_separable_take_form(laid_out(values.astype(dtype), layout), roi, out_w, out_h)


@pytest.mark.parametrize("kind", ["signed-zeros", "zeros-and-minus-one"])
def test_tied_zero_signs_match_separable_take_form(kind):
    # pooling columns before rows gives a tied zero the other sign in only
    # about one case in ten, so sweep many
    rng = random.Random(109)
    gen = np.random.default_rng(109)
    for _ in range(600):
        h, w = rng.randint(1, 9), rng.randint(1, 9)
        shape = rng.choice(((h, w), (1, h, w), (3, h, w)))
        dtype = rng.choice((np.float64, np.float32))
        fm = laid_out(signed_zero_map(gen, shape, kind).astype(dtype), rng.choice(LAYOUTS))
        x0, y0, x1, y1 = snapped_region(random_roi(rng, w, h), w, h)
        if x1 > x0 and y1 > y0:
            roi = Box(x0, y0, x1, y1)
            assert_matches_separable_take_form(fm, roi, rng.randint(1, 5), rng.randint(1, 5))


class TestTapPlans:
    @given(st.integers(1, 3 * _MAX_CACHED_SIDE), st.integers(1, 3 * _MAX_CACHED_SIDE))
    def test_equal_the_list_built_taps(self, cells, bins):
        want = list_bin_taps(cells, bins)
        for plan in (_taps(cells, bins), _taps(cells, bins)):  # built, then cached when small
            assert all(t.dtype == np.intp for t in plan)
            assert [t.tolist() for t in plan] == want

    def test_cached_arrays_are_read_only(self):
        plan = _bin_taps(9, 7)
        assert _taps(9, 7) is plan
        for t in plan:
            assert not t.flags.writeable
            with pytest.raises(ValueError):
                t[0] = 0

    @pytest.mark.parametrize("cells, bins", [(9, 7), (3, 1), (1, 5), (_MAX_CACHED_SIDE, 3)])
    def test_cached_plan_is_one_read_only_array(self, cells, bins):
        plan = _taps(cells, bins)
        assert _taps(cells, bins) is plan
        assert isinstance(plan, np.ndarray)
        assert plan.ndim == 2 and plan.shape[1] == bins
        assert plan.dtype == np.intp
        assert not plan.flags.writeable
        with pytest.raises(ValueError):
            plan[0, 0] = 0

    def test_cache_stays_within_its_bound(self):
        _bin_taps.cache_clear()
        for cells in range(1, 41):
            for bins in range(1, 11):
                _taps(cells, bins)
                assert _bin_taps.cache_info().currsize <= _PLAN_CACHE_SIZE
        assert _bin_taps.cache_info().currsize == _PLAN_CACHE_SIZE

    def test_huge_grid_leaves_no_plan_behind(self):
        _bin_taps.cache_clear()
        fm = ramp(3, 4)
        out = roi_max_pool(fm, Box(0, 0, 4, 3), 20_000, 1)
        assert out.shape == (1, 20_000)
        assert out.tobytes() == per_bin_max_pool(fm, (0, 0, 4, 3), 20_000, 1).tobytes()
        # only the row plan (3 cells into 1 bin) is cached; the column plan is too wide
        assert _bin_taps.cache_info().currsize == 1
        _taps(3, 1)
        assert _bin_taps.cache_info().hits == 1

    def test_retained_memory_is_bounded(self):
        # fill the cache twice over with the largest plans it may keep, and
        # show what stays behind is bounded (the worst case is about 110 kB)
        _bin_taps.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for bins in range(2 * _PLAN_CACHE_SIZE, 0, -1):  # the largest plans come last
                _taps(_MAX_CACHED_SIDE, bins)
                _taps(3 * _MAX_CACHED_SIDE, bins)  # never cached
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            _bin_taps.cache_clear()
        assert _bin_taps.cache_info().currsize == 0
        assert retained < 160_000


# A detector-sized map: every roi below pools at the grid size the detector
# uses, so all but the first few calls run on cached plans.
DETECTOR_MAP = np.random.default_rng(13).standard_normal((256, 32, 32))


@pytest.mark.parametrize("kind", ["float", "signed-zeros", "zeros-and-minus-one"])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("channels", [None, 256])
def test_repeated_plans_match_separable_take_form(kind, layout, channels):
    rng = random.Random(113)
    gen = np.random.default_rng(113)
    shape = (32, 32) if channels is None else (channels, 32, 32)
    if kind == "float":
        values = DETECTOR_MAP[0] if channels is None else DETECTOR_MAP
    else:
        values = signed_zero_map(gen, shape, kind)
    fm = laid_out(values, layout)
    for _ in range(40):
        x0, y0 = rng.uniform(-2, 30), rng.uniform(-2, 30)
        roi = Box(x0, y0, x0 + rng.uniform(0.5, 12), y0 + rng.uniform(0.5, 12))
        assert_matches_separable_take_form(fm, roi, 7, 7)
