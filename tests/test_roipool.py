import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cxrdet import Box, roi_max_pool
from oracles import per_bin_max_pool


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

    def test_bad_output_size(self):
        with pytest.raises(ValueError):
            roi_max_pool(ramp(4, 4), Box(0, 0, 4, 4), 0, 2)

    def test_nonfinite_map(self):
        fm = ramp(3, 3)
        fm[1, 1] = np.nan
        with pytest.raises(ValueError):
            roi_max_pool(fm, Box(0, 0, 3, 3), 1, 1)


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
