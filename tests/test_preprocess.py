import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cxrdet import (
    AugmentSpec,
    Box,
    augment,
    clahe,
    decode_pgm,
    encode_pgm,
    resize,
    scale_boxes,
)
from cxrdet import preprocess
from cxrdet.preprocess import _BAND_PIXELS, _BAND_ROWS, MAX_CLAHE_TILES, MAX_RESIZE_PIXELS, MAX_SIDE
from oracles import (
    byte_loop_decode_pgm,
    global_hist_eq,
    per_box_hull_boxes,
    whole_image_augment,
    whole_image_clahe,
    whole_image_resize,
)


def random_image(rng, h, w):
    return np.array(
        [[rng.randint(0, 255) for _ in range(w)] for _ in range(h)], dtype=np.uint8
    )


class TestClahe:
    def test_constant_image_stays_constant(self):
        img = np.full((32, 32), 77, dtype=np.uint8)
        out = clahe(img)
        assert out.shape == img.shape
        assert len(np.unique(out)) == 1

    def test_single_tile_unclipped_equals_global_equalization(self):
        rng = random.Random(79)
        for _ in range(10):
            img = random_image(rng, 64, 64)
            out = clahe(img, tiles_x=1, tiles_y=1, clip_limit=math.inf)
            assert (out == global_hist_eq(img)).all()

    def test_output_shape_and_dtype(self):
        img = np.zeros((512, 512), dtype=np.uint8)
        img[::3, ::5] = 200
        out = clahe(img, tiles_x=8, tiles_y=8, clip_limit=2.0)
        assert out.shape == (512, 512)
        assert out.dtype == np.uint8

    def test_clipping_tames_the_mapping(self):
        # heavily peaked histogram: unclipped equalization swings harder
        # than the clipped version
        rng = random.Random(83)
        img = np.full((64, 64), 100, dtype=np.uint8)
        for _ in range(200):
            img[rng.randrange(64), rng.randrange(64)] = rng.randint(0, 255)
        strong = clahe(img, tiles_x=1, tiles_y=1, clip_limit=math.inf).astype(int)
        tame = clahe(img, tiles_x=1, tiles_y=1, clip_limit=2.0).astype(int)
        assert np.abs(tame - img.astype(int)).mean() < np.abs(strong - img.astype(int)).mean()

    def test_image_smaller_than_tile_grid_rejected(self):
        with pytest.raises(ValueError):
            clahe(np.zeros((4, 4), dtype=np.uint8), tiles_x=8, tiles_y=8)

    @pytest.mark.parametrize("kwargs", [{"tiles_x": 0}, {"clip_limit": 0.0}, {"clip_limit": -1}])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            clahe(np.zeros((32, 32), dtype=np.uint8), **kwargs)

    def test_non_uint8_rejected(self):
        with pytest.raises(ValueError):
            clahe(np.zeros((16, 16), dtype=float))

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
    def test_empty_image_rejected(self, shape):
        with pytest.raises(ValueError) as info:
            clahe(np.zeros(shape, dtype=np.uint8))
        assert str(info.value) == "image must be non-empty"

    @pytest.mark.parametrize("tiles_x, tiles_y", [(MAX_CLAHE_TILES + 1, 1), (257, 256), (4096, 4096)])
    def test_grid_past_the_tile_cap_rejected_before_allocation(self, tiles_x, tiles_y):
        assert MAX_CLAHE_TILES == 256 * 256
        with pytest.raises(ValueError) as info:
            clahe(np.zeros((4, 4), dtype=np.uint8), tiles_x=tiles_x, tiles_y=tiles_y)
        assert str(info.value) == f"tile grid {tiles_x}x{tiles_y} exceeds {MAX_CLAHE_TILES} tiles"

    def test_grid_at_the_tile_cap_runs(self, monkeypatch):
        monkeypatch.setattr(preprocess, "MAX_CLAHE_TILES", 6)
        img = np.arange(64, dtype=np.uint8).reshape(8, 8)
        assert clahe(img, tiles_x=3, tiles_y=2).shape == (8, 8)
        with pytest.raises(ValueError, match="^tile grid 7x1 exceeds 6 tiles$"):
            clahe(img, tiles_x=7, tiles_y=1)


class TestResize:
    def test_downscale_dimensions(self):
        img = np.zeros((1024, 1024), dtype=np.uint8)
        assert resize(img, 512, 512).shape == (512, 512)

    def test_identity_resize_is_pixel_exact(self):
        rng = random.Random(89)
        img = random_image(rng, 37, 23)
        assert (resize(img, 23, 37) == img).all()

    def test_constant_image_any_size(self):
        img = np.full((20, 30), 140, dtype=np.uint8)
        for out_w, out_h in ((7, 13), (30, 20), (61, 41)):
            out = resize(img, out_w, out_h)
            assert out.shape == (out_h, out_w)
            assert (out == 140).all()

    def test_constant_round_trip_is_exact(self):
        img = np.full((16, 16), 9, dtype=np.uint8)
        assert (resize(resize(img, 11, 7), 16, 16) == img).all()

    def test_bad_size(self):
        with pytest.raises(ValueError):
            resize(np.zeros((4, 4), dtype=np.uint8), 0, 4)

    @pytest.mark.parametrize("out_w, out_h", [(100_000, 100_000), (8193, 8192), (MAX_RESIZE_PIXELS + 1, 1)])
    def test_output_past_the_pixel_cap_rejected_before_allocation(self, out_w, out_h):
        assert MAX_RESIZE_PIXELS == 8192 * 8192
        with pytest.raises(ValueError, match=f"output size {out_w}x{out_h} exceeds {MAX_RESIZE_PIXELS} pixels"):
            resize(np.zeros((4, 4), dtype=np.uint8), out_w, out_h)


class TestScaleBoxes:
    def test_uniform_halving(self):
        assert scale_boxes([Box(0, 0, 10, 10)], 0.5, 0.5) == [Box(0, 0, 5, 5)]

    def test_componentwise(self):
        assert scale_boxes([Box(100, 200, 300, 400)], 0.5, 0.25) == [Box(50, 50, 150, 100)]

    def test_round_trip(self):
        rng = random.Random(97)
        for _ in range(100):
            x0, x1 = sorted(rng.uniform(0, 500) for _ in range(2))
            y0, y1 = sorted(rng.uniform(0, 500) for _ in range(2))
            box = Box(x0, y0, x1, y1)
            s = rng.uniform(0.1, 8)
            (back,) = scale_boxes(scale_boxes([box], s, s), 1 / s, 1 / s)
            for a, b in zip(
                (back.x_min, back.y_min, back.x_max, back.y_max),
                (box.x_min, box.y_min, box.x_max, box.y_max),
            ):
                assert abs(a - b) < 1e-9

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValueError):
            scale_boxes([Box(0, 0, 1, 1)], 0.0, 1.0)


class TestAugment:
    def test_hflip_maps_box_across_the_midline(self):
        img = np.zeros((10, 100), dtype=np.uint8)
        _, boxes = augment(img, [Box(10, 0, 30, 10)], AugmentSpec(hflip=True))
        assert boxes == [Box(70, 0, 90, 10)]

    def test_double_hflip_is_identity(self):
        rng = random.Random(101)
        for _ in range(20):
            h, w = rng.randint(4, 40), rng.randint(4, 40)
            img = random_image(rng, h, w)
            boxes = []
            for _ in range(rng.randint(0, 4)):
                x0, x1 = sorted(rng.randint(0, w) for _ in range(2))
                y0, y1 = sorted(rng.randint(0, h) for _ in range(2))
                boxes.append(Box(x0, y0, x1, y1))
            flip = AugmentSpec(hflip=True)
            once_img, once_boxes = augment(img, boxes, flip)
            twice_img, twice_boxes = augment(once_img, once_boxes, flip)
            assert (twice_img == img).all()
            assert twice_boxes == boxes

    def test_identity_spec_is_identity(self):
        rng = random.Random(103)
        img = random_image(rng, 12, 18)
        boxes = [Box(2, 3, 10, 7)]
        out_img, out_boxes = augment(img, boxes, AugmentSpec())
        assert (out_img == img).all()
        assert out_boxes == boxes

    def test_integer_shift_moves_pixels_and_zero_fills(self):
        img = np.full((8, 8), 200, dtype=np.uint8)
        out, _ = augment(img, [], AugmentSpec(shift_x=3, shift_y=0))
        assert (out[:, :3] == 0).all()
        assert (out[:, 3:] == 200).all()

    def test_boxes_pushed_off_the_image_are_dropped(self):
        img = np.zeros((10, 10), dtype=np.uint8)
        _, boxes = augment(img, [Box(1, 1, 3, 3)], AugmentSpec(shift_x=50))
        assert boxes == []

    def test_boxes_partially_pushed_out_are_clipped(self):
        img = np.zeros((10, 10), dtype=np.uint8)
        _, boxes = augment(img, [Box(4, 4, 8, 8)], AugmentSpec(shift_x=4, shift_y=-6))
        assert boxes == [Box(8, 0, 10, 2)]

    def test_rotated_content_stays_inside_its_hull_box(self):
        img = np.zeros((64, 64), dtype=np.uint8)
        img[10:20, 30:40] = 255
        spec = AugmentSpec(rotation_deg=30.0, shift_x=3.0, shift_y=-2.0)
        out, boxes = augment(img, [Box(30, 10, 40, 20)], spec)
        assert len(boxes) == 1
        r, c = np.unravel_index(np.argmax(out), out.shape)
        box = boxes[0]
        assert box.x_min <= c + 0.5 <= box.x_max
        assert box.y_min <= r + 0.5 <= box.y_max

    def test_rotation_by_360_restores_content(self):
        rng = random.Random(107)
        img = random_image(rng, 16, 16)
        out, _ = augment(img, [], AugmentSpec(rotation_deg=360.0))
        assert np.abs(out.astype(int) - img.astype(int)).max() <= 1

    def test_augmented_boxes_respect_bounds(self):
        rng = random.Random(109)
        for _ in range(50):
            h, w = rng.randint(8, 32), rng.randint(8, 32)
            img = np.zeros((h, w), dtype=np.uint8)
            boxes = []
            for _ in range(rng.randint(1, 4)):
                x0, x1 = sorted(rng.uniform(0, w) for _ in range(2))
                y0, y1 = sorted(rng.uniform(0, h) for _ in range(2))
                boxes.append(Box(x0, y0, x1, y1))
            spec = AugmentSpec(
                rotation_deg=rng.uniform(-45, 45),
                shift_x=rng.uniform(-10, 10),
                shift_y=rng.uniform(-10, 10),
                hflip=rng.random() < 0.5,
            )
            _, out_boxes = augment(img, boxes, spec)
            for b in out_boxes:
                assert 0 <= b.x_min <= b.x_max <= w
                assert 0 <= b.y_min <= b.y_max <= h

    def test_nonfinite_spec_rejected(self):
        with pytest.raises(ValueError):
            AugmentSpec(rotation_deg=math.nan)


def edge_coords(side):
    """Coordinates on, just inside and just past each edge of a side, huge
    ones whose mapped corners overflow, and any in between."""
    edges = (0.0, -0.0, -5e-324, 5e-324, -1.0, side / 2, side, math.nextafter(side, 0.0),
             math.nextafter(side, math.inf), side + 1.0, 1.7e308, -1.7e308)
    return st.sampled_from(edges) | st.floats(-2.0 * side, 3.0 * side)


@st.composite
def augment_cases(draw):
    """A film size, boxes touching or crossing its edges (zero-size ones and
    none at all included), and a turn of 0, 90 or 180 degrees or any angle,
    with a shift by up to a film size and with or without a flip."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    boxes = []
    for _ in range(draw(st.integers(0, 5))):
        x0, x1 = sorted(draw(st.lists(edge_coords(w), min_size=2, max_size=2)))
        y0, y1 = sorted(draw(st.lists(edge_coords(h), min_size=2, max_size=2)))
        boxes.append(Box(x0, y0, x1, y1))
    rotation = draw(st.sampled_from((0.0, 90.0, 180.0, -90.0, 270.0)) | st.floats(-360.0, 360.0))
    shift_x = draw(st.sampled_from((0.0, -0.0, float(w), -float(w), 0.5)) | st.floats(-w, w))
    shift_y = draw(st.sampled_from((0.0, -0.0, float(h), -float(h), 0.5)) | st.floats(-h, h))
    return h, w, boxes, AugmentSpec(rotation, shift_x, shift_y, draw(st.booleans()))


@settings(max_examples=300)
@given(augment_cases())
def test_augment_boxes_equal_the_per_box_hull(case):
    # repr tells 0.0 from -0.0, so a zero's sign must match too
    h, w, boxes, spec = case
    _, got = augment(np.zeros((h, w), dtype=np.uint8), boxes, spec)
    assert repr(got) == repr(per_box_hull_boxes(boxes, spec, w, h))


@pytest.mark.parametrize("h, w", [(1, MAX_SIDE + 1), (MAX_SIDE + 1, 1)])
def test_a_film_side_over_the_cap_is_refused(h, w):
    want = f"{w}x{h} image has a side over {MAX_SIDE} pixels"
    img = np.zeros((h, w), dtype=np.uint8)
    calls = [
        lambda: clahe(img, 1, 1),
        lambda: resize(img, 2, 2),
        lambda: augment(img, [], AugmentSpec(hflip=True)),
        lambda: encode_pgm(img),
        # the header is refused before the raster is read or copied
        lambda: decode_pgm(b"P5\n%d %d\n255\n" % (w, h)),
        # resize's output, once its pixel cap has passed
        lambda: resize(np.zeros((2, 2), dtype=np.uint8), w, h),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == want


@pytest.mark.parametrize("kernel", ["clahe", "resize", "augment"])
@pytest.mark.parametrize(
    "h, w, limit_mb",
    # a film of _BAND_ROWS rows at the side cap is 1 MB, and its output and
    # augment's framed copy 2.3 MB more; 16-row bands of it took 28 to 77 MB
    [(1, MAX_SIDE, 8), (MAX_SIDE, 1, 8), (_BAND_ROWS, MAX_SIDE, 12)],
)
def test_films_at_the_side_cap_take_band_sized_memory(kernel, h, w, limit_mb):
    img = (np.arange(h * w) % 251).astype(np.uint8).reshape(h, w)
    run = {
        "clahe": lambda: clahe(img, tiles_x=min(8, w), tiles_y=min(8, h)),
        "resize": lambda: resize(img, w, h),
        "augment": lambda: augment(img, [], AugmentSpec(13.0, 0.5, -0.25, True))[0],
    }[kernel]
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (h, w)
    assert peak <= limit_mb << 20


# header bytes that stress the scanner: each whitespace byte, bytes that are
# not PGM whitespace, comments that hold a CR or end at LF or at the end of
# the data, and tokens good and bad
HEADER_PIECES = st.sampled_from((
    b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c", b"\x00", b"\xff", b"#", b"# note\n", b"#\r", b"#P5 1 1 255\n",
    b"P5", b"P2", b"0", b"1", b"2", b"3", b"255", b"256", b"x", b"-1", b"+2",
))
SEPARATORS = st.lists(
    st.sampled_from((b" ", b"\t", b"\r", b"\n", b"# c\n", b"#\r\n", b"# 7\r 9\n", b"\x0b", b"\x0c")), min_size=1, max_size=3
)


@st.composite
def pgm_files(draw):
    """Mostly well-formed PGMs: four header fields between random separators,
    then one byte and a raster of the right or a random length."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    fields = (b"P5", b"%d" % w, b"%d" % h, draw(st.sampled_from((b"255", b"128", b"0", b"256", b"x"))))
    header = b"".join(b"".join(draw(SEPARATORS)) + f for f in fields)
    end = draw(st.sampled_from((b"\n", b" ", b"\r", b"#", b"")))
    return header + end + draw(st.binary(min_size=w * h, max_size=w * h) | st.binary(max_size=10))


class TestPgm:
    def test_round_trip(self):
        rng = random.Random(113)
        for _ in range(20):
            img = random_image(rng, rng.randint(1, 20), rng.randint(1, 20))
            again = decode_pgm(encode_pgm(img))
            assert again.dtype == np.uint8
            assert (again == img).all()

    def test_header_bytes(self):
        img = np.zeros((2, 3), dtype=np.uint8)
        data = encode_pgm(img)
        assert data == b"P5\n3 2\n255\n" + b"\x00" * 6

    def test_comments_and_whitespace_tolerated(self):
        data = b"P5 # binary gray\n# another comment\n 2\t2 \n255\n\x01\x02\x03\x04"
        img = decode_pgm(data)
        assert img.tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize(
        "data",
        [
            b"P6\n2 2\n255\n" + b"\x00" * 12,  # wrong magic
            b"P5\n2 2\n65535\n" + b"\x00" * 8,  # 16-bit
            b"P5\n2 2\n255\n\x00",  # truncated raster
            b"P5\n2 2\n255\n" + b"\x00" * 5,  # trailing byte
            b"P5\n2\n255\n",  # missing dimension
            b"P5\nx 2\n255\n\x00\x00",  # non-numeric
            b"P5\n1 1\n255#\x07",  # no whitespace byte after maxval
        ],
    )
    def test_malformed_rejected(self, data):
        with pytest.raises(ValueError):
            decode_pgm(data)

    @pytest.mark.parametrize("maxval", [15, 1, 0, 128, 254, 256, 65535])
    def test_maxval_must_be_255(self, maxval):
        # every kernel and encode_pgm work on 0-255, so 7 of 15 is not read as 7 of 255
        with pytest.raises(ValueError) as info:
            decode_pgm(b"P5\n2 1\n%d\n\xff\x07" % maxval)
        assert str(info.value) == f"PGM maxval must be 255, got {maxval}"

    @pytest.mark.parametrize("w, h", [(0, 2), (2, 0), (-1, 1)])
    def test_dimensions_must_be_positive(self, w, h):
        with pytest.raises(ValueError) as info:
            decode_pgm(b"P5\n%d %d\n255\n" % (w, h))
        assert str(info.value) == f"PGM dimensions must be positive, got {w}x{h}"

    @pytest.mark.parametrize("piece, count", [(b" ", 10**6), (b"#\n", 200_000), (b"# x\r\n", 100_000)])
    def test_header_padding_takes_no_memory_per_byte(self, piece, count):
        # a repeated regex group would keep backtracking state for every
        # whitespace byte and comment it skips: 25 to 120 MB here
        data = b"P5" + piece * count + b" 1 1 255\n\x07"
        tracemalloc.start()
        try:
            img = decode_pgm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert img.tolist() == [[7]]
        assert peak < 1 << 20

    @settings(max_examples=500)
    @given(st.one_of(st.builds(b"".join, st.lists(HEADER_PIECES, max_size=16)), pgm_files()))
    def test_equals_the_byte_loop_scanner(self, data):
        assert pgm_outcome(decode_pgm, data) == pgm_outcome(byte_loop_decode_pgm, data)


def pgm_outcome(decoder, data):
    """The decoded film's shape and bytes, or the text of the ValueError raised."""
    try:
        img = decoder(data)
    except ValueError as exc:
        return str(exc)
    return img.dtype, img.shape, img.tobytes()


# the banded kernels against their whole-image forms: band edges, single
# rows and columns, and films pushed wholly off the image
HEIGHTS = st.sampled_from((1, 2, _BAND_ROWS - 1, _BAND_ROWS, _BAND_ROWS + 1, 2 * _BAND_ROWS + 3))
ODD_WIDTHS = st.sampled_from((1, 3, 5, 17, 31))


def film(seed, h, w):
    gen = np.random.default_rng(seed)
    # a ramp plus noise, so tiles differ and every mapping is exercised
    ramp = (np.arange(h)[:, None] * 7 + np.arange(w)[None, :] * 3) % 200
    return (ramp + gen.integers(0, 56, size=(h, w))).astype(np.uint8)


@given(
    st.integers(0, 2**32 - 1),
    HEIGHTS,
    ODD_WIDTHS,
    st.one_of(st.sampled_from((0.0, 90.0, 180.0, -90.0, 270.0)), st.floats(-360.0, 360.0)),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.booleans(),
)
# films wide enough for bands of fewer than _BAND_ROWS rows, and of one row
@example(1, 2 * _BAND_ROWS + 3, 1500, -7.0, 0.05, 0.0, False)
@example(2, 3, _BAND_PIXELS + 1, 13.0, 0.1, -0.2, True)
def test_augment_equals_whole_image_sampler(seed, h, w, rotation, shift_x, shift_y, hflip):
    img = film(seed, h, w)
    # shifts of up to three film sizes push the whole film off the image
    spec = AugmentSpec(rotation, shift_x * w, shift_y * h, hflip)
    got, _ = augment(img, [], spec)
    assert got.tobytes() == whole_image_augment(img, spec).tobytes()


@given(
    st.integers(0, 2**32 - 1),
    HEIGHTS,
    ODD_WIDTHS,
    st.floats(-360.0, 360.0),
    st.floats(-1e18, 1e18),
    st.floats(-1e18, 1e18),
    st.booleans(),
)
def test_augment_far_shifts_equal_whole_image_sampler(seed, h, w, rotation, shift_x, shift_y, hflip):
    # the whole-image form casts sample points unbounded, which int64 holds up to about 9.2e18
    img = film(seed, h, w)
    spec = AugmentSpec(rotation, shift_x, shift_y, hflip)
    got, _ = augment(img, [], spec)
    assert got.tobytes() == whole_image_augment(img, spec).tobytes()


@pytest.mark.parametrize(
    "rotation, shift_x, shift_y",
    [(0.0, 1e300, 0.0), (0.0, 0.0, -1e300), (33.0, 1e308, -1e308), (-90.0, 1.7e308, 1.7e308), (0.0, 1e19, 0.0)],
)
def test_augment_far_out_of_image_reads_zero_without_warnings(rotation, shift_x, shift_y):
    img = film(5, 20, 33)
    boxes = [Box(2, 3, 9, 11)]
    for hflip in (False, True):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, out_boxes = augment(img, boxes, AugmentSpec(rotation, shift_x, shift_y, hflip))
        assert out.shape == img.shape and not out.any()
        assert out_boxes == []


@given(
    st.integers(0, 2**32 - 1),
    # 3 * _BAND_ROWS + 1 rows in one or two tile rows put a slab boundary inside a tile
    HEIGHTS | st.just(3 * _BAND_ROWS + 1),
    ODD_WIDTHS,
    # 0 stands for one tile per pixel column
    st.integers(0, 8),
    st.integers(1, 8),
    st.one_of(st.just(math.inf), st.sampled_from((0.5, 2.0, 40.0, 1e-9, 1e300)), st.floats(0.01, 100.0)),
)
@example(3, 3 * _BAND_ROWS + 1, 1500, 7, 1, math.inf)
@example(4, 3, _BAND_PIXELS + 1, 5, 2, 2.0)
def test_clahe_equals_whole_image_blend(seed, h, w, tiles_x, tiles_y, clip_limit):
    img = film(seed, h, w)
    tiles_x = min(tiles_x, w) or w
    tiles_y = min(tiles_y, h) if h != 3 * _BAND_ROWS + 1 else 1 + tiles_y % 2
    got = clahe(img, tiles_x=tiles_x, tiles_y=tiles_y, clip_limit=clip_limit)
    assert got.tobytes() == whole_image_clahe(img, tiles_x, tiles_y, clip_limit).tobytes()


def test_clahe_at_the_tile_cap_equals_the_per_tile_oracle():
    # one tile per pixel: 65 536 tile LUTs, counted one tile row at a time
    img = film(11, 256, 256)
    assert 256 * 256 == MAX_CLAHE_TILES
    got = clahe(img, tiles_x=256, tiles_y=256, clip_limit=2.0)
    assert got.tobytes() == whole_image_clahe(img, 256, 256, 2.0).tobytes()


@given(
    st.integers(0, 2**32 - 1),
    HEIGHTS,
    ODD_WIDTHS,
    st.one_of(HEIGHTS, st.integers(1, 100)),
    st.one_of(ODD_WIDTHS, st.integers(1, 100)),
    # whole scale factors per axis, in place of the out size: k > 0 enlarges the film k times, k < 0 shrinks one
    # |k| times as large; their sample points fall on pixel centers or midway between them
    st.none() | st.tuples(*[st.sampled_from((-4, -3, -2, 1, 2, 3, 4))] * 2),
)
@example(5, 5, 17, 2 * _BAND_ROWS + 3, 1500, None)
@example(6, 2, 3, 3, _BAND_PIXELS + 1, None)
def test_resize_equals_whole_image_gather(seed, h, w, out_h, out_w, factors):
    if factors:
        fy, fx = factors
        h, out_h = (h, h * fy) if fy > 0 else (h * -fy, h)
        w, out_w = (w, w * fx) if fx > 0 else (w * -fx, w)
    img = film(seed, h, w)
    got = resize(img, out_w, out_h)
    assert got.tobytes() == whole_image_resize(img, out_w, out_h).tobytes()
