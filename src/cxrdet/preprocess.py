"""Grayscale image preprocessing and box-aware augmentation.

Images are 2-D uint8 numpy arrays (height, width). Box coordinates live in
the continuous [0, width] x [0, height] frame where pixel (r, c) occupies
the unit square centered at (c + 0.5, r + 0.5).

CLAHE follows the classic tile scheme: one clipped, equalized histogram
mapping per tile, blended per pixel by bilinear interpolation between the
four nearest tile centers (edge tiles extend outward). Every LUT goes
through one clip rule: a clip limit of 256 or more puts the ceiling at the
tile's pixel count, where it clips nothing, so ``math.inf`` and any finite
limit from 256 up run the same arithmetic. With a single tile and such a
limit CLAHE degenerates to plain global histogram equalization, mapping
value v to round(cdf(v) * 255 / n_pixels). The histograms of a whole tile
row are counted by one bincount per band of rows, each pixel offset into
its tile's 256 bins.

Image resampling (resize, rotation, shift) is bilinear with the pixel-center
convention; samples outside the source read as 0 (black), matching the
radiograph background. Every bilinear sample reads its four taps through one
reader, ``_tap``, at fixed offsets from one index array, that of its lower
tap: CLAHE's blend and resize through ``_bilinear_into``, at 0, dx, dy and
dx + dy (the next tile's LUT 256 entries on and the next tile row's
``tiles_x * 256``; the next pixel 1 on and the next row ``w``), and the
augmentation sampler at 0, 1, stride and stride + 1 of a film framed by two
zero pixels, where the reader's clip never acts. CLAHE's blend and resize
place each position by one rule, ``_blend_axis``: the index of the last grid
center at or before it, and the weight of the upper neighbour, which is
always that index plus one. Before the first center the index is 0, from
the last center on it is the last index, and the weight is 0 in both. So a
tap past the grid is read only with weight 0, through a clipped ``take`` on
a view that stays non-empty, and no padded copy of a film or a LUT grid is
made. Every computed pixel and LUT entry is rounded half up and saturated to
uint8 by ``_round_into`` in three passes: add 0.5, clip to [0, 255], and the
truncating uint8 cast, which on that range is the floor.

PGM (binary P5, maxval 255) is the image interchange format so fixtures
stay bit-exact without codec dependencies; its four header tokens are found
by one compiled pattern, between whitespace and ``#`` comments that run to
the end of their line. Other maxvals are rejected, as every kernel works on
the full 0-255 range.

The per-pixel kernels (CLAHE's blend and histograms, resize and the
augmentation sampler) work through the output in bands of rows, all cut by
one rule, ``_bands``: as many rows as fit in ``_BAND_PIXELS`` pixels, and at
least one, so a narrow film runs in tall bands and a very wide one in bands
of one row. The augmentation sampler has no identity shortcut: an identity
spec samples every pixel at its own center and returns the input bytes.
Every pixel takes the same floating-point operations in the same order
whatever the band height, so results do not depend on banding. What stays
as long as a side (tile and sample indices, weights, one band row) is
bounded by ``MAX_SIDE``: every kernel, ``encode_pgm`` and ``decode_pgm``
refuse a film with a longer side, and ``resize`` an output with one.
"""

import math
import re
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .geometry import Box, clip_corners, corners

# pixels per pass of the per-pixel kernels: a band's float64 temporaries stay
# in cache where whole-image ones would stream through memory; a 1024 px film
# runs in 16-row bands
_BAND_PIXELS = 16 * 1024

MAX_SIDE = 1 << 16  # the longest side of any film: per-axis arrays stay under a few MB

MAX_RESIZE_PIXELS = 1 << 26  # the most pixels resize may output: 8192 x 8192, 64 MB
MAX_CLAHE_TILES = 1 << 16  # the most tiles clahe may equalize: 256 x 256, 16 MB of LUTs

# a PGM header comment (# to the end of its line) or token (group 1, any other
# run of bytes between whitespace); searching for the next one skips whitespace
# in C and, unlike a repeated group, keeps no state per byte skipped
_PGM_WORD = re.compile(rb"#[^\n]*|([^ \t\r\n#]+)")

__all__ = [
    "AugmentSpec",
    "clahe",
    "resize",
    "scale_boxes",
    "augment",
    "encode_pgm",
    "decode_pgm",
    "read_pgm",
    "write_pgm",
]


def _check_sides(w: int, h: int) -> None:
    if w > MAX_SIDE or h > MAX_SIDE:
        raise ValueError(f"{w}x{h} image has a side over {MAX_SIDE} pixels")


def _as_gray(img) -> np.ndarray:
    a = np.asarray(img)
    if a.ndim != 2 or a.dtype != np.uint8:
        raise ValueError(f"expected a 2-D uint8 image, got {a.dtype} with shape {a.shape}")
    if a.size == 0:
        raise ValueError("image must be non-empty")
    _check_sides(a.shape[1], a.shape[0])
    return a


def _bands(start: int, stop: int, width: int):
    """Row slices that cover rows start:stop of a film ``width`` pixels wide,
    each of _BAND_PIXELS // width rows, and at least one."""
    step = max(1, _BAND_PIXELS // width)
    return (slice(r0, min(r0 + step, stop)) for r0 in range(start, stop, step))


def _round_into(values: np.ndarray, out: np.ndarray) -> None:
    """Round half up and saturate ``values`` (clobbered) into uint8 ``out``."""
    # round half up, so the rule is direction-independent and deterministic;
    # on [0, 255] the truncating cast is the floor
    np.add(values, 0.5, out=values)
    np.clip(values, 0.0, 255.0, out=values)
    out[...] = values


def _tap(flat: np.ndarray, at: np.ndarray, offset: int) -> np.ndarray:
    """``flat[at + offset]``, read from one index array at a fixed offset; the
    view stays non-empty and a read past its end takes its last value."""
    return np.take(flat[min(offset, flat.size - 1) :], at, mode="clip")


def _bilinear_into(flat, at, dx, dy, fx, fy, out) -> None:
    """Write round((1 - fy) * ((1 - fx) * v00 + fx * v01) + fy * ((1 - fx) * v10
    + fx * v11)) into ``out``, where v00 is ``flat[at]``, v01 is ``flat[at +
    dx]``, v10 is ``flat[at + dy]`` and v11 is ``flat[at + dx + dy]``. A tap
    whose weight is 0 may lie past the grid: it reads any value of ``flat``."""
    gx = 1.0 - fx
    upper = gx * _tap(flat, at, 0)
    upper += fx * _tap(flat, at, dx)
    lower = gx * _tap(flat, at, dy)
    lower += fx * _tap(flat, at, dx + dy)
    upper *= 1.0 - fy
    lower *= fy
    upper += lower
    _round_into(upper, out)


def _equalization_lut(hist: np.ndarray, n_pixels: np.ndarray, clip_limit: float, out: np.ndarray) -> None:
    """Write into uint8 ``out`` one equalization LUT per row of ``hist``, the
    256-bin counts of a tile of ``n_pixels`` pixels."""
    n_pixels = n_pixels[:, None]
    # ceiling is clip_limit times the height of a flat histogram; from a limit
    # of 256 up it is the tile's pixel count, which no bin exceeds
    ceiling = min(clip_limit, 256.0) * n_pixels / 256.0
    excess = np.clip(hist - ceiling, 0.0, None).sum(axis=-1, keepdims=True)
    hist = np.minimum(hist, ceiling) + excess / 256.0
    _round_into(np.cumsum(hist, axis=-1) * (255.0 / n_pixels), out)


def _blend_axis(centers: np.ndarray, positions: np.ndarray):
    """Lower grid index and interpolation weight of each position on an
    increasing grid of ``centers``; the upper neighbour is always lo + 1.
    Before the first center lo is 0, from the last on it is the last index,
    and the weight is 0 in both, so an upper tap past the grid is never
    weighed."""
    hi = np.searchsorted(centers, positions, side="right")
    lo = np.maximum(hi - 1, 0)
    span = centers.take(hi, mode="clip") - centers[lo]
    weight = np.divide(positions - centers[lo], span, out=np.zeros(len(positions)), where=span > 0)
    return lo, weight


def clahe(img, tiles_x: int = 8, tiles_y: int = 8, clip_limit: float = 2.0) -> np.ndarray:
    """Contrast-limited adaptive histogram equalization.

    ``clip_limit`` is a multiple of the flat-histogram bin height; clipped
    excess is redistributed uniformly over all 256 bins in a single pass.
    A limit of 256 or more, ``math.inf`` included, clips nothing. The grid
    holds at most MAX_CLAHE_TILES tiles, and the image must be at least
    tiles_x pixels wide and tiles_y pixels tall.
    """
    img = _as_gray(img)
    h, w = img.shape
    if tiles_x < 1 or tiles_y < 1:
        raise ValueError(f"tile grid must be at least 1x1, got {tiles_x}x{tiles_y}")
    if tiles_x * tiles_y > MAX_CLAHE_TILES:
        raise ValueError(f"tile grid {tiles_x}x{tiles_y} exceeds {MAX_CLAHE_TILES} tiles")
    if not clip_limit > 0:
        raise ValueError(f"clip limit must be positive: {clip_limit!r}")
    if w < tiles_x or h < tiles_y:
        raise ValueError(f"{w}x{h} image too small for a {tiles_x}x{tiles_y} tile grid")

    # tile t of an axis spans edges[t]:edges[t + 1], centered at (edges[t] + edges[t + 1] - 1) / 2
    x_edges = np.arange(tiles_x + 1) * w // tiles_x
    y_edges = np.arange(tiles_y + 1) * h // tiles_y
    tile_widths = np.diff(x_edges)
    # a pixel's bin among its tile row's histograms: its tile's offset plus its value
    tile_bins = np.repeat(np.arange(tiles_x) * 256, tile_widths)
    luts = np.empty((tiles_y, tiles_x, 256), dtype=np.uint8)
    for ty, (y0, y1) in enumerate(zip(y_edges, y_edges[1:])):
        # counted a band at a time, so the intp bin array stays band-sized
        slabs = (tile_bins + img[rows] for rows in _bands(y0, y1, w))
        hist = sum(np.bincount(slab.ravel(), minlength=tiles_x * 256) for slab in slabs)
        _equalization_lut(hist.reshape(tiles_x, 256), (y1 - y0) * tile_widths, clip_limit, luts[ty])

    ty0, wy = _blend_axis((y_edges[:-1] + y_edges[1:] - 1) / 2, np.arange(h))
    tx0, wx = _blend_axis((x_edges[:-1] + x_edges[1:] - 1) / 2, np.arange(w))
    # m00 of pixel (r, c) is luts[ty0[r], tx0[c], img[r, c]]; the next tile
    # column's LUT is 256 entries on, the next tile row's tiles_x * 256
    flat = luts.ravel()
    row_step = tiles_x * 256
    out = np.empty((h, w), dtype=np.uint8)
    for rows in _bands(0, h, w):
        at = ty0[rows, None] * row_step + tx0 * 256
        at += img[rows]
        _bilinear_into(flat, at, 256, row_step, wx, wy[rows, None], out[rows])
    return out


def resize(img, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resize with pixel-center sampling (no corner alignment), to
    at most MAX_RESIZE_PIXELS output pixels."""
    img = _as_gray(img)
    h, w = img.shape
    if out_w < 1 or out_h < 1:
        raise ValueError(f"output size must be at least 1x1, got {out_w}x{out_h}")
    if out_w * out_h > MAX_RESIZE_PIXELS:
        raise ValueError(f"output size {out_w}x{out_h} exceeds {MAX_RESIZE_PIXELS} pixels")
    _check_sides(out_w, out_h)
    x0, fx = _blend_axis(np.arange(w, dtype=float), (np.arange(out_w) + 0.5) * (w / out_w) - 0.5)
    y0, fy = _blend_axis(np.arange(h, dtype=float), (np.arange(out_h) + 0.5) * (h / out_h) - 0.5)
    flat = img.ravel()
    out = np.empty((out_h, out_w), dtype=np.uint8)
    for rows in _bands(0, out_h, out_w):
        _bilinear_into(flat, y0[rows, None] * w + x0, 1, w, fx, fy[rows, None], out[rows])
    return out


def scale_boxes(boxes, sx: float, sy: float) -> list[Box]:
    """Scale box coordinates componentwise (e.g. to track a resize)."""
    if not (sx > 0 and sy > 0):
        raise ValueError(f"scale factors must be positive: {sx!r}, {sy!r}")
    return [Box(b.x_min * sx, b.y_min * sy, b.x_max * sx, b.y_max * sy) for b in boxes]


@dataclass(frozen=True)
class AugmentSpec:
    """One deterministic augmentation: rotate about the image center by
    ``rotation_deg`` (positive turns x toward y, i.e. clockwise on screen),
    shift by whole-image pixels, then mirror horizontally."""

    rotation_deg: float = 0.0
    shift_x: float = 0.0
    shift_y: float = 0.0
    hflip: bool = False

    def __post_init__(self):
        for v in (self.rotation_deg, self.shift_x, self.shift_y):
            if not math.isfinite(v):
                raise ValueError(f"augmentation parameters must be finite: {self!r}")

    @property
    def is_identity(self) -> bool:
        return self.rotation_deg == 0.0 and self.shift_x == 0.0 and self.shift_y == 0.0 and not self.hflip


def _forward_affine(spec: AugmentSpec, w: int, h: int):
    """Coefficients of p -> A p + b mapping source to output coordinates."""
    theta = math.radians(spec.rotation_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    a11, a12, a21, a22 = cos_t, -sin_t, sin_t, cos_t
    cx, cy = w / 2.0, h / 2.0
    bx = cx - (a11 * cx + a12 * cy) + spec.shift_x
    by = cy - (a21 * cx + a22 * cy) + spec.shift_y
    if spec.hflip:
        a11, a12, bx = -a11, -a12, w - bx
    return a11, a12, a21, a22, bx, by


def augment(img, boxes, spec: AugmentSpec):
    """Apply rotation, shift, and horizontal flip to an image and its boxes.

    Returns (image, boxes). Each box becomes the axis-aligned hull of its
    four transformed corners, clipped to the image; boxes pushed entirely
    off the image are dropped. Exposed pixels are zero-filled.
    """
    img = _as_gray(img)
    h, w = img.shape
    a11, a12, a21, a22, bx, by = _forward_affine(spec, w, h)

    # every box's four corners at once, in the order (x_min, y_min), (x_max,
    # y_min), (x_min, y_max), (x_max, y_max); a huge box may overflow to inf
    src = corners(boxes)
    x, y = src[:, [0, 2, 0, 2]], src[:, [1, 1, 3, 3]]
    with np.errstate(over="ignore"):
        xs, ys = a11 * x + a12 * y + bx, a21 * x + a22 * y + by
    hull = np.stack([xs.min(axis=1), ys.min(axis=1), xs.max(axis=1), ys.max(axis=1)], axis=1)
    x_lo, y_lo, x_hi, y_hi = hull.T
    # a box wholly off the image goes; on the rest a two-sided clip is one-sided
    hull = hull[~((x_hi < 0) | (x_lo > w) | (y_hi < 0) | (y_lo > h))]
    new_boxes = [Box(*row) for row in clip_corners(hull, w, h).tolist()]

    # invert analytically; rotations and flips keep |det| at 1
    det = a11 * a22 - a12 * a21
    i11, i12 = a22 / det, -a12 / det
    i21, i22 = -a21 / det, a11 / det
    out_x = (np.arange(w) + 0.5) - bx
    out_y = (np.arange(h) + 0.5) - by
    src_x_of_col, src_y_of_col = i11 * out_x, i21 * out_x

    # Bilinear taps at (y0 | y0 + 1, x0 | x0 + 1) of a film framed by two
    # zero pixels: with the sample point clipped to [-2, w] x [-2, h] before
    # the cast, a tap outside the film reads 0, a point outside the frame reads
    # only the frame's zeros whatever its weights, and a point far outside
    # never reaches the int cast unbounded. So every tap ``_tap`` reads, at 0,
    # 1, stride and stride + 1, lies inside the framed film: its clip never acts.
    stride = w + 4
    framed = np.zeros((h + 4, stride), dtype=np.uint8)
    framed[2:-2, 2:-2] = img
    flat = framed.ravel()
    out = np.empty((h, w), dtype=np.uint8)
    for rows in _bands(0, h, w):
        # two finite terms of a far shift may sum past the float range, to
        # +-inf but never nan, which the clip takes like any far point
        with np.errstate(over="ignore"):
            x_idx = src_x_of_col + i12 * out_y[rows, None]
            y_idx = src_y_of_col + i22 * out_y[rows, None]
        x_idx -= 0.5
        np.clip(x_idx, -2.0, w, out=x_idx)
        y_idx -= 0.5
        np.clip(y_idx, -2.0, h, out=y_idx)
        x0 = np.floor(x_idx)
        y0 = np.floor(y_idx)
        # flat index of each (y0, x0) tap in the framed film, formed in float64,
        # exact as its integers stay far below 2**53, and cast once
        at = y0 * stride
        at += x0
        at += 2 * stride + 2
        at = at.astype(np.intp)
        # the fractions take the sample points' place, and 1 - f the floors'
        fx = np.subtract(x_idx, x0, out=x_idx)
        fy = np.subtract(y_idx, y0, out=y_idx)
        gx = np.subtract(1.0, fx, out=x0)
        gy = np.subtract(1.0, fy, out=y0)
        # acc = gx*gy*v00 + fx*gy*v01 + gx*fy*v10 + fx*fy*v11, summed in that
        # order; the weights are formed in place as gx*fy, fx*fy and fx*gy
        acc = gx * gy
        acc *= _tap(flat, at, 0)
        gx *= fy
        fy *= fx
        fx *= gy
        fx *= _tap(flat, at, 1)
        acc += fx
        gx *= _tap(flat, at, stride)
        acc += gx
        fy *= _tap(flat, at, stride + 1)
        acc += fy
        _round_into(acc, out[rows])
    return out, new_boxes


def encode_pgm(img) -> bytes:
    """Serialize an image as binary PGM (P5, maxval 255)."""
    img = _as_gray(img)
    h, w = img.shape
    return b"P5\n%d %d\n255\n" % (w, h) + img.tobytes()


def decode_pgm(data: bytes) -> np.ndarray:
    """Parse a binary PGM of maxval 255; accepts comments and any header whitespace."""
    found = list(islice((m for m in _PGM_WORD.finditer(data) if m.group(1)), 4))
    if len(found) < 4:
        raise ValueError("truncated PGM header")
    tokens = [m.group(1) for m in found]
    pos = found[-1].end()
    if tokens[0] != b"P5":
        raise ValueError(f"not a binary PGM (magic {tokens[0]!r})")
    try:
        w, h, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ValueError(f"non-numeric PGM header fields: {tokens[1:]}") from None
    if w < 1 or h < 1:
        raise ValueError(f"PGM dimensions must be positive, got {w}x{h}")
    _check_sides(w, h)
    if maxval != 255:
        raise ValueError(f"PGM maxval must be 255, got {maxval}")
    # a single whitespace byte separates header from raster
    if pos < len(data) and data[pos] not in b" \t\r\n":
        raise ValueError(f"PGM header must end in one whitespace byte, got {data[pos:pos + 1]!r}")
    raster = data[pos + 1 :]
    if len(raster) != w * h:
        raise ValueError(f"expected {w * h} raster bytes, got {len(raster)}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).copy()


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return decode_pgm(fh.read())


def write_pgm(path, img) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_pgm(img))
