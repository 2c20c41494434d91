"""Max-pooling of rectangular regions of a feature map into a fixed grid.

Which cells each output bin folds depends only on the snapped extent and the
grid size. A detector pools every proposal to one grid size over a map a few
dozen cells wide, so these tap plans are built once per (cells, bins) pair
and kept as read-only index arrays in a small bounded cache.
"""

import functools
import math

import numpy as np

from .geometry import Box

__all__ = ["roi_max_pool"]


def roi_max_pool(feature_map, roi: Box, out_w: int, out_h: int) -> np.ndarray:
    """Pool ``roi`` on ``feature_map`` down to an ``out_h`` x ``out_w`` grid.

    ``feature_map`` is a 2-D (height, width) or 3-D (channels, height, width)
    array; the result has the same rank with the spatial dims replaced by
    (out_h, out_w). The roi is clipped to the map, then snapped outward to
    whole cells (floor on the min corner, ceil on the max corner). Output bin
    i spans cells [floor(i*W/out_w), ceil((i+1)*W/out_w)) of the snapped
    width W (same rule vertically), so bins may share boundary cells but are
    never empty while W >= 1; each bin value is the per-channel max of its
    cells.

    The snapped region is copied once, cells first, as (width, height) or
    (width, height, channels), so every gather moves whole channel vectors;
    max is separable, so rows pool into strips and strips into bins. The
    finiteness check runs on that contiguous copy, which holds exactly the
    cells the roi reads, before any gather. The result is a new C-contiguous
    array of the map's dtype.

    Raises ValueError for a roi entirely outside the map or one that snaps
    to zero cells, for a non-finite cell the roi reads (cells outside the
    snapped roi are never read, so they are not checked), and for
    non-positive output sizes.
    """
    fm = np.asarray(feature_map)
    if fm.ndim not in (2, 3):
        raise ValueError(f"feature map must be 2-D or 3-D, got shape {fm.shape}")
    if out_w < 1 or out_h < 1:
        raise ValueError(f"output grid must be at least 1x1, got {out_w}x{out_h}")
    height, width = fm.shape[-2], fm.shape[-1]

    x0 = max(roi.x_min, 0.0)
    y0 = max(roi.y_min, 0.0)
    x1 = min(roi.x_max, float(width))
    y1 = min(roi.y_max, float(height))
    if x0 > x1 or y0 > y1:
        raise ValueError(f"roi {roi} lies entirely outside the {width}x{height} map")
    cx0, cx1 = math.floor(x0), math.ceil(x1)
    cy0, cy1 = math.floor(y0), math.ceil(y1)
    roi_w = cx1 - cx0
    roi_h = cy1 - cy0
    if roi_w == 0 or roi_h == 0:
        raise ValueError(f"roi {roi} covers no cells after snapping")
    # the result comes before the scratch arrays: kept above them, it fragments the heap
    out = np.empty(fm.shape[:-2] + (out_h, out_w), dtype=fm.dtype)
    # Cells first: (w, h[, C]) puts each cell's channel vector in one run, so
    # every gather below copies whole runs. Max is separable: pool rows into
    # strips, then strips into bins, each pass folding every bin's d-th cell
    # at once. np.maximum returns its second argument on a tie of 0.0 and
    # -0.0, so this order (rows, then columns, each in cell order) fixes the
    # sign of a tied zero.
    cells = np.ascontiguousarray(fm[..., cy0:cy1, cx0:cx1].T)
    if not np.isfinite(cells).all():
        raise ValueError("feature map values the roi reads must be finite")
    row_taps = _taps(roi_h, out_h)
    strips = cells[:, row_taps[0]]
    for taps in row_taps[1:]:
        np.maximum(strips, cells[:, taps], out=strips)
    col_taps = _taps(roi_w, out_w)
    bins = strips[col_taps[0]]
    for taps in col_taps[1:]:
        np.maximum(bins, strips[taps], out=bins)
    out.T[...] = bins
    return out


# Plans for a roi or grid wider than this many cells are built afresh on
# every call, so a huge output size leaves nothing behind. A bin spans at most
# ceil(cells/bins) + 1 cells, so a cached plan holds at most
# _MAX_CACHED_SIDE + 1 arrays and 3 * _MAX_CACHED_SIDE indices in all.
_MAX_CACHED_SIDE = 128
_PLAN_CACHE_SIZE = 64


def _taps(cells: int, bins: int) -> tuple[np.ndarray, ...]:
    """The tap plan of :func:`_build_bin_taps`, from the cache when it is small."""
    if cells <= _MAX_CACHED_SIDE and bins <= _MAX_CACHED_SIDE:
        return _bin_taps(cells, bins)
    return _build_bin_taps(cells, bins)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _bin_taps(cells: int, bins: int) -> tuple[np.ndarray, ...]:
    taps = _build_bin_taps(cells, bins)
    for t in taps:
        t.flags.writeable = False  # shared by every later call
    return taps


def _build_bin_taps(cells: int, bins: int) -> tuple[np.ndarray, ...]:
    """Every bin's d-th cell, for each d, as an intp array: bin k spans cells
    [floor(k*cells/bins), ceil((k+1)*cells/bins)) and repeats its last cell
    once it runs out; max is idempotent, so a repeat changes nothing."""
    k = np.arange(bins, dtype=np.intp)
    starts = k * cells // bins
    stops = -(-(k + 1) * cells // bins)
    return tuple(np.minimum(starts + d, stops - 1) for d in range(int((stops - starts).max())))
