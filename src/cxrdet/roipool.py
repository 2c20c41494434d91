"""Max-pooling of rectangular regions of a feature map into a fixed grid."""

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
    result is a new C-contiguous array of the map's dtype.

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
    cx0, cx1 = int(np.floor(x0)), int(np.ceil(x1))
    cy0, cy1 = int(np.floor(y0)), int(np.ceil(y1))
    roi_w = cx1 - cx0
    roi_h = cy1 - cy0
    if roi_w == 0 or roi_h == 0:
        raise ValueError(f"roi {roi} covers no cells after snapping")
    sub = fm[..., cy0:cy1, cx0:cx1]
    if not np.isfinite(sub).all():
        raise ValueError("feature map values the roi reads must be finite")

    # the result comes before the scratch arrays: kept above them, it fragments the heap
    out = np.empty(fm.shape[:-2] + (out_h, out_w), dtype=fm.dtype)
    # Cells first: (w, h[, C]) puts each cell's channel vector in one run, so
    # every gather below copies whole runs. Max is separable: pool rows into
    # strips, then strips into bins, each pass folding every bin's d-th cell
    # at once. np.maximum returns its second argument on a tie of 0.0 and
    # -0.0, so this order (rows, then columns, each in cell order) fixes the
    # sign of a tied zero.
    cells = np.ascontiguousarray(sub.T)
    row_taps = _bin_taps(roi_h, out_h)
    strips = cells[:, row_taps[0]]
    for taps in row_taps[1:]:
        np.maximum(strips, cells[:, taps], out=strips)
    col_taps = _bin_taps(roi_w, out_w)
    bins = strips[col_taps[0]]
    for taps in col_taps[1:]:
        np.maximum(bins, strips[taps], out=bins)
    out.T[...] = bins
    return out


def _bin_taps(cells: int, bins: int) -> list[list[int]]:
    """Every bin's d-th cell, for each d: bin k spans cells
    [floor(k*cells/bins), ceil((k+1)*cells/bins)) and repeats its last cell
    once it runs out; max is idempotent, so a repeat changes nothing."""
    starts = [k * cells // bins for k in range(bins)]
    stops = [-(-(k + 1) * cells // bins) for k in range(bins)]
    span = max(b - a for a, b in zip(starts, stops))
    return [[min(a + d, b - 1) for a, b in zip(starts, stops)] for d in range(span)]
