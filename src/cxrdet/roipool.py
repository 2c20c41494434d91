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

    Raises ValueError for a roi entirely outside the map or one that snaps
    to zero cells, and for non-positive output sizes.
    """
    fm = np.asarray(feature_map)
    if fm.ndim not in (2, 3):
        raise ValueError(f"feature map must be 2-D or 3-D, got shape {fm.shape}")
    if not np.isfinite(fm).all():
        raise ValueError("feature map values must be finite")
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

    # max is separable: pool rows into strips, then strips into bins
    rows = [(cy0 + (j * roi_h) // out_h, cy0 - ((-(j + 1) * roi_h) // out_h)) for j in range(out_h)]
    cols = [((i * roi_w) // out_w, -((-(i + 1) * roi_w) // out_w)) for i in range(out_w)]  # integer ceil
    # the result comes before the scratch arrays: kept above them, it fragments the heap
    out = np.empty(fm.shape[:-2] + (out_h, out_w), dtype=fm.dtype)
    strips = np.stack([fm[..., r0:r1, cx0:cx1].max(axis=-2) for r0, r1 in rows], axis=-2)
    return np.stack([strips[..., c0:c1].max(axis=-1) for c0, c1 in cols], axis=-1, out=out)
