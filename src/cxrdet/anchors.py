"""Reference-box machinery for two-stage detectors.

Covers generating multi-scale anchor boxes over a feature-map grid,
assigning overlap-based training labels against ground truth, converting
boxes to and from center/log-size regression offsets, and turning scored
boxes into a clipped, deduplicated proposal list.

Anchors are tiled as one ``(N, 4)`` corners array by a single broadcast
(``anchor_corners``); ``generate_anchors`` wraps it in ``Box`` objects.
Proposal selection keeps its shortlist as score-and-corner rows for the
NMS row walk (``nms.nms_rows``) and builds objects only for the proposals
it returns.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box, Detection, clip_corners, corners, iou, iou_matrix  # noqa: F401  (bench/tracing.py wraps iou here)
from .nms import HARD, NmsConfig, nms, nms_rows  # noqa: F401  (bench/tracing.py wraps nms here)

__all__ = [
    "AnchorSpec",
    "AnchorLabel",
    "BoxDelta",
    "POSITIVE",
    "NEGATIVE",
    "IGNORE",
    "anchor_corners",
    "generate_anchors",
    "label_anchors",
    "encode_box",
    "decode_box",
    "select_proposals",
]

POSITIVE = "positive"
NEGATIVE = "negative"
IGNORE = "ignore"

MAX_ANCHORS = 1 << 20  # the most anchors generate_anchors may tile


@dataclass(frozen=True)
class AnchorSpec:
    """Recipe for one pyramid level: every anchor has area
    (base_size * scale)^2 and height/width equal to one of ``ratios``;
    ``stride`` is the image-pixel spacing between grid cells."""

    base_size: float
    scales: tuple[float, ...]
    ratios: tuple[float, ...]
    stride: float

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(self.scales))
        object.__setattr__(self, "ratios", tuple(self.ratios))
        if not self.scales or not self.ratios:
            raise ValueError("scales and ratios must be non-empty")
        for v in (self.base_size, self.stride, *self.scales, *self.ratios):
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"anchor parameters must be positive and finite: {v!r}")

    @property
    def anchors_per_cell(self) -> int:
        return len(self.scales) * len(self.ratios)


@dataclass(frozen=True)
class AnchorLabel:
    """Training label for one anchor: positive (with the matched
    ground-truth index), negative, or ignore."""

    kind: str
    gt_index: int | None = None

    def __post_init__(self):
        if self.kind not in (POSITIVE, NEGATIVE, IGNORE):
            raise ValueError(f"unknown label kind {self.kind!r}")
        if self.kind == POSITIVE:
            if self.gt_index is None or self.gt_index < 0:
                raise ValueError("positive labels need a ground-truth index")
        elif self.gt_index is not None:
            raise ValueError(f"{self.kind} labels carry no ground-truth index")

    @property
    def is_positive(self) -> bool:
        return self.kind == POSITIVE


@dataclass(frozen=True)
class BoxDelta:
    """Center offsets (relative to anchor size) and log-scale factors."""

    tx: float
    ty: float
    tw: float
    th: float

    def __post_init__(self):
        for v in (self.tx, self.ty, self.tw, self.th):
            if not math.isfinite(v):
                raise ValueError(f"box delta must be finite: {self!r}")


def anchor_corners(spec: AnchorSpec, grid_w: int, grid_h: int) -> np.ndarray:
    """Tile anchors over a grid_w x grid_h feature map as an (N, 4) float64
    array of (x_min, y_min, x_max, y_max) rows.

    Anchors are centered at ((i + 0.5) * stride, (j + 0.5) * stride) and
    emitted row-major over cells, ratio-major then scale-minor within each
    cell, so N is grid_w * grid_h * anchors_per_cell, at most MAX_ANCHORS. A
    corner that overflows raises the ValueError ``Box`` gives it.
    """
    if grid_w < 1 or grid_h < 1:
        raise ValueError(f"grid must be at least 1x1, got {grid_w}x{grid_h}")
    if grid_w * grid_h * spec.anchors_per_cell > MAX_ANCHORS:
        raise ValueError(f"{grid_w}x{grid_h} cells of {spec.anchors_per_cell} anchors exceed {MAX_ANCHORS} anchors")
    hw, hh = np.array([(0.5 * side / root, 0.5 * side * root) for root in map(math.sqrt, spec.ratios)
                       for side in [spec.base_size * scale for scale in spec.scales]]).T
    out = np.empty((grid_h, grid_w, len(hw), 4))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, as Box refuses them
        cy = ((np.arange(grid_h) + 0.5) * float(spec.stride))[:, None, None]
        cx = ((np.arange(grid_w) + 0.5) * float(spec.stride))[:, None]
        out[..., 0], out[..., 1], out[..., 2], out[..., 3] = cx - hw, cy - hh, cx + hw, cy + hh
    out = out.reshape(-1, 4)
    if not np.isfinite(out).all():  # Box's error for the first anchor with a non-finite corner
        Box(*out[~np.isfinite(out).all(axis=1)][0].tolist())
    return out


def generate_anchors(spec: AnchorSpec, grid_w: int, grid_h: int) -> list[Box]:
    """:func:`anchor_corners` as one ``Box`` per anchor, in its order."""
    return list(map(Box, *anchor_corners(spec, grid_w, grid_h).T.tolist()))


def label_anchors(anchors, gt, pos_iou: float = 0.7, neg_iou: float = 0.3) -> list[AnchorLabel]:
    """Assign a positive/negative/ignore label to every anchor.

    An anchor is positive when its best overlap reaches ``pos_iou``, or when
    it is the best-overlap anchor for some ground-truth box (so every box
    with any overlap gets at least one positive anchor even below the
    threshold). Anchors below ``neg_iou`` are negative; the rest are
    ignored. Forced matches take precedence when picking the ground-truth
    index an anchor carries, and all ties resolve to the lowest index.
    With no ground truth every anchor is negative.
    """
    if not 0.0 <= neg_iou <= pos_iou <= 1.0:
        raise ValueError(f"need 0 <= neg_iou <= pos_iou <= 1, got {neg_iou}/{pos_iou}")
    anchors, gt = list(anchors), list(gt)
    if not anchors:
        return []
    if not gt:
        return [AnchorLabel(NEGATIVE)] * len(anchors)

    overlaps = iou_matrix(corners(anchors), corners(gt))
    best_gt = overlaps.argmax(axis=1)  # first maximum: lowest index, here and below
    best_overlap = overlaps[np.arange(len(anchors)), best_gt]
    # index into table below: a ground-truth index, -2 for ignore or -1 for negative
    assigned = np.where(best_overlap >= pos_iou, best_gt, np.where(best_overlap < neg_iou, -1, -2))
    # reversed, so that an anchor forced by two boxes keeps the lower index
    for gi, ai in reversed(list(enumerate(overlaps.argmax(axis=0).tolist()))):
        if overlaps[ai, gi] > 0.0:
            assigned[ai] = gi
    table = [AnchorLabel(POSITIVE, gi) for gi in range(len(gt))]
    table += [AnchorLabel(IGNORE), AnchorLabel(NEGATIVE)]
    return [table[k] for k in assigned.tolist()]


def _frame(box: Box, what: str) -> tuple[float, float, float, float]:
    """Centre x, centre y, width and height of ``box``, each taken with the
    ``Box`` property's own expression; ``what`` names a box whose width or
    height is not positive in the ValueError."""
    x0, y0, x1, y1 = box.x_min, box.y_min, box.x_max, box.y_max
    w, h = x1 - x0, y1 - y0
    if w <= 0.0 or h <= 0.0:
        raise ValueError(f"{what} must have positive extents: {box!r}")
    return 0.5 * (x0 + x1), 0.5 * (y0 + y1), w, h


def encode_box(anchor: Box, gt: Box) -> BoxDelta:
    """Offsets that map ``anchor`` onto ``gt``; both need positive extents."""
    xa, ya, wa, ha = _frame(anchor, "anchor")
    xg, yg, wg, hg = _frame(gt, "target box")
    return BoxDelta((xg - xa) / wa, (yg - ya) / ha, math.log(wg / wa), math.log(hg / ha))


def decode_box(anchor: Box, delta: BoxDelta) -> Box:
    """Inverse of :func:`encode_box`; a ``tw`` or ``th`` that overflows exp is a ValueError."""
    xa, ya, wa, ha = _frame(anchor, "anchor")
    xc = delta.tx * wa + xa
    yc = delta.ty * ha + ya
    try:
        w = wa * math.exp(delta.tw)
        h = ha * math.exp(delta.th)
    except OverflowError:
        raise ValueError(f"box delta overflows on decoding: {delta!r}") from None
    return Box(xc - 0.5 * w, yc - 0.5 * h, xc + 0.5 * w, yc + 0.5 * h)


def select_proposals(
    boxes,
    scores,
    image_w: float,
    image_h: float,
    *,
    pre_top_n: int = 1000,
    post_top_n: int = 100,
    nms_iou: float = 0.5,
    min_size: float = 1.0,
) -> list[Detection]:
    """Clip, filter, and deduplicate scored boxes into a proposal list.

    Every score must lie in [0, 1], else ValueError, even one whose box is
    dropped. Boxes are clipped to [0, image_w] x [0, image_h]; any with a
    clipped side shorter than ``min_size`` is discarded. The ``pre_top_n``
    best by score (ties by input order) run through hard NMS at ``nms_iou``
    and at most ``post_top_n`` survivors are returned by descending score.
    """
    boxes = list(boxes)
    scores = list(scores)
    if len(boxes) != len(scores):
        raise ValueError(f"got {len(boxes)} boxes but {len(scores)} scores")
    if not (image_w > 0 and image_h > 0):
        raise ValueError(f"image size must be positive, got {image_w}x{image_h}")
    values = np.array(scores, dtype=np.float64)
    valid = (values >= 0.0) & (values <= 1.0)
    if not valid.all():
        raise ValueError(f"proposal score must be in [0, 1]: {scores[int(valid.argmin())]!r}")

    clipped = clip_corners(corners(boxes), image_w, image_h)
    order = np.flatnonzero(~(clipped[:, 2:] - clipped[:, :2] < min_size).any(axis=1))  # width, height
    order = order[np.argsort(-values[order], kind="stable")][:pre_top_n]
    rows = np.column_stack((values[order], clipped[order]))  # score, x_min, y_min, x_max, y_max
    cfg = NmsConfig(mode=HARD, iou_threshold=nms_iou)
    # stop at post_top_n picks; a negative post_top_n still slices the full result
    picks = nms_rows(rows, cfg, max_keep=post_top_n if post_top_n >= 0 else None)[:post_top_n]
    return [Detection(Box(*rows[i, 1:].tolist()), score) for i, score in picks]
