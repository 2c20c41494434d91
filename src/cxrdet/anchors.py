"""Reference-box machinery for two-stage detectors.

Covers generating multi-scale anchor boxes over a feature-map grid,
assigning overlap-based training labels against ground truth, converting
boxes to and from center/log-size regression offsets, and turning scored
boxes into a clipped, deduplicated proposal list.
"""

import math
from dataclasses import dataclass

from .geometry import Box, iou
from .nms import HARD, Detection, NmsConfig, nms

__all__ = [
    "AnchorSpec",
    "AnchorLabel",
    "BoxDelta",
    "POSITIVE",
    "NEGATIVE",
    "IGNORE",
    "generate_anchors",
    "label_anchors",
    "encode_box",
    "decode_box",
    "select_proposals",
]

POSITIVE = "positive"
NEGATIVE = "negative"
IGNORE = "ignore"


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


def generate_anchors(spec: AnchorSpec, grid_w: int, grid_h: int) -> list[Box]:
    """Tile anchors over a grid_w x grid_h feature map.

    Anchors are centered at ((i + 0.5) * stride, (j + 0.5) * stride) and
    emitted row-major over cells, ratio-major then scale-minor within each
    cell, so the output length is grid_w * grid_h * anchors_per_cell.
    """
    if grid_w < 1 or grid_h < 1:
        raise ValueError(f"grid must be at least 1x1, got {grid_w}x{grid_h}")
    half_sizes = []
    for ratio in spec.ratios:
        root = math.sqrt(ratio)
        for scale in spec.scales:
            side = spec.base_size * scale
            half_sizes.append((0.5 * side / root, 0.5 * side * root))
    anchors = []
    for j in range(grid_h):
        cy = (j + 0.5) * spec.stride
        for i in range(grid_w):
            cx = (i + 0.5) * spec.stride
            for hw, hh in half_sizes:
                anchors.append(Box(cx - hw, cy - hh, cx + hw, cy + hh))
    return anchors


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
    anchors = list(anchors)
    gt = list(gt)
    if not anchors:
        return []
    if not gt:
        return [AnchorLabel(NEGATIVE)] * len(anchors)

    overlaps = [[iou(a, g) for g in gt] for a in anchors]
    best_gt = [max(range(len(gt)), key=lambda gi: (row[gi], -gi)) for row in overlaps]
    best_overlap = [row[bg] for row, bg in zip(overlaps, best_gt)]

    forced: dict[int, int] = {}
    for gi in range(len(gt)):
        ai = max(range(len(anchors)), key=lambda a: (overlaps[a][gi], -a))
        if overlaps[ai][gi] > 0.0 and ai not in forced:
            forced[ai] = gi

    labels = []
    for ai in range(len(anchors)):
        if ai in forced:
            labels.append(AnchorLabel(POSITIVE, forced[ai]))
        elif best_overlap[ai] >= pos_iou:
            labels.append(AnchorLabel(POSITIVE, best_gt[ai]))
        elif best_overlap[ai] < neg_iou:
            labels.append(AnchorLabel(NEGATIVE))
        else:
            labels.append(AnchorLabel(IGNORE))
    return labels


def encode_box(anchor: Box, gt: Box) -> BoxDelta:
    """Offsets that map ``anchor`` onto ``gt``; both need positive extents."""
    wa, ha = anchor.width, anchor.height
    if wa <= 0.0 or ha <= 0.0:
        raise ValueError(f"anchor must have positive extents: {anchor!r}")
    wg, hg = gt.width, gt.height
    if wg <= 0.0 or hg <= 0.0:
        raise ValueError(f"target box must have positive extents: {gt!r}")
    xa, ya = anchor.center
    xg, yg = gt.center
    return BoxDelta((xg - xa) / wa, (yg - ya) / ha, math.log(wg / wa), math.log(hg / ha))


def decode_box(anchor: Box, delta: BoxDelta) -> Box:
    """Inverse of :func:`encode_box`; a ``tw`` or ``th`` that overflows exp is a ValueError."""
    wa, ha = anchor.width, anchor.height
    if wa <= 0.0 or ha <= 0.0:
        raise ValueError(f"anchor must have positive extents: {anchor!r}")
    xa, ya = anchor.center
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

    Boxes are clipped to [0, image_w] x [0, image_h]; any with a clipped
    side shorter than ``min_size`` is discarded. The ``pre_top_n`` best by
    score run through hard NMS at ``nms_iou`` and at most ``post_top_n``
    survivors are returned in descending score order.
    """
    boxes = list(boxes)
    scores = list(scores)
    if len(boxes) != len(scores):
        raise ValueError(f"got {len(boxes)} boxes but {len(scores)} scores")
    if not (image_w > 0 and image_h > 0):
        raise ValueError(f"image size must be positive, got {image_w}x{image_h}")

    candidates = []
    for idx, (box, score) in enumerate(zip(boxes, scores)):
        clipped = Box(
            min(max(box.x_min, 0.0), image_w),
            min(max(box.y_min, 0.0), image_h),
            min(max(box.x_max, 0.0), image_w),
            min(max(box.y_max, 0.0), image_h),
        )
        if clipped.width < min_size or clipped.height < min_size:
            continue
        candidates.append((idx, Detection(clipped, score)))
    candidates.sort(key=lambda pair: (-pair[1].score, pair[0]))
    shortlist = [det for _, det in candidates[:pre_top_n]]
    kept = nms(shortlist, NmsConfig(mode=HARD, iou_threshold=nms_iou))
    return kept[:post_top_n]
