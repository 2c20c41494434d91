"""Deterministic building blocks of a two-stage lung-opacity detector:
box geometry, anchor machinery, RoI pooling, (soft-)NMS, grayscale
preprocessing, and the multi-threshold competition scoring metric."""

from .anchors import (
    IGNORE,
    NEGATIVE,
    POSITIVE,
    AnchorLabel,
    AnchorSpec,
    BoxDelta,
    decode_box,
    encode_box,
    generate_anchors,
    label_anchors,
    select_proposals,
)
from .formats import (
    FormatError,
    GtRecord,
    PredRecord,
    ScoreReport,
    ThresholdCounts,
    group_ground_truth,
    group_predictions,
    read_ground_truth,
    read_labels,
    read_predictions,
    read_report,
    write_ground_truth,
    write_predictions,
    write_report,
)
from .geometry import Box, area, intersection_area, iou
from .metrics import (
    DEFAULT_THRESHOLDS,
    ClassificationMetrics,
    ConfusionCounts,
    MatchResult,
    average_precision,
    binary_cross_entropy,
    confusion_metrics,
    kfold_split,
    match_boxes,
    mean_average_precision,
    score_dataset,
    smooth_l1,
    threshold_range,
    total_loss,
)
from .nms import HARD, SOFT_GAUSSIAN, SOFT_LINEAR, Detection, NmsConfig, nms
from .preprocess import (
    AugmentSpec,
    augment,
    clahe,
    decode_pgm,
    encode_pgm,
    read_pgm,
    resize,
    scale_boxes,
    write_pgm,
)
from .roipool import roi_max_pool

__version__ = "0.1.0"
