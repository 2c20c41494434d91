"""Greedy non-maximum suppression, hard and soft.

All variants share one loop over a score vector and a live mask:
repeatedly move the highest-scoring live detection to the output, then
rescale the scores of its live same-class rivals by a decay factor that
depends on their overlap with the box just kept, one IoU row at a time:

    hard           s * [iou <= Nt]          (0/1 pruning)
    soft-linear    s * (1 - iou)   if iou > Nt, else unchanged
    soft-gaussian  s * exp(-iou^2 / sigma)

A detection leaves the live mask the moment a decay pushes its score below
``score_cutoff``. Detections that are never decayed (factor 1) are kept no
matter how small their input score, so fully disjoint inputs always pass
through untouched.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box, corners, iou, iou_matrix  # noqa: F401  (bench/tracing.py wraps iou here)

__all__ = ["Detection", "NmsConfig", "nms", "HARD", "SOFT_LINEAR", "SOFT_GAUSSIAN"]

HARD = "hard"
SOFT_LINEAR = "soft-linear"
SOFT_GAUSSIAN = "soft-gaussian"

_MODES = (HARD, SOFT_LINEAR, SOFT_GAUSSIAN)


@dataclass(frozen=True)
class Detection:
    """A scored box, optionally tagged with a class id."""

    box: Box
    score: float
    class_id: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"detection score must be in [0, 1]: {self.score!r}")


@dataclass(frozen=True)
class NmsConfig:
    """Suppression mode plus its parameters.

    ``iou_threshold`` is used by the hard and soft-linear modes, ``sigma``
    by the gaussian mode; ``score_cutoff`` applies to every mode.
    """

    mode: str = HARD
    iou_threshold: float = 0.5
    sigma: float = 0.5
    score_cutoff: float = 0.001

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown NMS mode {self.mode!r}; expected one of {_MODES}")
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError(f"iou_threshold must lie in (0, 1): {self.iou_threshold!r}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive: {self.sigma!r}")
        if self.score_cutoff < 0.0:
            raise ValueError(f"score_cutoff must be non-negative: {self.score_cutoff!r}")

    def decay(self, overlap: np.ndarray) -> np.ndarray:
        """Score multipliers applied for an array of overlaps with a kept box."""
        if self.mode == HARD:
            return np.where(overlap <= self.iou_threshold, 1.0, 0.0)
        if self.mode == SOFT_LINEAR:
            return np.where(overlap > self.iou_threshold, 1.0 - overlap, 1.0)
        # math.exp per element: np.exp differs from it in the last bit on some inputs
        return np.array([math.exp(-(v * v) / self.sigma) for v in overlap.tolist()])


def nms(detections, config: NmsConfig | None = None) -> list[Detection]:
    """Suppress overlapping detections; returns survivors with decayed scores.

    Output is sorted by final score descending, ties broken by input order
    (the greedy pick order already guarantees both), and holds the input's
    own boxes. Detections with distinct class ids never suppress each other.
    """
    cfg = config if config is not None else NmsConfig()
    dets = list(detections)
    boxes = corners(d.box for d in dets)
    scores = np.array([d.score for d in dets], dtype=np.float64)
    codes: dict = {}
    classes = np.array([codes.setdefault(d.class_id, len(codes)) for d in dets], dtype=np.intp)
    live = np.ones(len(dets), dtype=bool)
    kept: list[Detection] = []
    while live.any():
        best = int(np.argmax(np.where(live, scores, -np.inf)))  # first maximum: lowest input index
        live[best] = False
        kept.append(Detection(dets[best].box, float(scores[best]), dets[best].class_id))
        rivals = np.flatnonzero(live & (classes == classes[best]))
        row = iou_matrix(boxes[best : best + 1], boxes[rivals])[0]
        rivals, factor = rivals[row != 0.0], cfg.decay(row[row != 0.0])  # no mode decays a disjoint rival
        decayed = rivals[factor < 1.0]
        scores[decayed] *= factor[factor < 1.0]
        live[decayed[scores[decayed] < cfg.score_cutoff]] = False
    return kept
