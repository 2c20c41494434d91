"""Greedy non-maximum suppression, hard and soft.

All variants share one walk over a float64 score vector in which -inf
marks a detection that has left: repeatedly move the highest-scoring
detection still in it to the output, then rescale the scores of its live
same-class rivals by a decay factor that depends on their overlap with the
box just kept, one IoU row at a time over corner columns and areas taken
once per call (below ``_MATRIX_BELOW`` detections each row is read from one
IoU matrix built per call, the same ``iou_columns`` arithmetic):

    hard           s * [iou <= Nt]          (0/1 pruning)
    soft-linear    s * (1 - iou)   if iou > Nt, else unchanged
    soft-gaussian  s * exp(-iou^2 / sigma)

A detection leaves the moment a decay pushes its score below
``score_cutoff``. Detections that are never decayed (factor 1) are kept no
matter how small their input score, so fully disjoint inputs always pass
through untouched. ``max_keep`` stops the walk after that many picks: each
pick is final, so the result is exactly the first ``max_keep`` detections of
the full output, and proposal selection walks only as far as it keeps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box, box_columns, detection_rows, iou, iou_columns  # noqa: F401  (bench/tracing.py wraps iou here)

__all__ = ["Detection", "NmsConfig", "nms", "HARD", "SOFT_LINEAR", "SOFT_GAUSSIAN"]

HARD = "hard"
SOFT_LINEAR = "soft-linear"
SOFT_GAUSSIAN = "soft-gaussian"

_MODES = (HARD, SOFT_LINEAR, SOFT_GAUSSIAN)

# below this many detections every IoU row is read from one matrix built per
# call, which costs fewer numpy calls per pick; at and above it each pick
# computes its own row, so the work stays linear in memory
_MATRIX_BELOW = 128


@dataclass(frozen=True, init=False)
class Detection:
    """A scored box, optionally tagged with a class id."""

    box: Box
    score: float
    class_id: int | None = None

    # written out rather than generated, as Box's is, so a detection is built in one call frame
    def __init__(self, box: Box, score: float, class_id: int | None = None):
        if not 0.0 <= score <= 1.0:  # nan and the infinities fail it too
            raise ValueError(f"detection score must be in [0, 1]: {score!r}")
        setattr_ = object.__setattr__
        setattr_(self, "box", box)
        setattr_(self, "score", score)
        setattr_(self, "class_id", class_id)


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
        if not self.score_cutoff >= 0.0:
            raise ValueError(f"score_cutoff must be non-negative: {self.score_cutoff!r}")

    def _decay(self, rivals: np.ndarray, overlap: np.ndarray):
        """The rivals an array of overlaps with a kept box decays, and their
        score multipliers; a multiplier of 1 (or nan) decays nothing."""
        if self.mode == HARD:
            return rivals[~(overlap <= self.iou_threshold)], 0.0  # a nan overlap suppresses
        if self.mode == SOFT_LINEAR:
            factor = 1.0 - overlap
            hit = (overlap > self.iou_threshold) & (factor < 1.0)  # 1 - iou is 1 for iou <= 2**-54
            return rivals[hit], factor[hit]
        near = overlap != 0.0  # exp(-0.0) is 1: a disjoint rival never decays
        rivals, overlap = rivals[near], overlap[near]
        values = (-(overlap * overlap) / self.sigma).tolist()
        # math.exp per element: np.exp differs from it in the last bit on some inputs
        factor = np.fromiter(map(math.exp, values), np.float64, len(values))
        hit = factor < 1.0  # an underflowing square gives 1 and a nan overlap nan: no decay
        return rivals[hit], factor[hit]


def nms(
    detections, config: NmsConfig | None = None, *, max_keep: int | None = None
) -> list[Detection]:
    """Suppress overlapping detections; returns survivors with decayed scores.

    Output is sorted by final score descending, ties broken by input order
    (the greedy pick order already guarantees both), and holds the input's
    own boxes. Detections with distinct class ids never suppress each other.
    With ``max_keep`` the walk stops after that many picks, so the result is
    the first ``max_keep`` of the full output.
    """
    cfg = config if config is not None else NmsConfig()
    if max_keep is not None and max_keep < 0:
        raise ValueError(f"max_keep must be non-negative: {max_keep!r}")
    dets = list(detections)
    limit = len(dets) if max_keep is None else min(max_keep, len(dets))
    rows = detection_rows(dets)
    scores = rows[:, 0].copy()  # -inf once a detection has left
    classes = None
    if len({d.class_id for d in dets}) > 1:
        codes: dict = {}
        classes = np.array([codes.setdefault(d.class_id, len(codes)) for d in dets], dtype=np.intp)
    cutoff = cfg.score_cutoff
    kept: list[Detection] = []
    with np.errstate(all="ignore"):  # huge boxes overflow to inf and nan, as in iou
        cols = box_columns(rows[:, 1:])
        matrix = iou_columns(cols[:, :, None], cols[:, None, :]) if len(dets) < _MATRIX_BELOW else None
        while len(kept) < limit:
            best = int(scores.argmax())  # first maximum: lowest input index
            score = scores.item(best)
            if score == -math.inf:
                break
            scores[best] = -math.inf
            kept.append(Detection(dets[best].box, score, dets[best].class_id))
            live = scores != -math.inf
            if classes is not None:
                live &= classes == classes[best]
            rivals = live.nonzero()[0]
            if matrix is None:
                overlap = iou_columns(cols[:, best].tolist(), cols.take(rivals, axis=1))
            else:
                overlap = matrix[best].take(rivals)
            rivals, factor = cfg._decay(rivals, overlap)
            decayed = scores[rivals] * factor
            scores[rivals] = np.where(decayed < cutoff, -math.inf, decayed)
    return kept
