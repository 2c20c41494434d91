"""Greedy non-maximum suppression, hard and soft.

All variants share one walk: repeatedly move the highest-scoring detection
still in it to the output, then rescale the scores of its live same-class
rivals by a decay factor that depends on their overlap with the box just
kept:

    hard           s * [iou <= Nt]          (0/1 pruning)
    soft-linear    s * (1 - iou)   if iou > Nt, else unchanged
    soft-gaussian  s * exp(-iou^2 / sigma)

A detection leaves the moment a decay pushes its score below
``score_cutoff``. Detections that are never decayed (factor 1) are kept no
matter how small their input score, so fully disjoint inputs always pass
through untouched. ``max_keep`` stops the walk after that many picks: each
pick is final, so the result is exactly the first ``max_keep`` detections of
the full output, and proposal selection walks only as far as it keeps.

Each pick reads one IoU row: the kept box against every row. At and above
``_MATRIX_BELOW`` detections the row is computed into float64 and bool
buffers allocated once per call, in ``iou_columns``' operation order, so it
equals that bit for bit, nan and inf included; below it the row is read from
one IoU matrix built per call. Either source marks the rows it touches, those
whose overlap is nonzero or nan, and the rivals are one ``nonzero`` of the
touched rows that are alive (a mask cleared at a pick and when a decay drops
a row) and, with class codes, share the kept row's class. The walk relies on
one invariant: every rival whose overlap is nonzero or nan is touched, and a
rival with zero overlap is never decayed, as no mode decays one (hard keeps
iou <= Nt, linear needs iou > Nt, and exp(-0) is 1).

The walk itself, ``nms_rows``, reads ``(n, 5)`` score-and-corner rows and
returns ``(row index, final score)`` per pick; ``nms`` is its wrapper for
``Detection`` objects (defined in ``geometry`` and re-exported here), whose
rows ``detection_rows`` reads, and proposal selection hands it array rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Detection, box_columns, detection_rows, iou, iou_columns  # noqa: F401  (bench/tracing.py wraps iou here)

__all__ = ["Detection", "NmsConfig", "nms", "nms_rows", "HARD", "SOFT_LINEAR", "SOFT_GAUSSIAN"]

HARD = "hard"
SOFT_LINEAR = "soft-linear"
SOFT_GAUSSIAN = "soft-gaussian"

_MODES = (HARD, SOFT_LINEAR, SOFT_GAUSSIAN)

# below this many detections every IoU row is read from one matrix built per
# call, which costs fewer numpy calls per pick; at and above it each pick
# computes its own row, so the work stays linear in memory
_MATRIX_BELOW = 128


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
        values = (-(overlap * overlap) / self.sigma).tolist()
        # math.exp per element: np.exp differs from it in the last bit on some inputs
        factor = np.fromiter(map(math.exp, values), np.float64, len(values))
        hit = factor < 1.0  # an underflowing square gives 1 and a nan overlap nan: no decay
        return rivals[hit], factor[hit]


def _iou_row(cols: np.ndarray, k: int, buffers: np.ndarray, touched: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """The IoU of column ``k`` of a :func:`box_columns` form against every
    column, in ``iou_columns``' operation order, written into the last of the
    five float rows ``buffers`` and returned. It equals ``iou_columns`` bit for
    bit where ``touched`` is set, which is where that IoU is nonzero or nan;
    elsewhere that IoU is 0. ``flag`` is a bool scratch row."""
    ax0, ay0, ax1, ay1, a_area = cols[:, k].tolist()
    bx0, by0, bx1, by1, b_area = cols
    w, h, inter, union, overlap = buffers
    np.minimum(ax1, bx1, out=w)
    np.subtract(w, np.maximum(ax0, bx0, out=inter), out=w)
    np.minimum(ay1, by1, out=h)
    np.subtract(h, np.maximum(ay0, by0, out=inter), out=h)
    np.greater(np.minimum(w, h, out=union), 0.0, out=flag)  # w > 0 and h > 0; a nan fails both
    np.putmask(np.multiply(w, h, out=inter), np.logical_not(flag, out=flag), 0.0)
    np.subtract(np.add(a_area, b_area, out=union), inter, out=union)
    np.divide(inter, union, out=overlap)  # x/0 is left out of touched below
    np.less_equal(union, 0.0, out=flag)
    np.greater(np.not_equal(overlap, 0.0, out=touched), flag, out=touched)  # and not union <= 0
    return overlap


def nms_rows(rows: np.ndarray, config: NmsConfig | None = None, classes=None, *,
             max_keep: int | None = None) -> list[tuple[int, float]]:
    """The greedy walk over an (n, 5) float64 array of score, x_min, y_min,
    x_max, y_max rows; returns ``(row index, final score)`` per pick, in pick
    order. ``classes`` is None or n integer codes, and rows with distinct codes
    never suppress each other. With ``max_keep`` the walk stops after that
    many picks."""
    cfg = config if config is not None else NmsConfig()
    if max_keep is not None and max_keep < 0:
        raise ValueError(f"max_keep must be non-negative: {max_keep!r}")
    n = len(rows)
    limit = n if max_keep is None else min(max_keep, n)
    scores = rows[:, 0].copy()  # -inf once a row has left
    alive = scores != -math.inf  # the same rows, cleared where a score turns -inf
    touched, flag = np.empty((2, n), bool)
    cutoff = cfg.score_cutoff
    picks: list[tuple[int, float]] = []
    with np.errstate(all="ignore"):  # huge boxes overflow to inf and nan, as in iou
        cols = box_columns(rows[:, 1:])
        if n < _MATRIX_BELOW:
            matrix = iou_columns(cols[:, :, None], cols[:, None, :])
            touches = matrix != 0.0
        else:
            matrix, buffers = None, np.empty((5, n))
        while len(picks) < limit:
            best = int(scores.argmax())  # first maximum: lowest row index
            score = scores.item(best)
            if score == -math.inf:
                break
            scores[best] = -math.inf
            alive[best] = False
            picks.append((best, score))
            if matrix is None:
                overlap = _iou_row(cols, best, buffers, touched, flag)
                touched &= alive
            else:
                overlap = matrix[best]
                np.logical_and(touches[best], alive, out=touched)
            if classes is not None:
                touched &= np.equal(classes, classes[best], out=flag)
            rivals = touched.nonzero()[0]
            rivals, factor = cfg._decay(rivals, overlap[rivals])
            decayed = scores[rivals] * factor
            gone = rivals[decayed < cutoff]
            scores[rivals] = decayed
            scores[gone] = -math.inf
            alive[gone] = False
    return picks


def nms(detections, config: NmsConfig | None = None, *, max_keep: int | None = None) -> list[Detection]:
    """Suppress overlapping detections; returns survivors with decayed scores.

    Output is sorted by final score descending, ties broken by input order
    (the greedy pick order already guarantees both), and holds the input's
    own boxes. Detections with distinct class ids never suppress each other.
    With ``max_keep`` the walk stops after that many picks, so the result is
    the first ``max_keep`` of the full output.
    """
    dets = list(detections)
    classes = None
    if len({d.class_id for d in dets}) > 1:
        codes: dict = {}
        classes = np.array([codes.setdefault(d.class_id, len(codes)) for d in dets], dtype=np.intp)
    picks = nms_rows(detection_rows(dets), config, classes, max_keep=max_keep)
    return [Detection(dets[i].box, score, dets[i].class_id) for i, score in picks]
