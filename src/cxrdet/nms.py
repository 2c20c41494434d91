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

Each rule of the walk has one home. Each pick reads one IoU row, the kept
box against every row, and the IoU arithmetic is ``geometry``'s: below
``_MATRIX_BELOW`` detections the row is read from the one all-pairs matrix
``iou_matrix`` builds per call, and at and above it each pick computes its
own row with ``iou_columns``, the one array IoU formula, into five float
rows allocated once per call over corner columns taken once per call. Both
give the same overlaps bit for bit, nan and inf included, and 0 where the
union is not positive, so one rule finds the rivals: one ``nonzero`` of the
rows whose overlap is nonzero (nan included), that are alive (a mask
cleared at a pick and when a decay drops a row) and, with class codes, that
share the kept row's class. Leaving out the rows of zero overlap loses
nothing, as no mode decays one (hard keeps iou <= Nt, linear needs iou >
Nt, and exp(-0) is 1). ``NmsConfig._decay`` holds the one decay rule per
mode.

The walk itself, ``nms_rows``, reads ``(n, 5)`` score-and-corner rows and
returns ``(row index, final score)`` per pick; ``nms`` is its wrapper for
``Detection`` objects, whose rows ``detection_rows`` reads, and proposal
selection hands it array rows. ``Detection`` is ``geometry``'s and public
there; ``from cxrdet.nms import Detection`` still finds it here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Detection, box_columns, detection_rows, iou_columns, iou_matrix
from .geometry import iou  # noqa: F401  (bench/tracing.py wraps iou here)

__all__ = ["NmsConfig", "nms", "nms_rows", "HARD", "SOFT_LINEAR", "SOFT_GAUSSIAN"]

HARD = "hard"
SOFT_LINEAR = "soft-linear"
SOFT_GAUSSIAN = "soft-gaussian"

_MODES = (HARD, SOFT_LINEAR, SOFT_GAUSSIAN)

# below this many detections every IoU row is read from one matrix built per
# call, as per-pick rows cost more numpy calls: they ran about x2 slower at 20
# to 80 rows in every mode. At and above it each pick computes its own row, so
# scratch memory stays linear: the switch bounds memory, not time. On nms-raw's
# own images (seed 3, both shards, medians of 41 calls, 2-vCPU Xeon, numpy
# 2.4) the matrix was still x1.3-1.5 faster at 180 rows in every mode (hard
# 1.04-1.05 against 1.32-1.39 ms, soft-gaussian 1.71-1.76 against 2.28-2.31
# ms) but peaked at 1.48 MB of scratch against 0.02-0.03 MB; at 420 rows
# per-pick rows were x1.2-1.6 faster, and the matrix peaked at 7.4 MB
# against 0.05-0.06 MB
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


def nms_rows(rows: np.ndarray, config: NmsConfig | None = None, classes=None, *,
             max_keep: int | None = None) -> list[tuple[int, float]]:
    """The greedy walk over (n, 5) score, x_min, y_min, x_max, y_max rows;
    returns ``(row index, final score)`` per pick, in pick order. The rows are
    read once as a float64 array, which copies nothing when they already are
    one, so integer rows and nested lists walk as their float64 values do.
    ``classes`` is None or n integer codes, and rows with distinct codes
    never suppress each other. With ``max_keep`` the walk stops after that
    many picks."""
    cfg = config if config is not None else NmsConfig()
    if max_keep is not None and max_keep < 0:
        raise ValueError(f"max_keep must be non-negative: {max_keep!r}")
    rows = np.asarray(rows, dtype=np.float64)
    n = len(rows)
    limit = n if max_keep is None else min(max_keep, n)
    scores = rows[:, 0].copy()  # -inf once a row has left
    alive = scores != -math.inf  # the same rows, cleared where a score turns -inf
    touched, flag = np.empty((2, n), bool)
    cutoff = cfg.score_cutoff
    picks: list[tuple[int, float]] = []
    with np.errstate(all="ignore"):  # huge boxes overflow to inf and nan, as in iou
        if n < _MATRIX_BELOW:
            matrix = iou_matrix(rows[:, 1:], rows[:, 1:])
        else:
            matrix, cols, buffers = None, box_columns(rows[:, 1:]), np.empty((5, n))
        while len(picks) < limit:
            best = int(scores.argmax())  # first maximum: lowest row index
            score = scores.item(best)
            if score == -math.inf:
                break
            scores[best] = -math.inf
            alive[best] = False
            picks.append((best, score))
            overlap = iou_columns(cols[:, best].tolist(), cols, buffers) if matrix is None else matrix[best]
            np.logical_and(overlap, alive, out=touched)  # overlap nonzero (nan included) and alive
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
