"""Detection scoring and evaluation utilities.

The dataset score is the competition-style mean average precision: per
image, predictions are matched greedily to ground truth in descending
confidence order, a per-threshold precision tp / (tp + fp + fn) is computed
over a set of IoU thresholds, the per-image score is the mean over
thresholds, and the dataset score is the mean over images. Each rule of that
score has one home:

- The overlaps: ``_overlaps`` is the one pair stream. It yields every image
  as ``(preds, gt, overlaps)``, and it is the only source of overlaps:
  ``score_dataset`` streams all its images through it, and ``match_boxes``
  and ``average_precision`` read their one image off it, so all three score
  the same numbers.
- The match: ``_match`` takes one such image and matches it at every
  threshold. An overlap passes a threshold t when it reaches the
  threshold's floor, t itself with ``inclusive`` and else the next float64
  above t, so ``> t`` and ``>= t`` are one test. A walk (``_walk``) picks
  each prediction's best unmatched box without looking at the threshold, so
  the walk made at one threshold stands at every later (larger) one while
  its least matched overlap still passes; the image is walked again only at
  a threshold where that overlap fails.
- The per-image score: ``_score_image`` takes the same image and holds the
  one empty-image rule. An image with an empty side is never matched; with
  neither ground truth nor predictions it is excluded from the dataset mean,
  and with only one side it scores zero. Per-image work yields true
  positives alone: an image with n predictions and m boxes has fp = n - tp
  and fn = m - tp, so its precision is tp / (n + m - tp), and the dataset's
  counts are FP = N - TP and FN = M - TP, N and M the sizes of all scored
  images.
- The dataset mean: ``mean_average_precision`` lives in ``formats``, beside
  the ``ScoreReport`` that checks its ``dataset_map`` against it.

Predictions are scored as table rows. ``score_dataset`` scores a
``PredictionTable``, the form ``formats.read_prediction_table`` reads, whose
rows per image are (n, 5) float64 arrays of score and corners; a mapping of
Detections, the library form, becomes ``{id: detection_rows(dets)}``, rows
per image, at its top, and ``match_boxes`` and ``average_precision`` take
their Detections as one image's rows. Scores are compared as float64.

The stream is batched. Every (prediction, ground truth) pair of every image
with both sides is one position of a flat stream, image after image, taken
in passes of a fixed budget of pairs (``_PAIR_BUDGET``), one
``iou_columns`` pass each, gathered from corner columns taken once per
call; an image reads its overlaps off the stream as one flat list, so it
may span passes. Memory grows with the predictions and boxes of those
images (their columns and index arrays, about a hundred bytes each), not
with their pairs, besides one pass's temporaries and the current image's
list of overlaps. Overlaps come from float64 corners, as in ``nms`` and
``label_anchors``, so they equal ``iou`` bit for bit on float coordinates.
On Python int coordinates ``iou`` computes exactly, so the two can differ
in the last bit once a coordinate or an area passes 2**53, and a coordinate
too large for any float raises OverflowError here.

Also here: binary-classification confusion metrics, seeded k-fold
splitting, and pointwise loss evaluation (smooth L1, binary cross-entropy,
and their weighted combination).
"""

import math
import numbers
import random
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .formats import PredictionTable, ScoreReport, ThresholdCounts, mean_average_precision, validate_thresholds
from .geometry import box_columns, corners, detection_rows, iou, iou_columns  # noqa: F401  (bench/tracing.py wraps iou here)

__all__ = [
    "DEFAULT_THRESHOLDS",
    "MatchResult",
    "ConfusionCounts",
    "ClassificationMetrics",
    "match_boxes",
    "average_precision",
    "score_dataset",
    "confusion_metrics",
    "kfold_split",
    "smooth_l1",
    "binary_cross_entropy",
    "total_loss",
    "threshold_range",
]

DEFAULT_THRESHOLDS = (0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75)
MAX_THRESHOLDS = 1000  # the most a lo:hi:step range may hold

# (prediction, ground truth) pairs per iou_columns pass: a pass's temporaries
# stay a few dozen KB however many pairs are scored
_PAIR_BUDGET = 2048

_NO_ROWS = np.empty((0, 5))  # the table rows of an image without predictions


def threshold_range(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """Thresholds lo, lo+step, ... up to hi inclusive (tolerant of float drift),
    at most MAX_THRESHOLDS of them."""
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"threshold range must be finite: {lo!r}:{hi!r}:{step!r}")
    if step <= 0:
        raise ValueError(f"step must be positive: {step!r}")
    values = []
    for k in range(MAX_THRESHOLDS + 1):
        v = round(lo + k * step, 10)
        if v > hi + 1e-9:
            return validate_thresholds(values)
        values.append(v)
    raise ValueError(f"threshold range {lo!r}:{hi!r}:{step!r} holds more than {MAX_THRESHOLDS} thresholds")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one image's predictions against its ground truth.

    ``matched_pairs`` holds (prediction index, ground-truth index, IoU)
    in match order; tp, fp, fn follow from it and the input sizes.
    """

    tp: int
    fp: int
    fn: int
    matched_pairs: tuple[tuple[int, int, float], ...]


def _overlaps(images):
    """Yield (preds, gt, overlaps) for each (preds, gt) image of the sequence
    ``images``, ``preds`` its (n, 5) table rows and ``gt`` its Boxes:
    prediction i's overlaps are ``overlaps[i * m:(i + 1) * m]``, and there
    are none when a side is empty.

    The pairs of the images with both sides form one flat stream, image after
    image, prediction-major, boxes in file order, taken _PAIR_BUDGET pairs at
    a time in one iou_columns pass each. Pair k belongs to the first live
    prediction whose cumulative pair count passes k, and its box index is
    that prediction's offset plus k. Each image reads its n * m values off
    the stream, so an image may span passes.
    """
    live = [(preds, gt) for preds, gt in images if len(preds) and gt]
    n = [len(preds) for preds, _ in live]
    m = np.array([len(gt) for _, gt in live], dtype=int)
    per_pred = np.repeat(m, n)  # each live prediction's row length
    ends = np.cumsum(per_pred)
    offsets = np.repeat(np.cumsum(m) - m, n) - (ends - per_pred)  # box index less pair index
    a = box_columns(np.concatenate([preds for preds, _ in live] or [_NO_ROWS])[:, 1:])
    b = box_columns(corners(g for _, gt in live for g in gt))
    total = int(per_pred.sum())

    def chunk(start):
        k = np.arange(start, min(start + _PAIR_BUDGET, total))
        p = np.searchsorted(ends, k, side="right")
        with np.errstate(all="ignore"):  # huge boxes overflow to inf and nan, as in iou
            return iou_columns(a[:, p], b[:, offsets[p] + k]).tolist()

    # chunk leaves errstate before it returns: a generator suspended inside the
    # block would leak the setting to its caller, as numpy keeps it in a context variable
    flat = chain.from_iterable(map(chunk, range(0, total, _PAIR_BUDGET)))
    for preds, gt in images:
        yield preds, gt, list(islice(flat, len(preds) * len(gt)))


def _match(preds, gt, overlaps, ts, inclusive) -> list[MatchResult]:
    """Greedy matching at every threshold in ``ts``, one MatchResult each.

    ``(preds, gt, overlaps)`` is one image as :func:`_overlaps` yields it:
    ``preds`` are its (n, 5) table rows, sorted once by score, and its
    overlaps are read as slices. The image is walked at the first threshold,
    and each later threshold keeps the last walk while its least matched
    overlap reaches that threshold's floor, else walks again: the thresholds
    increase, and a walk's choices depend on a threshold only through whether
    its matches pass. An empty side matches nothing, so every result is
    ``MatchResult(0, n, m, ())``; the score path never gets here with one, as
    ``_score_image`` holds its empty-image rule.
    """
    n, m = len(preds), len(gt)
    neg_scores = (-preds[:, 0]).tolist()
    order = sorted(range(n), key=neg_scores.__getitem__)  # stable: ties keep input order
    rows = [(pi, overlaps[pi * m : (pi + 1) * m]) for pi in order]
    results = []
    least = -math.inf  # no walk yet
    for t in ts:
        floor = t if inclusive else math.nextafter(t, math.inf)  # the pass rule: an overlap passes t if >= floor
        if least < floor:
            result, least = _walk(rows, n, m, floor)
        results.append(result)
    return results


def _walk(rows, n, m, floor) -> tuple[MatchResult, float]:
    """One greedy walk over confidence-ordered overlap rows, in which a best
    overlap passes when it reaches ``floor`` (> 0, so nan and 0.0 never do);
    returns the MatchResult and its least matched overlap, inf if none."""
    unmatched = list(range(m))
    pairs = []
    for pi, overlaps in rows:
        best_gi = -1
        best_overlap = 0.0
        for gi in unmatched:
            if overlaps[gi] > best_overlap:
                best_overlap = overlaps[gi]
                best_gi = gi
        if best_overlap >= floor:
            unmatched.remove(best_gi)
            pairs.append((pi, best_gi, best_overlap))
            if not unmatched:
                break
    tp = len(pairs)
    return MatchResult(tp, n - tp, m - tp, tuple(pairs)), min((v for _, _, v in pairs), default=math.inf)


def match_boxes(preds, gt, t: float, *, inclusive: bool = False) -> MatchResult:
    """Greedily match predictions to ground truth at IoU threshold ``t``.

    Predictions are processed in descending confidence order (ties keep
    input order); each takes the still-unmatched ground-truth box it
    overlaps most (ties go to the lowest index), provided that overlap
    exceeds ``t`` (or reaches it, with ``inclusive``). Every ground-truth
    box can be matched at most once, so duplicate predictions of the same
    box count as false positives.
    """
    return _match(*next(_overlaps([(detection_rows(preds), list(gt))])), validate_thresholds((t,)), inclusive)[0]


def _score_image(preds, gt, overlaps, ts, inclusive):
    """One image's (score, tp per threshold), the image as :func:`_overlaps`
    yields it; its fp and fn are its sizes less tp. This is the score path's
    one empty-image rule: an image with no predictions or no ground truth is
    not matched, its tp are (), and it scores None when both sides are
    empty, else 0.0."""
    n, m = len(preds), len(gt)
    if not n or not m:
        return (None if n == m else 0.0), ()
    tps = [r.tp for r in _match(preds, gt, overlaps, ts, inclusive)]
    return sum(tp / (n + m - tp) for tp in tps) / len(ts), tps


def average_precision(preds, gt, thresholds=DEFAULT_THRESHOLDS, *, inclusive: bool = False) -> float | None:
    """Per-image score: mean over thresholds of tp / (tp + fp + fn).

    Returns None when the image has neither predictions nor ground truth
    (such images are left out of the dataset mean), and 0.0 when there are
    predictions but nothing to find.
    """
    ts = validate_thresholds(thresholds)
    return _score_image(*next(_overlaps([(detection_rows(preds), list(gt))])), ts, inclusive)[0]


def score_dataset(
    gt_boxes,
    predictions,
    thresholds=DEFAULT_THRESHOLDS,
    *,
    inclusive: bool = False,
) -> ScoreReport:
    """Score a dataset and return the full report.

    ``gt_boxes`` maps image id -> ground-truth Boxes (empty for negative
    images); ``predictions`` is a ``PredictionTable``, which maps image id ->
    its (n, 5) table rows, or a mapping of image id -> Detections, whose
    ``detection_rows`` are taken per image here, so one core scores both.
    Images are the union of both key sets, evaluated in sorted-id order so
    the report is identical regardless of input ordering.
    """
    ts = validate_thresholds(thresholds)
    if not isinstance(predictions, PredictionTable):
        predictions = {i: detection_rows(dets) for i, dets in predictions.items()}
    ids = sorted(set(gt_boxes) | set(predictions))
    images = [(predictions.get(i, _NO_ROWS), list(gt_boxes.get(i, ()))) for i in ids]
    results = [_score_image(*image, ts, inclusive) for image in _overlaps(images)]
    scores = [score for score, _ in results]
    matched = [tps for _, tps in results if tps]  # tp per threshold of each image with both sides
    tp = [sum(column) for column in zip(*matched)] if matched else [0] * len(ts)
    n, m = sum(len(preds) for preds, _ in images), sum(len(gt) for _, gt in images)
    undefined = () if any(s is not None for s in scores) else ("dataset_map",)
    return ScoreReport(
        dataset_map=mean_average_precision(scores),
        thresholds=ts,
        per_image=tuple(zip(ids, scores)),
        counts=tuple(ThresholdCounts(t, k, n - k, m - k) for t, k in zip(ts, tp)),
        undefined=undefined,
    )


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")


@dataclass(frozen=True)
class ClassificationMetrics:
    """The five headline classification metrics; any 0/0 ratio is reported
    as 0.0 and its name recorded in ``undefined``."""

    accuracy: float
    specificity: float
    precision: float
    recall: float
    f1: float
    undefined: tuple[str, ...] = ()


def confusion_metrics(c: ConfusionCounts) -> ClassificationMetrics:
    """Accuracy, specificity, precision, recall, and F1 from raw counts."""
    undefined = []

    def ratio(num, den, name):
        if den == 0:
            undefined.append(name)
            return 0.0
        return num / den

    accuracy = ratio(c.tp + c.tn, c.tp + c.tn + c.fp + c.fn, "accuracy")
    specificity = ratio(c.tn, c.tn + c.fp, "specificity")
    precision = ratio(c.tp, c.tp + c.fp, "precision")
    recall = ratio(c.tp, c.tp + c.fn, "recall")
    f1 = ratio(2.0 * precision * recall, precision + recall, "f1")
    return ClassificationMetrics(accuracy, specificity, precision, recall, f1, tuple(undefined))


def kfold_split(ids, k: int, seed: int) -> dict:
    """Deterministically partition ids into k folds of near-equal size.

    Ids are shuffled with a seeded RNG and dealt round-robin, so fold sizes
    differ by at most one and the same (ids, seed) always yields the same
    assignment. A repeated id is rejected by name.
    """
    ids = list(ids)
    if not isinstance(k, numbers.Integral):
        raise ValueError(f"fold count must be an integer: {k!r}")
    if k < 2:
        raise ValueError(f"need at least 2 folds: {k!r}")
    if k > len(ids):
        raise ValueError(f"cannot split {len(ids)} ids into {k} folds")
    seen = set()
    for item in ids:
        if item in seen:
            raise ValueError(f"ids must be unique: {item!r} repeats")
        seen.add(item)
    shuffled = ids.copy()
    random.Random(seed).shuffle(shuffled)
    return {item: pos % k for pos, item in enumerate(shuffled)}


def smooth_l1(x: float, beta: float = 1.0) -> float:
    """Huber-style loss: quadratic inside |x| < beta, linear outside."""
    if not beta > 0:
        raise ValueError(f"beta must be positive: {beta!r}")
    ax = abs(x)
    if ax < beta:
        return 0.5 * x * x / beta
    return ax - 0.5 * beta


def binary_cross_entropy(p: float, y: int) -> float:
    """-[y ln p + (1-y) ln(1-p)]; p must lie strictly inside (0, 1)."""
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1: {y!r}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie strictly inside (0, 1): {p!r}")
    return -math.log(p) if y == 1 else -math.log(1.0 - p)


def total_loss(cls_loss: float, reg_loss: float, reg_weight: float = 1.0) -> float:
    """Combined objective: classification plus weighted regression loss."""
    return cls_loss + reg_weight * reg_loss
