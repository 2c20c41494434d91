"""Detection scoring and evaluation utilities.

The dataset score is the competition-style mean average precision: per
image, predictions are matched greedily to ground truth in descending
confidence order, a per-threshold precision tp / (tp + fp + fn) is computed
over a set of IoU thresholds, the per-image score is the mean over
thresholds, and the dataset score is the mean over images. Images with
neither ground truth nor predictions are excluded from that final mean;
images with predictions but no ground truth score zero. Thresholds between
which an image has no overlap form a band, and each band is walked once.
Whether an overlap passes a threshold is decided in one place, the bisect
that counts an image's failing overlaps; a walk is handed the least passing
overlap and takes any best overlap that reaches it.

Overlaps are batched. ``score_dataset`` runs images together up to a budget
of pairs and takes every (prediction, ground truth) overlap of a run in one
``iou_columns`` pass over pair columns built by ``np.repeat``; an image over
the budget alone goes in bands of prediction rows, so temporaries stay
bounded for any input, and each image reads its rows as slices of one flat
list. ``match_boxes`` and ``average_precision`` are one-image runs of the
same path. Overlaps come from float64 corners, as in ``nms`` and
``label_anchors``, so they equal ``iou`` bit for bit on float coordinates.
On Python int coordinates ``iou`` computes exactly, so the two can differ
in the last bit once a coordinate or an area passes 2**53, and a coordinate
too large for any float raises OverflowError here.

Also here: binary-classification confusion metrics, seeded k-fold
splitting, and pointwise loss evaluation (smooth L1, binary cross-entropy,
and their weighted combination).
"""

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .formats import ScoreReport, ThresholdCounts, validate_thresholds
from .geometry import box_columns, corners, iou, iou_columns  # noqa: F401  (bench/tracing.py wraps iou here)

__all__ = [
    "DEFAULT_THRESHOLDS",
    "MatchResult",
    "ConfusionCounts",
    "ClassificationMetrics",
    "match_boxes",
    "average_precision",
    "mean_average_precision",
    "score_dataset",
    "confusion_metrics",
    "kfold_split",
    "smooth_l1",
    "binary_cross_entropy",
    "total_loss",
    "threshold_range",
    "validate_thresholds",
]

DEFAULT_THRESHOLDS = (0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75)
MAX_THRESHOLDS = 1000  # the most a lo:hi:step range may hold

# (prediction, ground truth) pairs per iou_columns pass: a run's temporaries
# stay a few dozen KB however many images are scored
_PAIR_BUDGET = 2048


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
    """Yield (preds, gt, overlaps) for each (preds, gt) image: prediction i's
    overlaps are ``overlaps[i * m:(i + 1) * m]``, and there are none when a
    side is empty.

    Images run together until the next would take the run past _PAIR_BUDGET
    pairs, and each run is one iou_columns pass; an image over the budget
    alone is passed in bands of as many prediction rows as fit, at least one.
    """
    run, pairs = [], 0
    for preds, gt in images:
        size = len(preds) * len(gt)
        if pairs + size > _PAIR_BUDGET:
            yield from _run_overlaps(run)
            run, pairs = [], 0
        if size <= _PAIR_BUDGET:
            run.append((preds, gt))
            pairs += size
            continue
        step = max(1, _PAIR_BUDGET // len(gt))
        bands = (_run_overlaps([(preds[r0 : r0 + step], gt)])[0][2] for r0 in range(0, len(preds), step))
        yield preds, gt, [v for band in bands for v in band]
    yield from _run_overlaps(run)


def _run_overlaps(run) -> list:
    """(preds, gt, overlaps) for each image of a run, every overlap of the
    run taken in one iou_columns pass over pair columns built by np.repeat."""
    live = [(preds, gt) for preds, gt in run if preds and gt]
    if not live:
        return [(preds, gt, []) for preds, gt in run]
    n = np.array([len(preds) for preds, _ in live])
    m = np.array([len(gt) for _, gt in live])
    per_pred = np.repeat(m, n)  # each prediction's row length
    pair_starts = np.cumsum(per_pred) - per_pred
    gt_starts = np.repeat(np.cumsum(m) - m, n)
    pred_index = np.repeat(np.arange(len(per_pred)), per_pred)
    gt_index = np.arange(len(pred_index)) + np.repeat(gt_starts - pair_starts, per_pred)
    a = box_columns(corners(d.box for preds, _ in live for d in preds))
    b = box_columns(corners(g for _, gt in live for g in gt))
    with np.errstate(all="ignore"):  # huge boxes overflow to inf and nan, as in iou
        flat = iter(iou_columns(a[:, pred_index], b[:, gt_index]).tolist())
    return [(preds, gt, list(islice(flat, len(preds) * len(gt)))) for preds, gt in run]


def _match(preds, gt, ts, inclusive, overlaps=None) -> list[MatchResult]:
    """Greedy matching at every threshold in ``ts``, one MatchResult each.

    Predictions are sorted once, and ``overlaps``, the image's rows from
    :func:`_overlaps` (computed here when not given), are read as slices. A
    walk depends on a threshold only through which overlaps pass it, so
    thresholds that no positive overlap separates share one walk, and a band
    that no overlap passes needs none.
    """
    n, m = len(preds), len(gt)
    if not n or not m:
        return [MatchResult(0, n, m, ())] * len(ts)
    if overlaps is None:
        overlaps = next(_overlaps([(preds, gt)]))[2]
    neg_scores = [-p.score for p in preds]
    order = sorted(range(n), key=neg_scores.__getitem__)  # stable: ties keep input order
    rows = [(pi, overlaps[pi * m : (pi + 1) * m]) for pi in order]
    # a walk only ever takes an overlap above 0.0, so nan (which fails every
    # comparison, and would break sorting) never counts
    positive = sorted([v for v in overlaps if v > 0.0])
    # the pass rule, stated only here: the overlaps that fail t are those <= t,
    # or those < t when inclusive, and the rest, positive[failing:], pass
    count_failing = bisect_left if inclusive else bisect_right
    results = []
    band = result = None
    for t in ts:
        failing = count_failing(positive, t)
        if failing != band:  # an overlap lies between the previous threshold and t
            band = failing
            result = MatchResult(0, n, m, ()) if failing == len(positive) else _walk(rows, n, m, positive[failing])
        results.append(result)
    return results


def _walk(rows, n, m, floor) -> MatchResult:
    """One greedy walk over confidence-ordered overlap rows, in which a best
    overlap passes when it reaches ``floor``, the least passing overlap (> 0)."""
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
    return MatchResult(tp, n - tp, m - tp, tuple(pairs))


def match_boxes(preds, gt, t: float, *, inclusive: bool = False) -> MatchResult:
    """Greedily match predictions to ground truth at IoU threshold ``t``.

    Predictions are processed in descending confidence order (ties keep
    input order); each takes the still-unmatched ground-truth box it
    overlaps most (ties go to the lowest index), provided that overlap
    exceeds ``t`` (or reaches it, with ``inclusive``). Every ground-truth
    box can be matched at most once, so duplicate predictions of the same
    box count as false positives.
    """
    return _match(list(preds), list(gt), validate_thresholds((t,)), inclusive)[0]


def _score_image(preds, gt, ts, inclusive, overlaps=None):
    """One image's (score, [(tp, fp, fn) per threshold]); the score is None
    when the image has neither predictions nor ground truth."""
    if not preds and not gt:
        return None, [(0, 0, 0)] * len(ts)
    matches = _match(preds, gt, ts, inclusive, overlaps)
    score = sum(m.tp / (m.tp + m.fp + m.fn) for m in matches) / len(ts)
    return score, [(m.tp, m.fp, m.fn) for m in matches]


def average_precision(preds, gt, thresholds=DEFAULT_THRESHOLDS, *, inclusive: bool = False) -> float | None:
    """Per-image score: mean over thresholds of tp / (tp + fp + fn).

    Returns None when the image has neither predictions nor ground truth
    (such images are left out of the dataset mean), and 0.0 when there are
    predictions but nothing to find.
    """
    ts = validate_thresholds(thresholds)
    return _score_image(list(preds), list(gt), ts, inclusive)[0]


def mean_average_precision(per_image) -> float:
    """Mean of the per-image scores that are present; 0.0 if none are."""
    present = [s for s in per_image if s is not None]
    if not present:
        return 0.0
    return sum(present) / len(present)


def score_dataset(
    gt_boxes,
    predictions,
    thresholds=DEFAULT_THRESHOLDS,
    *,
    inclusive: bool = False,
    workers: int = 1,
) -> ScoreReport:
    """Score a dataset and return the full report.

    ``gt_boxes`` maps image id -> ground-truth Boxes (empty for negative
    images); ``predictions`` maps image id -> Detections. Images are the
    union of both key sets, evaluated in sorted-id order so the report is
    identical regardless of input ordering. ``workers`` is accepted and
    must be at least 1, but has no effect: scoring runs serially.
    """
    ts = validate_thresholds(thresholds)
    if workers < 1:
        raise ValueError(f"workers must be at least 1: {workers!r}")
    ids = sorted(set(gt_boxes) | set(predictions))
    images = ((list(predictions.get(i, ())), list(gt_boxes.get(i, ()))) for i in ids)
    results = [_score_image(preds, gt, ts, inclusive, overlaps) for preds, gt, overlaps in _overlaps(images)]
    per_image = tuple((image_id, score) for image_id, (score, _) in zip(ids, results))
    totals = [[0, 0, 0] for _ in ts]
    for _, counts in results:
        for ti, (tp, fp, fn) in enumerate(counts):
            totals[ti][0] += tp
            totals[ti][1] += fp
            totals[ti][2] += fn
    scores = [score for _, score in per_image]
    undefined = () if any(s is not None for s in scores) else ("dataset_map",)
    return ScoreReport(
        dataset_map=mean_average_precision(scores),
        thresholds=ts,
        per_image=per_image,
        counts=tuple(ThresholdCounts(t, *total) for t, total in zip(ts, totals)),
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
