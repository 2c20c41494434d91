"""Seeded random-input generators and the dataset-scoring oracle shared
across test modules."""

from cxrdet import Box, Detection
from oracles import per_threshold_match


def random_int_box(rng, hi=64) -> Box:
    """Integer-coordinate box in [0, hi]^2; may be degenerate."""
    x0, x1 = sorted(rng.randint(0, hi) for _ in range(2))
    y0, y1 = sorted(rng.randint(0, hi) for _ in range(2))
    return Box(float(x0), float(y0), float(x1), float(y1))


def random_positive_box(rng, hi=100.0, min_side=0.5) -> Box:
    """Float box with both sides at least min_side, inside [0, hi]^2."""
    w = rng.uniform(min_side, hi / 2)
    h = rng.uniform(min_side, hi / 2)
    x0 = rng.uniform(0.0, hi - w)
    y0 = rng.uniform(0.0, hi - h)
    return Box(x0, y0, x0 + w, y0 + h)


def random_detections(rng, n, hi=40, classes=(None,)) -> list[Detection]:
    """Crowded small-board detections; scores quantized so ties occur."""
    dets = []
    for _ in range(n):
        box = random_int_box(rng, hi=hi)
        score = round(rng.random(), 2)
        dets.append(Detection(box, score, rng.choice(classes)))
    return dets


def per_image_oracle(gt_boxes, predictions, ts, inclusive):
    """Per-image scores and per-threshold [tp, fp, fn] totals from one full
    walk per threshold and image, with overlaps from the scalar iou."""
    per_image, totals = [], [[0, 0, 0] for _ in ts]
    for pid in sorted(set(gt_boxes) | set(predictions)):
        preds, gt = list(predictions.get(pid, ())), list(gt_boxes.get(pid, ()))
        if not preds and not gt:
            per_image.append((pid, None))
            continue
        matches = per_threshold_match(preds, gt, ts, inclusive)
        per_image.append((pid, sum(m.tp / (m.tp + m.fp + m.fn) for m in matches) / len(ts)))
        for total, m in zip(totals, matches):
            total[0] += m.tp
            total[1] += m.fp
            total[2] += m.fn
    return per_image, totals
