"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the library's own code paths: overlap
is counted on rasterized unit-cell grids, NMS is the plain O(n^2)
keep/suppress loop with its own inline IoU, histogram equalization is a
direct per-pixel CDF remap, and greedy matching is verified by enumerating
candidate assignments and filtering for greedy consistency. The scalar
loops the library once ran for (soft-)NMS, anchor labelling and RoI
pooling are kept as references for its array versions, box decoding
through the ``Box`` properties as one for its inlined form, and so are the
whole-image forms of its banded pixel kernels (the augmentation sampler,
CLAHE's blend and resize). Those carry their own copies of the affine map,
the one-tile LUT and the edge-based blend axis, and CLAHE's reference counts
each tile's histogram on its own, so no reference leans on the helpers it
checks; resize keeps its clip-and-floor sample rule. The metric's matcher
once walked every threshold in full and the predictions reader once checked
every token on its own; both are kept as references for the banded matcher
and the bulk-parsing reader. RoI pooling once gathered along the map's last axis;
that form is the byte-for-byte reference for the cells-first one, down to
the sign of a tied zero. Pooling once rebuilt its bin taps as Python lists
on every call, and ``corners`` once built a tuple per box; both are kept as
references for the cached tap plans and the one-pass ``corners``. The PGM
decoder once scanned its header byte by byte; that scanner is the reference
for the one-pattern header reader. Augmentation once mapped its boxes one at
a time, as corner tuples of Python floats clipped by ``max`` and ``min``;
that loop is the reference for the array form clipped by ``clip_corners``.
The CSV readers once split lines with one regular expression, and the
predictions table was once built row by row in an ``array('d')``; both are
kept as references for the chunked ``io.StringIO`` splitter and the one
float stream.
"""

import itertools
import math
import re
from array import array

import numpy as np

from cxrdet.formats import PRED_COLUMNS, PredictionTable, PredRecord, _parse_rows, _prediction_tokens
from cxrdet.geometry import Box, iou
from cxrdet.metrics import MatchResult
from cxrdet.nms import Detection

PGM_MAX_SIDE = 1 << 16  # the longest film side the decoder accepts


def raster_cells(box, grid: int) -> np.ndarray:
    """Boolean occupancy grid of an integer-coordinate box."""
    mask = np.zeros((grid, grid), dtype=bool)
    x0, y0, x1, y1 = (int(v) for v in box)
    mask[y0:y1, x0:x1] = True
    return mask


def raster_iou(a, b, grid: int) -> float:
    """IoU by counting unit cells of two integer-coordinate boxes."""
    ma, mb = raster_cells(a, grid), raster_cells(b, grid)
    union = int((ma | mb).sum())
    if union == 0:
        return 0.0
    return int((ma & mb).sum()) / union


def _overlap(a, b) -> float:
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    w = min(ax1, bx1) - max(ax0, bx0)
    h = min(ay1, by1) - max(ay0, by0)
    if w <= 0 or h <= 0:
        return 0.0
    inter = w * h
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return 0.0 if union <= 0 else inter / union


def brute_force_hard_nms(boxes, scores, iou_threshold: float) -> list[int]:
    """Reference hard NMS: returns kept input indices in keep order."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    for i in order:
        if all(_overlap(boxes[i], boxes[j]) <= iou_threshold for j in kept):
            kept.append(i)
    return kept


def global_hist_eq(img: np.ndarray) -> np.ndarray:
    """Plain global histogram equalization: v -> round(cdf(v) * 255 / n)."""
    h, w = img.shape
    counts = [0] * 256
    for v in img.ravel().tolist():
        counts[v] += 1
    total = h * w
    lut = []
    running = 0
    for c in counts:
        running += c
        lut.append(min(255, int(running * 255 / total + 0.5)))
    out = np.empty_like(img)
    flat = out.ravel()
    for idx, v in enumerate(img.ravel().tolist()):
        flat[idx] = lut[v]
    return out


def greedy_consistent_assignments(pred_boxes, pred_scores, gt_boxes, t: float):
    """All injective pred->gt assignments that a greedy confidence-ordered
    matcher could produce; the rule is deterministic so exactly one should
    survive the filter."""
    n, m = len(pred_boxes), len(gt_boxes)
    order = sorted(range(n), key=lambda i: (-pred_scores[i], i))
    results = []
    gt_idx = range(m)
    for k in range(0, min(n, m) + 1):
        for preds in itertools.combinations(range(n), k):
            for gts in itertools.permutations(gt_idx, k):
                assign = dict(zip(preds, gts))
                if _is_greedy_consistent(assign, order, pred_boxes, gt_boxes, t):
                    results.append(assign)
    return results


def _is_greedy_consistent(assign, order, pred_boxes, gt_boxes, t):
    unmatched = set(range(len(gt_boxes)))
    for pi in order:
        best_gi, best_ov = -1, 0.0
        for gi in sorted(unmatched):
            ov = _overlap(pred_boxes[pi], gt_boxes[gi])
            if ov > best_ov:
                best_ov, best_gi = ov, gi
        if best_gi >= 0 and best_ov > t:
            if assign.get(pi) != best_gi:
                return False
            unmatched.remove(best_gi)
        elif pi in assign:
            return False
    return True


def scalar_nms(detections, mode, iou_threshold, sigma, score_cutoff):
    """The per-object (soft-)NMS loop over (corners, score, class_id)
    triples; returns (input index, final score) pairs in keep order."""

    def decay(overlap):
        if mode == "hard":
            return 1.0 if overlap <= iou_threshold else 0.0
        if mode == "soft-linear":
            return 1.0 - overlap if overlap > iou_threshold else 1.0
        return math.exp(-(overlap * overlap) / sigma)

    pending = [[i, box, score, cls] for i, (box, score, cls) in enumerate(detections)]
    kept = []
    while pending:
        best = min(range(len(pending)), key=lambda j: (-pending[j][2], pending[j][0]))
        index, box, score, cls = pending.pop(best)
        kept.append((index, score))
        survivors = []
        for entry in pending:
            if entry[3] == cls:
                factor = decay(_overlap(box, entry[1]))
                if factor < 1.0:
                    entry[2] *= factor
                    if entry[2] < score_cutoff:
                        continue
            survivors.append(entry)
        pending = survivors
    return kept


def scalar_label_anchors(anchors, gts, pos_iou, neg_iou):
    """The per-anchor labelling loop over corner tuples; returns one
    ("positive", gt index), ("negative", None) or ("ignore", None) per anchor."""
    if not anchors or not gts:
        return [("negative", None)] * len(anchors)
    overlaps = [[_overlap(a, g) for g in gts] for a in anchors]
    best_gt = [max(range(len(gts)), key=lambda gi: (row[gi], -gi)) for row in overlaps]
    forced = {}
    for gi in range(len(gts)):
        ai = max(range(len(anchors)), key=lambda a: (overlaps[a][gi], -a))
        if overlaps[ai][gi] > 0.0 and ai not in forced:
            forced[ai] = gi
    labels = []
    for ai, row in enumerate(overlaps):
        if ai in forced:
            labels.append(("positive", forced[ai]))
        elif row[best_gt[ai]] >= pos_iou:
            labels.append(("positive", best_gt[ai]))
        elif row[best_gt[ai]] < neg_iou:
            labels.append(("negative", None))
        else:
            labels.append(("ignore", None))
    return labels


def property_decode_box(anchor, delta):
    """Box decoding as it once read the anchor, through its width, height and
    center properties; returns a corner tuple, and an overflowing exp raises."""
    wa, ha = anchor.width, anchor.height
    if wa <= 0.0 or ha <= 0.0:
        raise ValueError(f"anchor must have positive extents: {anchor!r}")
    xa, ya = anchor.center
    xc = delta.tx * wa + xa
    yc = delta.ty * ha + ya
    w = wa * math.exp(delta.tw)
    h = ha * math.exp(delta.th)
    return (xc - 0.5 * w, yc - 0.5 * h, xc + 0.5 * w, yc + 0.5 * h)


def per_bin_max_pool(fm, roi, out_w, out_h):
    """RoI max pooling one output bin at a time, with the library's clip,
    outward snap and bin rule; ``roi`` is a corner tuple covering cells."""
    height, width = fm.shape[-2], fm.shape[-1]
    cx0, cy0 = math.floor(max(roi[0], 0.0)), math.floor(max(roi[1], 0.0))
    cx1, cy1 = math.ceil(min(roi[2], width)), math.ceil(min(roi[3], height))
    roi_w, roi_h = cx1 - cx0, cy1 - cy0
    out = np.empty(fm.shape[:-2] + (out_h, out_w), dtype=fm.dtype)
    for j in range(out_h):
        r0 = cy0 + (j * roi_h) // out_h
        r1 = cy0 + -((-(j + 1) * roi_h) // out_h)
        for i in range(out_w):
            c0 = cx0 + (i * roi_w) // out_w
            c1 = cx0 + -((-(i + 1) * roi_w) // out_w)
            out[..., j, i] = fm[..., r0:r1, c0:c1].max(axis=(-2, -1))
    return out


def separable_take_max_pool(fm, roi, out_w, out_h):
    """RoI max pooling as two passes over the map's own layout: rows into
    strips, then strips into bins by ``np.take`` along the last axis. Both
    passes fold each bin's cells in order with ``np.maximum``, repeating a
    bin's last cell, so the fold order alone decides which of a tied 0.0
    and -0.0 a bin keeps; ``roi`` is a corner tuple covering cells."""
    height, width = fm.shape[-2], fm.shape[-1]
    cx0, cy0 = math.floor(max(roi[0], 0.0)), math.floor(max(roi[1], 0.0))
    cx1, cy1 = math.ceil(min(roi[2], width)), math.ceil(min(roi[3], height))
    roi_w, roi_h = cx1 - cx0, cy1 - cy0
    j = np.arange(out_h)
    r0 = cy0 + (j * roi_h) // out_h
    r1 = cy0 - ((-(j + 1) * roi_h) // out_h)
    i = np.arange(out_w)
    c0 = (i * roi_w) // out_w
    c1 = -((-(i + 1) * roi_w) // out_w)
    out = np.empty(fm.shape[:-2] + (out_h, out_w), dtype=fm.dtype)
    region = fm[..., cx0:cx1]
    strips = region[..., r0, :]
    for d in range(1, int((r1 - r0).max())):
        np.maximum(strips, region[..., np.minimum(r0 + d, r1 - 1), :], out=strips)
    np.take(strips, c0, axis=-1, out=out)
    for d in range(1, int((c1 - c0).max())):
        np.maximum(out, np.take(strips, np.minimum(c0 + d, c1 - 1), axis=-1), out=out)
    return out


def list_bin_taps(cells, bins):
    """Every bin's d-th cell, for each d, as lists: bin k spans cells
    [floor(k*cells/bins), ceil((k+1)*cells/bins)) and repeats its last cell."""
    starts = [k * cells // bins for k in range(bins)]
    stops = [-(-(k + 1) * cells // bins) for k in range(bins)]
    span = max(b - a for a, b in zip(starts, stops))
    return [[min(a + d, b - 1) for a, b in zip(starts, stops)] for d in range(span)]


def tuple_corners(boxes):
    """Boxes as an (N, 4) float64 array, one corner tuple per box."""
    return np.array([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes], dtype=float).reshape(-1, 4)


def _round_to_u8(values):
    return np.clip(np.floor(values + 0.5), 0.0, 255.0).astype(np.uint8)


def _forward_affine(spec, w, h):
    """Coefficients of p -> A p + b mapping source to output coordinates."""
    theta = math.radians(spec.rotation_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    a11, a12, a21, a22 = cos_t, -sin_t, sin_t, cos_t
    cx, cy = w / 2.0, h / 2.0
    bx = cx - (a11 * cx + a12 * cy) + spec.shift_x
    by = cy - (a21 * cx + a22 * cy) + spec.shift_y
    if spec.hflip:
        a11, a12, bx = -a11, -a12, w - bx
    return a11, a12, a21, a22, bx, by


def per_box_hull_boxes(boxes, spec, w, h):
    """augment's boxes on a w x h film, one box at a time: the hull of its
    four mapped corners, dropped when wholly off the image, else clipped."""
    a11, a12, a21, a22, bx, by = _forward_affine(spec, w, h)
    new_boxes = []
    for box in boxes:
        corners = (
            (box.x_min, box.y_min),
            (box.x_max, box.y_min),
            (box.x_min, box.y_max),
            (box.x_max, box.y_max),
        )
        xs = [a11 * x + a12 * y + bx for x, y in corners]
        ys = [a21 * x + a22 * y + by for x, y in corners]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if x_hi < 0 or x_lo > w or y_hi < 0 or y_lo > h:
            continue
        new_boxes.append(
            Box(max(x_lo, 0.0), max(y_lo, 0.0), min(x_hi, float(w)), min(y_hi, float(h)))
        )
    return new_boxes


def _equalization_lut(hist, n_pixels, clip_limit):
    if math.isfinite(clip_limit):
        # ceiling is clip_limit times the height of a flat histogram
        ceiling = clip_limit * n_pixels / 256.0
        excess = np.clip(hist - ceiling, 0.0, None).sum()
        hist = np.minimum(hist, ceiling) + excess / 256.0
    cdf = np.cumsum(hist)
    return np.clip(np.floor(cdf * (255.0 / n_pixels) + 0.5), 0.0, 255.0)


def _blend_axis(n, edges):
    """Neighbor tile indices and interpolation weight for each pixel index."""
    centers = np.array([(edges[t] + edges[t + 1] - 1) / 2.0 for t in range(len(edges) - 1)])
    pos = np.arange(n, dtype=float)
    hi = np.searchsorted(centers, pos, side="right")
    lo = np.clip(hi - 1, 0, len(centers) - 1)
    hi = np.clip(hi, 0, len(centers) - 1)
    span = centers[hi] - centers[lo]
    weight = np.where(span > 0, (pos - centers[lo]) / np.where(span > 0, span, 1.0), 0.0)
    return lo, hi, np.clip(weight, 0.0, 1.0)


def whole_image_augment(img, spec):
    """augment's image on whole-image float64 arrays: every pixel's source
    point, then four masked, zero-filled bilinear taps."""
    h, w = img.shape
    if spec.is_identity:
        return img.copy()
    a11, a12, a21, a22, bx, by = _forward_affine(spec, w, h)
    det = a11 * a22 - a12 * a21
    i11, i12 = a22 / det, -a12 / det
    i21, i22 = -a21 / det, a11 / det
    out_x = (np.arange(w) + 0.5)[None, :] - bx
    out_y = (np.arange(h) + 0.5)[:, None] - by
    x_idx = (i11 * out_x + i12 * out_y) - 0.5
    y_idx = (i21 * out_x + i22 * out_y) - 0.5
    x0 = np.floor(x_idx).astype(int)
    y0 = np.floor(y_idx).astype(int)
    fx = x_idx - x0
    fy = y_idx - y0
    acc = np.zeros(x_idx.shape)
    for dy in (0, 1):
        for dx in (0, 1):
            xi = x0 + dx
            yi = y0 + dy
            weight = (fx if dx else 1.0 - fx) * (fy if dy else 1.0 - fy)
            valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            vals = img[np.clip(yi, 0, h - 1), np.clip(xi, 0, w - 1)].astype(float)
            acc += weight * np.where(valid, vals, 0.0)
    return _round_to_u8(acc)


def whole_image_clahe(img, tiles_x, tiles_y, clip_limit):
    """CLAHE with the four tile mappings gathered as whole-image float64
    arrays and blended in one expression."""
    h, w = img.shape
    x_edges = [(t * w) // tiles_x for t in range(tiles_x + 1)]
    y_edges = [(t * h) // tiles_y for t in range(tiles_y + 1)]
    luts = np.empty((tiles_y, tiles_x, 256))
    for ty in range(tiles_y):
        for tx in range(tiles_x):
            tile = img[y_edges[ty] : y_edges[ty + 1], x_edges[tx] : x_edges[tx + 1]]
            hist = np.bincount(tile.ravel(), minlength=256).astype(float)
            luts[ty, tx] = _equalization_lut(hist, tile.size, clip_limit)
    ty0, ty1, wy = _blend_axis(h, y_edges)
    tx0, tx1, wx = _blend_axis(w, x_edges)
    m00 = luts[ty0[:, None], tx0[None, :], img]
    m01 = luts[ty0[:, None], tx1[None, :], img]
    m10 = luts[ty1[:, None], tx0[None, :], img]
    m11 = luts[ty1[:, None], tx1[None, :], img]
    wy = wy[:, None]
    wx = wx[None, :]
    blended = (1.0 - wy) * ((1.0 - wx) * m00 + wx * m01) + wy * ((1.0 - wx) * m10 + wx * m11)
    return _round_to_u8(blended)


def whole_image_resize(img, out_w, out_h):
    """Bilinear pixel-center resize with whole-image float64 gathers."""
    h, w = img.shape
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (xs - x0)[None, :]
    fy = (ys - y0)[:, None]
    v00 = img[y0[:, None], x0[None, :]].astype(float)
    v01 = img[y0[:, None], x1[None, :]].astype(float)
    v10 = img[y1[:, None], x0[None, :]].astype(float)
    v11 = img[y1[:, None], x1[None, :]].astype(float)
    values = (1.0 - fy) * ((1.0 - fx) * v00 + fx * v01) + fy * ((1.0 - fx) * v10 + fx * v11)
    return _round_to_u8(values)


def per_threshold_match(preds, gt, ts, inclusive):
    """Greedy matching with one full walk per threshold over IoU rows taken
    once; one MatchResult per threshold."""
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    rows = [(pi, [iou(preds[pi].box, g) for g in gt]) for pi in order]
    results = []
    for t in ts:
        unmatched = list(range(len(gt)))
        pairs = []
        for pi, overlaps in rows:
            best_gi = -1
            best_overlap = 0.0
            for gi in unmatched:
                if overlaps[gi] > best_overlap:
                    best_overlap = overlaps[gi]
                    best_gi = gi
            hit = best_overlap >= t if inclusive else best_overlap > t
            if best_gi >= 0 and hit:
                unmatched.remove(best_gi)
                pairs.append((pi, best_gi, best_overlap))
        tp = len(pairs)
        results.append(MatchResult(tp, len(preds) - tp, len(gt) - tp, tuple(pairs)))
    return results


def _token_real(token, what):
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"non-numeric {what} {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {token!r}")
    return value


def _token_by_token_row(pid, fields):
    tokens = fields[0].split()
    if len(tokens) % 5:
        raise ValueError(f"prediction string must hold conf x y w h quintuples, got {len(tokens)} tokens")
    detections = []
    for k in range(0, len(tokens), 5):
        conf = _token_real(tokens[k], "confidence")
        if not 0.0 <= conf <= 1.0:
            raise ValueError(f"confidence {conf!r} outside [0, 1]")
        x, y, w, h = (_token_real(tok, name) for tok, name in zip(tokens[k + 1 : k + 5], "xywh"))
        if w < 0 or h < 0:
            raise ValueError(f"negative box extent {w if w < 0 else h}")
        detections.append(Detection(Box.from_xywh(x, y, w, h), conf))
    return PredRecord(pid, tuple(detections))


def token_by_token_read_predictions(text):
    """The predictions reader that parses and checks one token at a time,
    raising at the first bad one."""
    return list(_parse_rows(text, PRED_COLUMNS, _token_by_token_row))


# one line with its terminator; lines end only at LF, CRLF or a lone CR
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def regex_lines(text):
    """The lines of ``text`` with their terminators, split by one regular expression."""
    return _LINE.findall(text)


def array_table(rows):
    """The predictions table of (patient_id, tokens) rows, its reals
    gathered row by row in an ``array('d')`` and copied into numpy; raises
    ValueError on the rows the library's bulk checks refuse."""
    ids, reals, bounds = [], array("d"), [0]
    for patient_id, tokens in rows:
        ids.append(patient_id)
        reals.extend(map(float, tokens))
        bounds.append(len(reals) // 5)
    values = np.array(reals).reshape(-1, 5)  # score, x, y, w, h
    score, extents = values[:, 0], values[:, 3:]
    if not ((0.0 <= score) & (score <= 1.0)).all() or not (extents >= 0.0).all():
        raise ValueError("a confidence or a box extent is out of range")
    with np.errstate(all="ignore"):
        extents += values[:, 1:3]
    if not np.isfinite(values[:, 1:]).all():
        raise ValueError("a box is not finite")
    return PredictionTable(values, ids, bounds)


def array_read_prediction_table(text):
    """The predictions reader over ``array_table``; the token-by-token
    reader names the error of a file the bulk checks refuse."""
    try:
        return array_table(_parse_rows(text, PRED_COLUMNS, _prediction_tokens))
    except ValueError:
        token_by_token_read_predictions(text)
        raise


def byte_loop_decode_pgm(data):
    """The PGM decoder that scans its header one byte at a time."""
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise ValueError("truncated PGM header")
        ch = data[pos : pos + 1]
        if ch in b" \t\r\n":
            pos += 1
        elif ch == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
        else:
            end = pos
            while end < len(data) and data[end : end + 1] not in b" \t\r\n#":
                end += 1
            tokens.append(data[pos:end])
            pos = end
    if tokens[0] != b"P5":
        raise ValueError(f"not a binary PGM (magic {tokens[0]!r})")
    try:
        w, h, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ValueError(f"non-numeric PGM header fields: {tokens[1:]}") from None
    if w < 1 or h < 1:
        raise ValueError(f"PGM dimensions must be positive, got {w}x{h}")
    if w > PGM_MAX_SIDE or h > PGM_MAX_SIDE:
        raise ValueError(f"{w}x{h} image has a side over {PGM_MAX_SIDE} pixels")
    if maxval != 255:
        raise ValueError(f"PGM maxval must be 255, got {maxval}")
    # a single whitespace byte separates header from raster
    if pos < len(data) and data[pos] not in b" \t\r\n":
        raise ValueError(f"PGM header must end in one whitespace byte, got {data[pos:pos + 1]!r}")
    raster = data[pos + 1 :]
    if len(raster) != w * h:
        raise ValueError(f"expected {w * h} raster bytes, got {len(raster)}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).copy()
