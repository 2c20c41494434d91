"""The four workloads: seeded synthetic inputs at RSNA scale, one op each,
and the checks every op's output must pass.

A workload holds ``inputs`` distinct inputs of ``images_per_op`` images
each; one round runs one op on each.
``prepare`` is the run's one-time program work, ``op`` is the timed call
into cxrdet, ``digest`` fingerprints an op's output so every later op on the
same input can be compared with the first, and ``check`` verifies that first
output against a computation made apart from the program.
"""

import contextlib
import hashlib
import io
import json
import math
import random

import numpy as np

from oracles import _overlap, brute_force_hard_nms  # the suite's inline IoU and O(n^2) NMS

IMAGE = 1024  # RSNA radiographs are 1024 x 1024
NET_INPUT = 512  # detector input side after resize
STRIDE = 16
GRID = NET_INPUT // STRIDE  # 32 x 32 feature map, 9 anchors a cell: 9 216 anchors
THRESHOLDS = (0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75)


class CheckFailed(Exception):
    """An op's output disagrees with the independent computation."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _rng(name, seed, part=0):
    return random.Random(f"{name}:{seed}:{part}")


def _patient_id(rng):
    h = f"{rng.getrandbits(128):032x}"
    return f"{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:]}"


def _fixed_mix(rng, counts):
    """A list holding ``count`` copies of each value, shuffled by ``rng``:
    every seed gets the same mix, only its order and geometry vary."""
    values = [value for value, count in counts for _ in range(count)]
    rng.shuffle(values)
    return values


def _radiograph(seed, boxes=()):
    """Synthetic 8-bit chest film: body, two dark lung fields, ribs, noise,
    and a brighter opacity inside each box."""
    gen = np.random.default_rng(seed)
    c = (np.arange(IMAGE, dtype=np.float32) + 0.5) / IMAGE
    x, y = c[None, :], c[:, None]
    img = 40.0 + 150.0 * np.exp(-(((x - 0.5) / 0.45) ** 2 + ((y - 0.5) / 0.55) ** 2) ** 2)
    for cx in (0.32, 0.68):
        img -= 70.0 * np.exp(-(((x - cx) / 0.14) ** 2 + ((y - 0.48) / 0.25) ** 2) ** 2)
    img += 14.0 * (np.sin(40.0 * np.pi * y + 8.0 * (x - 0.5) ** 2) > 0.6)
    for b in boxes:
        img[int(b[1]) : int(b[3]), int(b[0]) : int(b[2])] += 30.0
    img += gen.normal(0.0, 6.0, img.shape).astype(np.float32)
    return np.clip(img, 0, 255).astype(np.uint8)


def _write_pgm(path, img):
    h, w = img.shape
    path.write_bytes(b"P5\n%d %d\n255\n" % (w, h) + img.tobytes())


def _corners(x, y, w, h):
    return (x, y, x + w, y + h)


def _run_cli(api, argv):
    """Run one ``cxrdet`` command in-process and return its stdout; a
    non-zero exit makes the op a failed one."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = api.cli_main(argv)
    if code != 0:
        raise RuntimeError(f"cxrdet {argv[0]} exited {code}")
    return out.getvalue()


class ScoreLeaderboard:
    """``cxrdet score`` over a 3 000-image test set."""

    name = "score-leaderboard"
    inputs = 1
    images_per_op = 3000
    positive_boxes = ((1, 450), (2, 270), (3, 135), (4, 45))  # 900 images, 30%

    def __init__(self, api, seed, work):
        rng = _rng(self.name, seed)
        self.gt_path, self.pred_path = work / "gt.csv", work / "preds.csv"
        self.out_path = work / "report.json"
        n_boxes = _fixed_mix(rng, self.positive_boxes + ((0, self.images_per_op - 900),))
        n_preds = _fixed_mix(rng, [(k, self.images_per_op // 21 + (k < self.images_per_op % 21)) for k in range(21)])
        gt_lines, pred_lines = ["patientId,x,y,width,height,Target"], ["patientId,PredictionString"]
        self.truth = {}  # id -> (gt corners, [(score, corners)])
        for nb, npred in zip(n_boxes, n_preds):
            pid = _patient_id(rng)
            gts = []
            for _ in range(nb):
                w, h = rng.randint(100, 350), rng.randint(120, 450)
                x, y = rng.randint(60, IMAGE - 60 - w), rng.randint(60, IMAGE - 60 - h)
                gt_lines.append(f"{pid},{x},{y},{w},{h},1")
                gts.append((x, y, w, h))
            if not gts:
                gt_lines.append(f"{pid},,,,,0")
            tokens, preds = [], []
            for k in range(npred):
                if gts and k < 2 * len(gts):  # jittered copy of a true box
                    x, y, w, h = gts[k % len(gts)]
                    box = (x + rng.uniform(-0.15, 0.15) * w, y + rng.uniform(-0.15, 0.15) * h,
                           w * rng.uniform(0.8, 1.25), h * rng.uniform(0.8, 1.25))
                else:
                    w, h = rng.uniform(60, 350), rng.uniform(60, 450)
                    box = (rng.uniform(0, IMAGE - w), rng.uniform(0, IMAGE - h), w, h)
                text = [f"{rng.uniform(0.05, 1.0):.4f}"] + [f"{v:.1f}" for v in box]
                tokens.extend(text)
                preds.append((float(text[0]), _corners(*(float(t) for t in text[1:]))))
            pred_lines.append(f"{pid},{' '.join(tokens)}")
            self.truth[pid] = ([_corners(*map(float, g)) for g in gts], preds)
        self.gt_path.write_text("\n".join(gt_lines) + "\n")
        self.pred_path.write_text("\n".join(pred_lines) + "\n")

    def prepare(self, api):
        pass

    def op(self, api, i):
        argv = ["score", str(self.gt_path), str(self.pred_path), "--out", str(self.out_path)]
        return _run_cli(api, argv)

    def digest(self, i, stdout):
        return hashlib.sha1(stdout.encode() + self.out_path.read_bytes()).hexdigest()

    def check(self, i, stdout):
        report = json.loads(self.out_path.read_text())
        _require(tuple(report["thresholds"]) == THRESHOLDS, f"thresholds {report['thresholds']}")
        per_image = {e["patient_id"]: e["average_precision"] for e in report["per_image"]}
        _require(set(per_image) == set(self.truth), "report images differ from the input images")
        totals = [[0, 0, 0] for _ in THRESHOLDS]
        n_gt = n_pred = 0
        present = []
        for pid, (gts, preds) in self.truth.items():
            n_gt += len(gts)
            n_pred += len(preds)
            score, counts = _greedy_score(preds, gts)
            got = per_image[pid]
            if score is None:
                _require(got is None, f"{pid}: expected null, got {got}")
                continue
            _require(got is not None and f"{got:.6f}" == f"{score:.6f}",
                     f"{pid}: per-image score {got} but the greedy oracle gives {score:.6f}")
            present.append(score)
            for total, count in zip(totals, counts):
                for k in range(3):
                    total[k] += count[k]
        reported = [(c["tp"], c["fp"], c["fn"]) for c in report["counts"]]
        _require(reported == [tuple(t) for t in totals], f"counts {reported} != oracle {totals}")
        for tp, fp, fn in reported:
            _require(tp + fn == n_gt, f"tp + fn = {tp + fn}, but there are {n_gt} true boxes")
            _require(tp + fp == n_pred, f"tp + fp = {tp + fp}, but there are {n_pred} predictions")
        tps = [tp for tp, _, _ in reported]
        _require(all(b <= a for a, b in zip(tps, tps[1:])), f"tp rises with the threshold: {tps}")
        mean = sum(present) / len(present)
        _require(abs(report["dataset_map"] - mean) <= 1e-6, "dataset_map is not the per-image mean")
        _require(stdout == f"{report['dataset_map']:.6f}\n", f"stdout {stdout!r}")


def _greedy_score(preds, gts):
    """Per-image score and (tp, fp, fn) per threshold from a plain greedy
    matcher on the oracle IoU: confidence order, ties to the lower index."""
    if not preds and not gts:
        return None, [(0, 0, 0)] * len(THRESHOLDS)
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][0], i))
    counts = []
    for t in THRESHOLDS:
        unmatched = list(range(len(gts)))
        tp = 0
        for pi in order:
            best, best_overlap = -1, 0.0
            for gi in unmatched:
                overlap = _overlap(preds[pi][1], gts[gi])
                if overlap > best_overlap:
                    best, best_overlap = gi, overlap
            if best >= 0 and best_overlap > t:
                unmatched.remove(best)
                tp += 1
        counts.append((tp, len(preds) - tp, len(gts) - tp))
    score = sum(tp / (tp + fp + fn) for tp, fp, fn in counts) / len(THRESHOLDS)
    return score, counts


def _iou_row(box, boxes):
    """IoU of one corner-form box against every row of ``boxes``, in the
    same operation order as the scalar oracle."""
    w = np.minimum(box[2], boxes[:, 2]) - np.maximum(box[0], boxes[:, 0])
    h = np.minimum(box[3], boxes[:, 3]) - np.maximum(box[1], boxes[:, 1])
    inter = np.where((w > 0) & (h > 0), w * h, 0.0)
    union = (box[2] - box[0]) * (box[3] - box[1]) + (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1]) - inter
    return np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)


class NmsRaw:
    """``cxrdet nms --mode soft-gaussian`` over shards of raw second-stage
    detections."""

    name = "nms-raw"
    inputs = 2
    shard_sizes = (1000, 420, 180, 80, 40, 20)  # detections per image, heavy-tailed
    images_per_op = len(shard_sizes)
    sigma = 0.5
    cutoff = 0.001  # the CLI's default --score-cut

    def __init__(self, api, seed, work):
        self.shards = []
        for s in range(self.inputs):
            rng = _rng(self.name, seed, s)
            path, out = work / f"shard{s}.csv", work / f"kept{s}.csv"
            lines, truth = ["patientId,PredictionString"], []
            for slot, n in enumerate(self.shard_sizes):
                pid = _patient_id(rng)
                dets = _raw_detections(rng, n, objects=1 + slot % 3)
                lines.append(f"{pid}," + " ".join(repr(v) for det in dets for v in det))
                truth.append((pid, dets))
            path.write_text("\n".join(lines) + "\n")
            self.shards.append((path, out, truth))

    def prepare(self, api):
        pass

    def op(self, api, i):
        path, out, _ = self.shards[i]
        argv = ["nms", str(path), "--mode", "soft-gaussian", "--sigma", str(self.sigma), "--out", str(out)]
        return _run_cli(api, argv)

    def digest(self, i, stdout):
        return hashlib.sha1(stdout.encode() + self.shards[i][1].read_bytes()).hexdigest()

    def check(self, i, stdout):
        _require(stdout == "", f"nms with --out printed {stdout[:80]!r}")
        _, out, truth = self.shards[i]
        lines = out.read_text().splitlines()
        _require(lines[0] == "patientId,PredictionString", f"header {lines[0]!r}")
        _require(len(lines) - 1 == len(truth), "one output row per input image expected")
        for line, (pid, dets) in zip(lines[1:], truth):
            got_pid, text = line.split(",", 1)
            _require(got_pid == pid, f"row for {got_pid}, expected {pid}")
            self._check_image(pid, dets, [float(t) for t in text.split()])

    def _check_image(self, pid, dets, values):
        _require(len(values) % 5 == 0, f"{pid}: ragged prediction string")
        kept = [values[k : k + 5] for k in range(0, len(values), 5)]
        where = {(x, y): k for k, (_, x, y, _, _) in enumerate(dets)}
        idx = []
        for score, x, y, w, h in kept:
            k = where.pop((x, y), None)
            _require(k is not None, f"{pid}: kept box at ({x}, {y}) is not an unused input box")
            _require(abs(w - dets[k][3]) <= 1e-9 * dets[k][3] and abs(h - dets[k][4]) <= 1e-9 * dets[k][4],
                     f"{pid}: kept box {k} changed size")
            idx.append(k)
        scores = [det[0] for det in kept]
        _require(all(b <= a for a, b in zip(scores, scores[1:])), f"{pid}: output scores increase")
        arr = np.array(dets)
        boxes = np.stack([arr[:, 1], arr[:, 2], arr[:, 1] + arr[:, 3], arr[:, 2] + arr[:, 4]], axis=1)
        decay = np.ones(len(dets))  # product of the decays by the boxes kept so far
        for score, k in zip(scores, idx):
            expected = dets[k][0] * decay[k]
            _require(abs(score - expected) <= 1e-12 * expected,
                     f"{pid}: kept score {score!r} but the decay product gives {float(expected)!r}")
            decay *= np.exp(-(_iou_row(boxes[k], boxes) ** 2) / self.sigma)
        dropped = np.setdiff1d(np.arange(len(dets)), idx)
        _require((arr[dropped, 0] * decay[dropped] < self.cutoff).all(),
                 f"{pid}: a dropped detection ends above the cutoff")


def _raw_detections(rng, n, objects):
    """``n`` (score, x, y, w, h) detections: three fifths jittered around
    ``objects`` opacities with high scores, the rest scattered background
    with low scores, all at full float precision."""
    centers = []
    for _ in range(objects):
        w, h = rng.uniform(150, 250), rng.uniform(200, 320)
        centers.append((rng.uniform(w, IMAGE - w), rng.uniform(h, IMAGE - h), w, h))
    dets = []
    for k in range(n):
        if k % 5 < 3:
            cx, cy, w, h = centers[k % objects]
            w, h = w * rng.uniform(0.7, 1.4), h * rng.uniform(0.7, 1.4)
            x, y = cx + rng.gauss(0.0, 0.15 * w) - w / 2, cy + rng.gauss(0.0, 0.15 * h) - h / 2
            score = rng.uniform(0.3, 1.0)
        else:
            w, h = rng.uniform(40, 300), rng.uniform(40, 300)
            x, y = rng.uniform(0, IMAGE - w), rng.uniform(0, IMAGE - h)
            score = rng.uniform(0.001, 0.3)
        dets.append((score, x, y, w, h))
    return dets


def _anchor_spec(api):
    return api.AnchorSpec(16.0, (2.0, 4.0, 8.0), (0.5, 1.0, 2.0), float(STRIDE))  # 32 to 128 px at 512


class DetectImage:
    """The inference half of the detector on one 1024 x 1024 film: CLI
    preprocessing, box decoding, proposal selection and RoI pooling."""

    name = "detect-image"
    inputs = 2
    images_per_op = 1
    pre_top_n, post_top_n, nms_iou = 1000, 300, 0.5
    pool = 7
    sampled_bins = 256

    def __init__(self, api, seed, work):
        self.cases = []
        n = GRID * GRID * 9
        for s in range(self.inputs):
            rng = _rng(self.name, seed, s)
            gen = np.random.default_rng(rng.getrandbits(64))
            src, out = work / f"film{s}.pgm", work / f"net{s}.pgm"
            _write_pgm(src, _radiograph(rng.getrandbits(64)))
            tx, ty, tw, th = (gen.normal(0.0, sd, n).tolist() for sd in (0.1, 0.1, 0.2, 0.2))
            deltas = [api.BoxDelta(*d) for d in zip(tx, ty, tw, th)]
            scores = gen.random(n).tolist()
            fmap = gen.standard_normal((256, GRID, GRID))
            self.cases.append((src, out, deltas, scores, fmap, rng.getrandbits(32)))
        self.anchors = None

    def prepare(self, api):
        self.anchors = api.generate_anchors(_anchor_spec(api), GRID, GRID)

    def op(self, api, i):
        src, out, deltas, scores, fmap, _ = self.cases[i]
        _run_cli(api, ["preprocess", str(src), "--clahe", "--resize", str(NET_INPUT), "--out", str(out)])
        boxes = [api.decode_box(a, d) for a, d in zip(self.anchors, deltas)]
        proposals = api.select_proposals(boxes, scores, float(NET_INPUT), float(NET_INPUT),
                                         pre_top_n=self.pre_top_n, post_top_n=self.post_top_n,
                                         nms_iou=self.nms_iou)
        rois = api.scale_boxes([p.box for p in proposals], 1.0 / STRIDE, 1.0 / STRIDE)
        pooled = [api.roi_max_pool(fmap, roi, self.pool, self.pool) for roi in rois]
        return boxes, proposals, pooled

    def digest(self, i, result):
        _, proposals, pooled = result
        h = hashlib.sha1(self.cases[i][1].read_bytes())
        h.update(repr([(p.box, p.score) for p in proposals]).encode())
        for block in pooled:
            h.update(block.tobytes())
        return h.hexdigest()

    def check(self, i, result):
        boxes, proposals, pooled = result
        _, out, _, scores, fmap, bin_seed = self.cases[i]
        data = out.read_bytes()
        _require(data.startswith(b"P5\n512 512\n255\n") and len(data) == 15 + NET_INPUT * NET_INPUT,
                 "preprocessed PGM is not 512 x 512")
        side = float(NET_INPUT)
        candidates = []
        for k, b in enumerate(boxes):
            c = (min(max(b.x_min, 0.0), side), min(max(b.y_min, 0.0), side),
                 min(max(b.x_max, 0.0), side), min(max(b.y_max, 0.0), side))
            if c[2] - c[0] >= 1.0 and c[3] - c[1] >= 1.0:
                candidates.append((k, c))
        candidates.sort(key=lambda kc: (-scores[kc[0]], kc[0]))
        top = candidates[: self.pre_top_n]
        keep = brute_force_hard_nms([c for _, c in top], [scores[k] for k, _ in top], self.nms_iou)
        expected = [(top[j][1], scores[top[j][0]]) for j in keep[: self.post_top_n]]
        got = [((p.box.x_min, p.box.y_min, p.box.x_max, p.box.y_max), p.score) for p in proposals]
        _require(got == expected, f"{len(got)} proposals differ from the brute-force NMS oracle")
        rng = random.Random(bin_seed)
        for _ in range(self.sampled_bins):
            p = rng.randrange(len(proposals))
            row, col = rng.randrange(self.pool), rng.randrange(self.pool)
            b = proposals[p].box  # inside the image, so inside the map once scaled
            x0, x1 = math.floor(b.x_min / STRIDE), math.ceil(b.x_max / STRIDE)
            y0, y1 = math.floor(b.y_min / STRIDE), math.ceil(b.y_max / STRIDE)
            rw, rh = x1 - x0, y1 - y0
            r0, r1 = y0 + (row * rh) // self.pool, y0 - (-(row + 1) * rh // self.pool)
            c0, c1 = x0 + (col * rw) // self.pool, x0 - (-(col + 1) * rw // self.pool)
            want = fmap[:, r0:r1, c0:c1].max(axis=(1, 2))
            _require(np.array_equal(pooled[p][:, row, col], want), f"pooled bin ({p}, {row}, {col}) differs")


class TrainSample:
    """One training sample: augment, resize, label anchors, encode targets."""

    name = "train-sample"
    inputs = 8
    images_per_op = 1
    box_mix = ((1, 2), (2, 3), (3, 2), (4, 1))  # boxes per film over one round

    def __init__(self, api, seed, work):
        rng = _rng(self.name, seed)
        self.cases = []
        for s, nb in enumerate(_fixed_mix(rng, self.box_mix)):
            boxes = []
            for _ in range(nb):
                w, h = rng.uniform(120, 320), rng.uniform(150, 420)
                x = rng.uniform(140, IMAGE - 140 - w)
                y = rng.uniform(140, IMAGE - 140 - h)
                boxes.append(api.Box(x, y, x + w, y + h))
            spec = api.AugmentSpec(rotation_deg=rng.uniform(-10.0, 10.0), shift_x=rng.uniform(-20.0, 20.0),
                                   shift_y=rng.uniform(-20.0, 20.0), hflip=rng.random() < 0.5)
            film = _radiograph(rng.getrandbits(64), [(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes])
            self.cases.append((film, boxes, spec))
        self.anchors = None

    def prepare(self, api):
        self.anchors = api.generate_anchors(_anchor_spec(api), GRID, GRID)

    def op(self, api, i):
        film, boxes, spec = self.cases[i]
        img, moved = api.augment(film, boxes, spec)
        small = api.resize(img, NET_INPUT, NET_INPUT)
        targets = api.scale_boxes(moved, NET_INPUT / IMAGE, NET_INPUT / IMAGE)
        labels = api.label_anchors(self.anchors, targets)
        deltas = [api.encode_box(self.anchors[k], targets[lab.gt_index])
                  for k, lab in enumerate(labels) if lab.is_positive]
        return moved, small, targets, labels, deltas

    def digest(self, i, result):
        moved, small, targets, labels, deltas = result
        h = hashlib.sha1(small.tobytes())
        h.update(repr((moved, targets, [(lab.kind, lab.gt_index) for lab in labels], deltas)).encode())
        return h.hexdigest()

    def check(self, i, result):
        from cxrdet.anchors import decode_box

        moved, small, targets, labels, deltas = result
        _require(small.shape == (NET_INPUT, NET_INPUT), f"resized film is {small.shape}")
        for frame, side in ((moved, IMAGE), (targets, NET_INPUT)):
            for b in frame:
                _require(0.0 <= b.x_min <= b.x_max <= side and 0.0 <= b.y_min <= b.y_max <= side,
                         f"augmented box {b} leaves the {side} x {side} image")
        anchors = [(a.x_min, a.y_min, a.x_max, a.y_max) for a in self.anchors]
        gts = [(g.x_min, g.y_min, g.x_max, g.y_max) for g in targets]
        overlaps = [[_overlap(a, g) for g in gts] for a in anchors]
        best_for_box = [max(row[gi] for row in overlaps) for gi in range(len(gts))]
        positives = [k for k, lab in enumerate(labels) if lab.is_positive]
        _require(len(deltas) == len(positives), "one encoded target per positive anchor expected")
        for k, delta in zip(positives, deltas):
            gi = labels[k].gt_index
            ov = overlaps[k][gi]
            _require(ov >= 0.7 or ov == best_for_box[gi], f"positive anchor {k} has IoU {ov} with box {gi}")
            back = decode_box(self.anchors[k], delta)
            err = max(abs(u - v) for u, v in zip((back.x_min, back.y_min, back.x_max, back.y_max), gts[gi]))
            _require(err <= 1e-9, f"decode(encode) misses box {gi} by {err}")
        for k, lab in enumerate(labels):
            if lab.kind == "negative":
                _require(max(overlaps[k], default=0.0) < 0.3, f"negative anchor {k} overlaps a box >= 0.3")
        for gi in range(len(gts)):
            if best_for_box[gi] > 0.0:
                _require(any(overlaps[k][gi] > 0.0 for k in positives), f"box {gi} has no positive anchor")


WORKLOADS = {w.name: w for w in (ScoreLeaderboard, NmsRaw, DetectImage, TrainSample)}
