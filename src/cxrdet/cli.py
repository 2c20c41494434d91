"""Command-line surface.

Subcommands::

    score       score predictions against ground truth (competition mAP)
    nms         run (soft-)NMS over a predictions file
    anchors     emit generated anchor boxes as CSV
    preprocess  CLAHE / resize / augment a PGM image
    folds       deterministic k-fold split of an id list
    classify    confusion metrics from per-image binary labels

Every subcommand is a deterministic function of its inputs, flags, and
seed. Exit codes: 0 success, 1 I/O failure, 2 malformed input, bad
parameters or an input too large for memory. Text inputs are UTF-8 (a BOM
is skipped), and every error in one, from a byte that is not UTF-8 to a bad
CSV row, names its line; lines end only at LF, CRLF or a lone CR, for
``folds`` id lists too. ``--resize`` is capped at MAX_RESIZE_PIXELS output
pixels, ``--tiles`` at MAX_CLAHE_TILES tiles and ``anchors`` at MAX_ANCHORS
anchors, each checked before anything is allocated.
"""

import argparse
import functools
import math
import random
import sys
from collections import Counter
from itertools import chain

from .anchors import MAX_ANCHORS, AnchorSpec, anchor_corners
from .formats import (
    PredRecord,
    _f6,
    decode_text,
    group_ground_truth,
    group_predictions,
    read_ground_truth,
    read_ids,
    read_labels,
    read_prediction_table,
    read_predictions,
    write_classification,
    write_csv,
    write_predictions,
    write_report,
)
from .metrics import (
    DEFAULT_THRESHOLDS,
    MAX_THRESHOLDS,
    ConfusionCounts,
    confusion_metrics,
    kfold_split,
    score_dataset,
    threshold_range,
    validate_thresholds,
)
from .nms import HARD, _MODES, NmsConfig, nms
from .preprocess import MAX_CLAHE_TILES, MAX_RESIZE_PIXELS, AugmentSpec, augment, clahe, read_pgm, resize, write_pgm


def _thresholds_arg(text: str):
    try:
        if ":" in text:
            lo, hi, step = (float(part) for part in text.split(":"))
            return threshold_range(lo, hi, step)
        return validate_thresholds(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _split_arg(kind, sep: str, count: int | None, expected: str):
    """An argparse type splitting a flag at ``sep`` into ``count`` values of
    ``kind`` (any number when ``count`` is None)."""

    def parse(text: str) -> tuple:
        parts = text.lower().split(sep)
        try:
            if count in (None, len(parts)):
                return tuple(map(kind, parts))
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_wh_arg = _split_arg(int, "x", 2, "WxH")
_shift_arg = _split_arg(float, ",", 2, "X,Y")
_floats_arg = _split_arg(float, ",", None, "a comma-separated float list")


def _read_text(path: str) -> str:
    with open(path, "rb") as fh:
        return decode_text(fh.read())


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_score(args) -> int:
    gt = group_ground_truth(read_ground_truth(_read_text(args.gt)))
    preds = read_prediction_table(_read_text(args.pred))
    if args.workers < 1:
        raise ValueError(f"workers must be at least 1: {args.workers!r}")
    report = score_dataset(gt, preds, args.thresholds, inclusive=args.inclusive_iou)
    if args.out is not None:
        _write_text(args.out, write_report(report))
    print(_f6(report.dataset_map))
    return 0


def _cmd_nms(args) -> int:
    records = read_predictions(_read_text(args.input))
    config = NmsConfig(
        mode=args.mode,
        iou_threshold=args.iou,
        sigma=args.sigma,
        score_cutoff=args.score_cut,
    )
    out_records = [
        PredRecord(pid, tuple(nms(dets, config)))
        for pid, dets in group_predictions(records).items()
    ]
    _write_text(args.out, write_predictions(out_records))
    return 0


def _cmd_anchors(args) -> int:
    spec = AnchorSpec(args.base_size, tuple(args.scales), tuple(args.ratios), args.stride)
    corners = anchor_corners(spec, *args.grid)
    # 4 096-row lists at a time: one list of every row would outweigh the text
    rows = chain.from_iterable(corners[i : i + 4096].tolist() for i in range(0, len(corners), 4096))
    _write_text(args.out, write_csv(("x_min", "y_min", "x_max", "y_max"), rows))
    return 0


def _check_sampling_flags(args) -> None:
    if not 0.0 <= args.hflip_prob <= 1.0:
        raise ValueError(f"--hflip-prob must lie in [0, 1]: {args.hflip_prob!r}")
    for flag, value in (("--max-rotate", args.max_rotate), ("--max-shift", args.max_shift)):
        # uniform(-r, r) scales by the width 2r, which must not overflow either
        if not math.isfinite(2.0 * value):
            raise ValueError(f"{flag} must be a finite range: {value!r}")
        if value < 0.0:  # uniform(r, -r) would draw the mirror image of uniform(-r, r); -0 is 0
            raise ValueError(f"{flag} must not be negative: {value!r}")


def _cmd_preprocess(args) -> int:
    if args.sample_augment:
        _check_sampling_flags(args)
    img = read_pgm(args.input)
    if args.clahe:
        tiles_x, tiles_y = args.tiles
        img = clahe(img, tiles_x=tiles_x, tiles_y=tiles_y, clip_limit=args.clip)
    if args.resize is not None:
        img = resize(img, args.resize, args.resize)
    if args.sample_augment:
        rng = random.Random(args.seed)
        spec = AugmentSpec(
            rotation_deg=rng.uniform(-args.max_rotate, args.max_rotate),
            shift_x=rng.uniform(-args.max_shift, args.max_shift),
            shift_y=rng.uniform(-args.max_shift, args.max_shift),
            hflip=rng.random() < args.hflip_prob,
        )
    else:
        shift_x, shift_y = args.shift
        spec = AugmentSpec(args.rotate, shift_x, shift_y, args.hflip)
    if not spec.is_identity:
        img, _ = augment(img, [], spec)
    write_pgm(args.out, img)
    return 0


def _cmd_folds(args) -> int:
    ids = read_ids(_read_text(args.ids))
    assignment = kfold_split(ids, args.k, args.seed)
    _write_text(args.out, write_csv(("patientId", "fold"), ((pid, assignment[pid]) for pid in ids)))
    return 0


def _cmd_classify(args) -> int:
    pairs = Counter((truth, pred) for _, truth, pred in read_labels(_read_text(args.labels)))
    m = confusion_metrics(
        ConfusionCounts(tp=pairs[1, 1], fp=pairs[0, 1], tn=pairs[0, 0], fn=pairs[1, 0])
    )
    _write_text(args.out, write_classification(m))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cxrdet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score predictions against ground truth")
    p.add_argument("gt", help="ground-truth CSV")
    p.add_argument("pred", help="predictions CSV")
    p.add_argument("--thresholds", type=_thresholds_arg, default=DEFAULT_THRESHOLDS,
                   help="IoU thresholds, lo:hi:step or a comma list (default 0.4:0.75:0.05); "
                        f"a range must be finite and hold at most {MAX_THRESHOLDS}")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility: must be at least 1, has no effect")
    p.add_argument("--inclusive-iou", action="store_true",
                   help="count IoU equal to a threshold as a hit (default strictly greater)")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("nms", help="suppress overlapping detections in a predictions file")
    p.add_argument("input", help="predictions CSV")
    p.add_argument("--out", help="output predictions CSV (default stdout)")
    p.add_argument("--mode", choices=_MODES, default=HARD)
    p.add_argument("--iou", type=float, default=0.5, help="suppression IoU threshold")
    p.add_argument("--sigma", type=float, default=0.5, help="gaussian decay width")
    p.add_argument("--score-cut", type=float, default=0.001, help="drop decayed scores below this")
    p.set_defaults(func=_cmd_nms)

    p = sub.add_parser("anchors", help="emit generated anchor boxes as CSV")
    p.add_argument("--base-size", type=float, default=16.0)
    p.add_argument("--scales", type=_floats_arg, default=(8.0, 16.0, 32.0))
    p.add_argument("--ratios", type=_floats_arg, default=(0.5, 1.0, 2.0))
    p.add_argument("--stride", type=float, default=16.0)
    p.add_argument("--grid", type=_wh_arg, default=(1, 1),
                   help=f"feature-map size as WxH; at most {MAX_ANCHORS} anchors in all")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=_cmd_anchors)

    p = sub.add_parser("preprocess", help="CLAHE / resize / augment a PGM image")
    p.add_argument("input", help="input PGM (binary P5)")
    p.add_argument("--out", required=True, help="output PGM")
    p.add_argument("--clahe", action="store_true", help="apply CLAHE first")
    p.add_argument("--clip", type=float, default=2.0, help="CLAHE clip limit")
    p.add_argument("--tiles", type=_wh_arg, default=(8, 8),
                   help=f"CLAHE tile grid as WxH, at most {MAX_CLAHE_TILES} tiles")
    p.add_argument("--resize", type=int, help=f"resize to N x N, at most {MAX_RESIZE_PIXELS} pixels")
    p.add_argument("--rotate", type=float, default=0.0, help="rotation in degrees")
    p.add_argument("--shift", type=_shift_arg, default=(0.0, 0.0), help="shift as X,Y pixels")
    p.add_argument("--hflip", action="store_true", help="mirror horizontally")
    p.add_argument("--sample-augment", action="store_true",
                   help="sample the augmentation from --seed instead of the fixed flags")
    p.add_argument("--max-rotate", type=float, default=10.0, help="R >= 0: rotation drawn from [-R, R] degrees")
    p.add_argument("--max-shift", type=float, default=20.0, help="S >= 0: each shift drawn from [-S, S] pixels")
    p.add_argument("--hflip-prob", type=float, default=0.5, help="sampling probability of a flip")
    p.add_argument("--seed", type=int, default=0, help="augmentation sampling seed")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("folds", help="deterministic k-fold split of an id list")
    p.add_argument("ids", help="text file with one id per line")
    p.add_argument("--k", type=int, default=5, help="number of folds")
    p.add_argument("--seed", type=int, default=0, help="shuffle seed")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=_cmd_folds)

    p = sub.add_parser("classify", help="confusion metrics from per-image binary labels")
    p.add_argument("labels", help="CSV with header patientId,truth,pred")
    p.add_argument("--out", help="output JSON (default stdout)")
    p.set_defaults(func=_cmd_classify)

    return parser


# one parser per process, built by the first main call: importing the module builds none
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
