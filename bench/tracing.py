"""Opt-in tracing from outside the program.

Wrappers are installed where each caller looks a public function up: the
names ``cxrdet.cli`` imports from ``formats``, ``metrics``, ``nms`` and
``preprocess``, the ``nms`` that ``anchors`` imports, the ``iou`` in
``metrics``, ``nms`` and ``anchors`` (counted, not timed), and the
benchmark's own ``api`` namespace for the calls it makes directly. Spans
stay in memory as (name, start, end, parent, op) and are written out when
the run ends. Untraced runs never call :func:`install`.
"""

import json
import math
import time

# per-layer metrics, in the order BENCHMARK.json lists them
PER_LAYER = (
    ("cli.self_ms", "ms"),
    ("formats.read_ground_truth_ms", "ms"),
    ("formats.read_predictions_ms", "ms"),
    ("formats.group_ms", "ms"),
    ("formats.write_predictions_ms", "ms"),
    ("formats.write_report_ms", "ms"),
    ("formats.bytes_in", "bytes"),
    ("formats.detections_parsed", "count"),
    ("metrics.score_dataset_ms", "ms"),
    ("metrics.images_scored", "count"),
    ("metrics.pairs", "count"),
    ("geometry.iou_calls", "count"),
    ("nms.nms_ms", "ms"),
    ("nms.dets_in", "count"),
    ("nms.dets_kept", "count"),
    ("nms.dets_decayed", "count"),
    ("nms.kept_ratio", "ratio"),
    ("anchors.generate_ms", "ms"),
    ("anchors.decode_ms", "ms"),
    ("anchors.select_proposals_ms", "ms"),
    ("anchors.label_ms", "ms"),
    ("anchors.encode_ms", "ms"),
    ("anchors.anchors", "count"),
    ("anchors.proposals_kept", "count"),
    ("anchors.positives", "count"),
    ("roipool.pool_ms", "ms"),
    ("roipool.rois", "count"),
    ("roipool.cells_read", "count"),
    ("preprocess.clahe_ms", "ms"),
    ("preprocess.resize_ms", "ms"),
    ("preprocess.augment_ms", "ms"),
    ("preprocess.pgm_read_ms", "ms"),
    ("preprocess.pgm_write_ms", "ms"),
    ("preprocess.pixels", "count"),
)

# span name -> the per-layer time metric its self time adds to
SPAN_METRIC = {
    "cli.main": "cli.self_ms",
    "formats.read_ground_truth": "formats.read_ground_truth_ms",
    "formats.read_predictions": "formats.read_predictions_ms",
    "formats.group_ground_truth": "formats.group_ms",
    "formats.group_predictions": "formats.group_ms",
    "formats.write_predictions": "formats.write_predictions_ms",
    "formats.write_report": "formats.write_report_ms",
    "metrics.score_dataset": "metrics.score_dataset_ms",
    "nms.nms": "nms.nms_ms",
    "anchors.generate_anchors": "anchors.generate_ms",
    "anchors.decode_box": "anchors.decode_ms",
    "anchors.select_proposals": "anchors.select_proposals_ms",
    "anchors.label_anchors": "anchors.label_ms",
    "anchors.encode_box": "anchors.encode_ms",
    "roipool.roi_max_pool": "roipool.pool_ms",
    "preprocess.clahe": "preprocess.clahe_ms",
    "preprocess.resize": "preprocess.resize_ms",
    "preprocess.augment": "preprocess.augment_ms",
    "preprocess.read_pgm": "preprocess.pgm_read_ms",
    "preprocess.write_pgm": "preprocess.pgm_write_ms",
}

def _snapped_cells(feature_map, roi):
    """Cells of the roi after roipool's documented clip and outward snap,
    times channels."""
    height, width = feature_map.shape[-2], feature_map.shape[-1]
    channels = feature_map.shape[0] if feature_map.ndim == 3 else 1
    x0, y0 = max(roi.x_min, 0.0), max(roi.y_min, 0.0)
    x1, y1 = min(roi.x_max, float(width)), min(roi.y_max, float(height))
    cols = math.ceil(x1) - math.floor(x0)
    rows = math.ceil(y1) - math.floor(y0)
    return cols * rows * channels


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counts = {name: 0 for name, _ in PER_LAYER if not name.endswith("_ms")}
        self.op = -1  # -1 while setting up
        self._stack = []

    def span(self, name, fn, count=None):
        """Wrap ``fn`` so every call records a span; ``count(counts, result,
        args)`` then updates the counters outside the timed interval."""
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf()
                stack.pop()
            if count is not None:
                count(self.counts, result, args)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so calls are only counted, with no span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self):
        """Per span, its duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def per_layer(self, ops):
        """Per-layer metrics: times and counts per op, except set-up work,
        which is per call."""
        totals = dict.fromkeys(SPAN_METRIC.values(), 0.0)
        for (name, _, _, _, _), own in zip(self.spans, self.self_times()):
            totals[SPAN_METRIC[name]] += own
        generate_calls = sum(span[0] == "anchors.generate_anchors" for span in self.spans)
        values = {}
        for name, unit in PER_LAYER:
            if name in totals:
                per = generate_calls if name == "anchors.generate_ms" else ops
                values[name] = 1000.0 * totals[name] / per if per else 0.0
            elif name == "nms.kept_ratio":
                dets_in = self.counts["nms.dets_in"]
                values[name] = self.counts["nms.dets_kept"] / dets_in if dets_in else 0.0
            elif name == "anchors.anchors":
                values[name] = self.counts[name]  # per generate call, see install
            else:
                values[name] = self.counts[name] / ops
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


def install(tracer, api):
    """Replace the public functions at every lookup site the workloads reach."""
    from importlib import import_module

    # by module path: the package re-exports the function nms under the module's name
    anchors, cli, metrics, nms = (import_module(f"cxrdet.{m}") for m in ("anchors", "cli", "metrics", "nms"))

    def formats_in(counts, result, args):
        counts["formats.bytes_in"] += len(args[0].encode("utf-8"))

    def predictions_in(counts, result, args):
        formats_in(counts, result, args)
        counts["formats.detections_parsed"] += sum(len(r.detections) for r in result)

    def scored(counts, result, args):
        gt, preds = args[0], args[1]
        counts["metrics.images_scored"] += len(result.per_image)
        counts["metrics.pairs"] += sum(len(preds.get(i, ())) * len(gt.get(i, ())) for i in set(gt) | set(preds))

    def suppressed(counts, result, args):
        dets = list(args[0])
        before = {id(d.box): d.score for d in dets}
        counts["nms.dets_in"] += len(dets)
        counts["nms.dets_kept"] += len(result)
        counts["nms.dets_decayed"] += sum(d.score < before[id(d.box)] for d in result)

    def generated(counts, result, args):
        counts["anchors.anchors"] = len(result)

    def proposals(counts, result, args):
        counts["anchors.proposals_kept"] += len(result)

    def labelled(counts, result, args):
        counts["anchors.positives"] += sum(label.is_positive for label in result)

    def pooled(counts, result, args):
        counts["roipool.rois"] += 1
        counts["roipool.cells_read"] += _snapped_cells(args[0], args[1])

    def pixels(counts, result, args):
        counts["preprocess.pixels"] += args[0].size

    span = tracer.span
    cli.read_ground_truth = span("formats.read_ground_truth", cli.read_ground_truth, formats_in)
    cli.read_predictions = span("formats.read_predictions", cli.read_predictions, predictions_in)
    cli.group_ground_truth = span("formats.group_ground_truth", cli.group_ground_truth)
    cli.group_predictions = span("formats.group_predictions", cli.group_predictions)
    cli.write_predictions = span("formats.write_predictions", cli.write_predictions)
    cli.write_report = span("formats.write_report", cli.write_report)
    cli.score_dataset = span("metrics.score_dataset", cli.score_dataset, scored)
    cli.nms = span("nms.nms", cli.nms, suppressed)
    cli.clahe = span("preprocess.clahe", cli.clahe, pixels)
    cli.resize = span("preprocess.resize", cli.resize, pixels)
    cli.augment = span("preprocess.augment", cli.augment, pixels)
    cli.read_pgm = span("preprocess.read_pgm", cli.read_pgm)
    cli.write_pgm = span("preprocess.write_pgm", cli.write_pgm)
    anchors.nms = span("nms.nms", anchors.nms, suppressed)
    for module in (metrics, nms, anchors):
        module.iou = tracer.counter("geometry.iou_calls", module.iou)

    api.cli_main = span("cli.main", api.cli_main)
    api.generate_anchors = span("anchors.generate_anchors", api.generate_anchors, generated)
    api.decode_box = span("anchors.decode_box", api.decode_box)
    api.select_proposals = span("anchors.select_proposals", api.select_proposals, proposals)
    api.label_anchors = span("anchors.label_anchors", api.label_anchors, labelled)
    api.encode_box = span("anchors.encode_box", api.encode_box)
    api.roi_max_pool = span("roipool.roi_max_pool", api.roi_max_pool, pooled)
    api.augment = span("preprocess.augment", api.augment, pixels)
    api.resize = span("preprocess.resize", api.resize, pixels)
