"""Readers and writers for the toolkit's file formats.

Ground truth CSV (header required, one row per annotation; a patient with
several opacity boxes appears on several rows)::

    patientId,x,y,width,height,Target
    p001,10,20,30,40,1
    p002,,,,,0

Predictions CSV (one row per patient; the prediction string is
space-separated ``conf x y w h`` quintuples, possibly empty)::

    patientId,PredictionString
    p001,0.9 10 20 30 40 0.5 100 100 50 50
    p002,

Labels CSV (binary per-image truth and prediction, for ``cxrdet classify``)::

    patientId,truth,pred
    p001,1,0

Boxes in the first two use the (x, y, width, height) convention and are
converted to corner form here, at the boundary, so everything downstream
speaks a single convention. Unknown or missing columns are an error, LF and
CRLF both parse, and floats are written with ``repr`` so read(write(x))
round-trips bit-exactly.

All three CSVs are read by one row loop: it checks the header and the field
count, strips the patient id and refuses an empty one, and turns any row
error, including a box corner that overflows, into a FormatError that
names the line. Lines end only at LF, CRLF or a lone CR, in the CSVs and in
the id lists ``read_ids`` reads, and ``decode_text`` names the line of a
byte that is not UTF-8.

Score reports are JSON with a fixed key order and reals rendered to six
decimal places; images excluded from the mean (no boxes and no predictions)
appear with a ``null`` score.
"""

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from itertools import cycle

from .geometry import Box
from .nms import Detection

__all__ = [
    "FormatError",
    "GtRecord",
    "PredRecord",
    "ThresholdCounts",
    "ScoreReport",
    "read_ground_truth",
    "write_ground_truth",
    "read_predictions",
    "write_predictions",
    "group_ground_truth",
    "group_predictions",
    "write_report",
    "read_report",
    "read_labels",
    "decode_text",
    "read_ids",
    "validate_thresholds",
]

GT_COLUMNS = ("patientId", "x", "y", "width", "height", "Target")
PRED_COLUMNS = ("patientId", "PredictionString")
LABEL_COLUMNS = ("patientId", "truth", "pred")
_PRED_FIELDS = ("confidence", "x", "y", "w", "h")


class FormatError(ValueError):
    """Malformed input file; the message names the offending line."""


def validate_thresholds(thresholds) -> tuple[float, ...]:
    """Check a threshold set: non-empty, strictly increasing, inside (0, 1)."""
    ts = tuple(float(t) for t in thresholds)
    if not ts:
        raise ValueError("threshold set must be non-empty")
    if any(not 0.0 < t < 1.0 for t in ts):
        raise ValueError(f"thresholds must lie in (0, 1): {ts}")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError(f"thresholds must be strictly increasing: {ts}")
    return ts


@dataclass(frozen=True)
class GtRecord:
    """One ground-truth row: an opacity box (target 1) or its absence."""

    patient_id: str
    box: Box | None
    target: int

    def __post_init__(self):
        if self.target not in (0, 1):
            raise ValueError(f"target must be 0 or 1: {self.target!r}")
        if (self.target == 1) != (self.box is not None):
            raise ValueError("target 1 requires a box; target 0 forbids one")


@dataclass(frozen=True)
class PredRecord:
    """All detections predicted for one patient."""

    patient_id: str
    detections: tuple[Detection, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "detections", tuple(self.detections))


@dataclass(frozen=True)
class ThresholdCounts:
    """Dataset-wide match counts at one IoU threshold."""

    threshold: float
    tp: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError("counts must be non-negative")


@dataclass(frozen=True)
class ScoreReport:
    """Dataset score plus its per-image and per-threshold breakdown.

    ``per_image`` holds (patient_id, score) pairs in evaluation order, with
    None marking images excluded from the mean; ``undefined`` lists
    quantities reported as 0 because they had no defined value.
    """

    dataset_map: float
    thresholds: tuple[float, ...]
    per_image: tuple[tuple[str, float | None], ...]
    counts: tuple[ThresholdCounts, ...]
    undefined: tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "thresholds", validate_thresholds(self.thresholds))
        object.__setattr__(self, "per_image", tuple(tuple(e) for e in self.per_image))
        object.__setattr__(self, "counts", tuple(self.counts))
        object.__setattr__(self, "undefined", tuple(self.undefined))
        if len(self.counts) != len(self.thresholds) or any(
            c.threshold != t for c, t in zip(self.counts, self.thresholds)
        ):
            raise ValueError("counts must line up with the thresholds")
        for pid, score in self.per_image:
            if score is not None and not 0.0 <= score <= 1.0:
                raise ValueError(f"per-image score out of range for {pid!r}: {score!r}")
        present = [s for _, s in self.per_image if s is not None]
        expected = sum(present) / len(present) if present else 0.0
        # 2e-6 absorbs the six-decimal wire rounding of reread reports
        if abs(self.dataset_map - expected) > 2e-6:
            raise ValueError(
                f"dataset_map {self.dataset_map!r} inconsistent with per-image mean {expected!r}"
            )


# one line with its terminator; lines end only at LF, CRLF or a lone CR
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def decode_text(data: bytes) -> str:
    """Decode a UTF-8 text file, dropping a leading BOM; a byte that is not
    UTF-8 raises FormatError naming its line."""
    try:
        # utf-8-sig: tolerate a BOM from spreadsheet exports, never produce one
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the bad byte starts or continues the last line of the valid prefix
        lineno = len(_LINE.findall(exc.object[: exc.start].decode("utf-8") + "?"))
        raise FormatError(f"line {lineno}: invalid UTF-8 {exc.object[exc.start : exc.end]!r}: {exc.reason}") from None


def read_ids(text: str) -> list[str]:
    """The stripped, non-blank lines of a text, one id each; lines end as in
    the CSVs, so a form feed or U+2028 stays inside an id."""
    return [pid for m in _LINE.finditer(text) if (pid := m.group().strip())]


def _parse_rows(text: str, columns: tuple[str, ...], parse_row):
    """Yield ``parse_row(patient_id, fields)`` for each non-empty row.

    The header must be ``columns``, every row must hold one field per column,
    and its first field, stripped, is a non-empty patient id; ``fields`` are
    the rest. A ValueError from any of these checks or from ``parse_row``
    becomes a FormatError naming the line.
    """
    # the limit is process-wide; no field can be longer than the whole text
    if len(text) > csv.field_size_limit():
        csv.field_size_limit(len(text))
    reader = csv.reader(m.group() for m in _LINE.finditer(text))
    lineno = 1
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("missing header")
        if tuple(h.strip() for h in header) != columns:
            raise ValueError(f"expected header {','.join(columns)!r}, got {','.join(header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                raise ValueError(f"expected {len(columns)} fields, got {len(row)}")
            patient_id = row[0].strip()
            if not patient_id:
                raise ValueError("empty patient id")
            yield parse_row(patient_id, row[1:])
    except csv.Error as exc:
        raise FormatError(f"line {reader.line_num}: {exc}") from None
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


def _parse_real(token: str, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"non-numeric {what} {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {token!r}")
    return value


def _ground_truth_row(patient_id: str, fields: list[str]) -> GtRecord:
    *box_fields, target = (f.strip() for f in fields)
    if target not in ("0", "1"):
        raise ValueError(f"target must be 0 or 1, got {target!r}")
    if target == "0":
        if any(box_fields):
            raise ValueError("target 0 rows must leave the box fields empty")
        return GtRecord(patient_id, None, 0)
    if not all(box_fields):
        raise ValueError("target 1 rows need all four box fields")
    x, y, w, h = (_parse_real(f, name) for f, name in zip(box_fields, "xywh"))
    if w < 0 or h < 0:
        raise ValueError(f"negative box extent {w if w < 0 else h}")
    return GtRecord(patient_id, Box.from_xywh(x, y, w, h), 1)


def read_ground_truth(text: str) -> list[GtRecord]:
    """Parse a ground-truth CSV; raises FormatError naming the bad line."""
    return list(_parse_rows(text, GT_COLUMNS, _ground_truth_row))


def write_ground_truth(records) -> str:
    """Serialize GtRecords; inverse of :func:`read_ground_truth`."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(GT_COLUMNS)
    for record in records:
        if record.box is None:
            writer.writerow([record.patient_id, "", "", "", "", "0"])
        else:
            x, y, w, h = record.box.to_xywh()
            writer.writerow(
                [record.patient_id, *(repr(float(v)) for v in (x, y, w, h)), "1"]
            )
    return out.getvalue()


def _predictions_row(patient_id: str, fields: list[str]) -> PredRecord:
    tokens = fields[0].split()
    if len(tokens) % 5:
        raise ValueError(f"prediction string must hold conf x y w h quintuples, got {len(tokens)} tokens")
    try:
        values = list(map(float, tokens))
    except ValueError:
        values = None
    if values is None or not all(map(math.isfinite, values)):
        # lazy, so a bad token raises only after every check before it in row order
        values = (_parse_real(tok, what) for tok, what in zip(tokens, cycle(_PRED_FIELDS)))
    detections = []
    reals = iter(values)
    for conf in reals:
        if not 0.0 <= conf <= 1.0:
            raise ValueError(f"confidence {conf!r} outside [0, 1]")
        # pulled after conf is checked; zip(*[reals] * 5) would parse the box first
        x, y, w, h = next(reals), next(reals), next(reals), next(reals)
        if w < 0 or h < 0:
            raise ValueError(f"negative box extent {w if w < 0 else h}")
        detections.append(Detection(Box(x, y, x + w, y + h), conf))
    return PredRecord(patient_id, tuple(detections))


def read_predictions(text: str) -> list[PredRecord]:
    """Parse a predictions CSV; raises FormatError naming the bad line."""
    return list(_parse_rows(text, PRED_COLUMNS, _predictions_row))


def write_predictions(records) -> str:
    """Serialize PredRecords; floats use repr so parsing them back is exact."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PRED_COLUMNS)
    for record in records:
        tokens = []
        for det in record.detections:
            x, y, w, h = det.box.to_xywh()
            tokens.extend(repr(float(v)) for v in (det.score, x, y, w, h))
        writer.writerow([record.patient_id, " ".join(tokens)])
    return out.getvalue()


def _labels_row(patient_id: str, fields: list[str]) -> tuple[str, int, int]:
    truth, pred = (f.strip() for f in fields)
    if truth not in ("0", "1") or pred not in ("0", "1"):
        raise ValueError("truth and pred must be 0 or 1")
    return patient_id, int(truth), int(pred)


def read_labels(text: str) -> list[tuple[str, int, int]]:
    """Parse a ``patientId,truth,pred`` CSV of binary labels into
    (patient_id, truth, pred) triples; raises FormatError naming the bad line."""
    return list(_parse_rows(text, LABEL_COLUMNS, _labels_row))


def group_ground_truth(records) -> dict[str, list[Box]]:
    """Collect ground-truth boxes per patient; target-0 patients map to []."""
    grouped: dict[str, list[Box]] = {}
    for record in records:
        boxes = grouped.setdefault(record.patient_id, [])
        if record.box is not None:
            boxes.append(record.box)
    return grouped


def group_predictions(records) -> dict[str, list[Detection]]:
    """Collect detections per patient, concatenating repeated rows."""
    grouped: dict[str, list[Detection]] = {}
    for record in records:
        grouped.setdefault(record.patient_id, []).extend(record.detections)
    return grouped


def _f6(value: float) -> str:
    return f"{value:.6f}"


def write_report(report: ScoreReport) -> str:
    """Render a ScoreReport as JSON with stable keys and 6-decimal reals."""
    counts = ", ".join(
        f'{{"threshold": {_f6(c.threshold)}, "tp": {c.tp}, "fp": {c.fp}, "fn": {c.fn}}}'
        for c in report.counts
    )
    per_image = ", ".join(
        f'{{"patient_id": {json.dumps(pid)}, '
        f'"average_precision": {"null" if score is None else _f6(score)}}}'
        for pid, score in report.per_image
    )
    lines = [
        "{",
        f'  "dataset_map": {_f6(report.dataset_map)},',
        f'  "thresholds": [{", ".join(_f6(t) for t in report.thresholds)}],',
        f'  "counts": [{counts}],',
        f'  "per_image": [{per_image}],',
        f'  "undefined": {json.dumps(list(report.undefined))}',
        "}",
    ]
    return "\n".join(lines) + "\n"


def read_report(text: str) -> ScoreReport:
    """Parse a report written by :func:`write_report`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid report JSON: {exc}") from None
    expected = {"dataset_map", "thresholds", "counts", "per_image", "undefined"}
    if not isinstance(data, dict) or set(data) != expected:
        raise FormatError(f"report must have exactly the keys {sorted(expected)}")
    try:
        return ScoreReport(
            dataset_map=float(data["dataset_map"]),
            thresholds=tuple(float(t) for t in data["thresholds"]),
            per_image=tuple(
                (
                    entry["patient_id"],
                    None if entry["average_precision"] is None else float(entry["average_precision"]),
                )
                for entry in data["per_image"]
            ),
            counts=tuple(
                ThresholdCounts(float(c["threshold"]), int(c["tp"]), int(c["fp"]), int(c["fn"]))
                for c in data["counts"]
            ),
            undefined=tuple(data["undefined"]),
        )
    except (TypeError, KeyError, ValueError) as exc:
        raise FormatError(f"invalid report contents: {exc}") from None
