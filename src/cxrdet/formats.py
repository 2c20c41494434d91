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
speaks a single convention. Both box CSVs check a box by one rule,
``_checked_box``: it is fast when the four fields parse, and only when they
do not does it walk them in order, so the first bad one names the error.
Predictions have one reader, ``read_prediction_table``: it reads a file into
a ``PredictionTable``, one (N, 5) float64 array of score, x_min, y_min,
x_max, y_max rows with an id and a row range per CSV row, and builds no
object per detection. Every token of every row goes through ``float`` in
one stream into that array, ``x + w`` and ``y + h`` are numpy adds (the
same IEEE adds Python makes, so a -0.0 extent keeps its sign), and
finiteness, the confidence range, negative extents and an ``x + w`` that
overflows are checked over the whole array at once. When any row fails, the
text is read again and each row walked token by token in row order
(``_checked_tokens``, whose boxes go through ``_checked_box`` as the
ground truth's do), so the error names the first bad token, confidence or
box and its line. ``read_predictions`` wraps the table reader
and builds the public ``PredRecord``s, each from its own slice of the
table's rows, so the rows never all become Python floats at once. Unknown or
missing columns are an error, LF and CRLF both parse, and floats are
written with ``repr`` so read(write(x)) round-trips bit-exactly. One
grouping rule, ``_by_patient``, gathers a patient's rows for the table's
id-to-rows mapping and for ``group_ground_truth`` and
``group_predictions``: ids in first-appearance order, a repeated id's rows
concatenated in file order (a target-0 ground-truth row adds no box).

All three CSVs are read by one row loop: it checks the header and the field
count, strips the patient id and refuses an empty one, and turns any row
error, including a box corner that overflows, into a FormatError that
names the line; a row that spans lines, through a quoted line break, is
named by its last line, as csv names its own errors. Quoting is strict: a
quote never closed, or text after a closing quote, is such an error. Lines
end only at LF, CRLF or a lone CR, in the CSVs and in the id lists
``read_ids`` reads, and ``decode_text`` names the line of a byte that is
not UTF-8. One splitter, ``_lines``, finds the lines for all of these: the
standard library's ``io.StringIO(newline="")``, fed chunks of the text
that each end just after the first LF at least 64 Ki chars in. Its copy of
the text costs 4 bytes per char of one chunk, not of the whole file, and
the longest line always sits inside one chunk. Every CSV the package
writes, these and the ``folds`` and ``anchors`` tables, goes through
``write_csv``.

Every JSON object the package writes has one layout, ``write_json_object``
(one field per line), and one rendering of reals, six decimal places
(``_f6``): ``write_report`` renders a score report through both, and
``write_classification`` the confusion metrics ``cxrdet classify`` prints.
Images excluded from the mean (no boxes and no predictions) appear in a
report with a ``null`` score. The dataset mean has one home,
``mean_average_precision``: ``metrics`` scores with it, and a
``ScoreReport`` checks its ``dataset_map`` against it. ``read_report``
holds one exact-keys rule for the report, its counts and its per-image
entries, and refuses a repeated key in any object; a ``ScoreReport``
refuses counts whose ``tp + fp`` or ``tp + fn`` differ between thresholds,
and a per-image id that repeats, which no dataset produces.
"""

import csv
import io
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from itertools import accumulate, chain

import numpy as np

from .geometry import Box, Detection

__all__ = [
    "FormatError",
    "GtRecord",
    "PredRecord",
    "PredictionTable",
    "ThresholdCounts",
    "ScoreReport",
    "mean_average_precision",
    "read_ground_truth",
    "write_ground_truth",
    "read_prediction_table",
    "read_predictions",
    "write_predictions",
    "group_ground_truth",
    "group_predictions",
    "write_report",
    "write_classification",
    "read_report",
    "read_labels",
    "decode_text",
    "read_ids",
    "validate_thresholds",
    "write_csv",
    "write_json_object",
]

GT_COLUMNS = ("patientId", "x", "y", "width", "height", "Target")
PRED_COLUMNS = ("patientId", "PredictionString")
LABEL_COLUMNS = ("patientId", "truth", "pred")


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


def mean_average_precision(per_image) -> float:
    """Mean of the per-image scores that are present; 0.0 if none are."""
    present = [s for s in per_image if s is not None]
    return sum(present) / len(present) if present else 0.0


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
        # every threshold matches the same predictions (tp + fp) against the same boxes (tp + fn)
        if len({(c.tp + c.fp, c.tp + c.fn) for c in self.counts}) > 1:
            raise ValueError("counts must hold the same tp + fp and tp + fn at every threshold")
        seen = set()
        for pid, score in self.per_image:
            if pid in seen:  # score_dataset scores a set of ids
                raise ValueError(f"per-image ids must be unique: {pid!r} repeats")
            seen.add(pid)
            if score is not None and not 0.0 <= score <= 1.0:
                raise ValueError(f"per-image score out of range for {pid!r}: {score!r}")
        expected = mean_average_precision(s for _, s in self.per_image)
        # 2e-6 absorbs the six-decimal wire rounding of reread reports
        if not abs(self.dataset_map - expected) <= 2e-6:  # stated so that nan fails
            raise ValueError(
                f"dataset_map {self.dataset_map!r} inconsistent with per-image mean {expected!r}"
            )


_CHUNK = 1 << 16  # chars per line-splitting chunk; a chunk's UCS-4 copy takes 4 bytes per char


def _lines(text: str):
    """Each line of ``text`` with its terminator; lines end only at LF, CRLF
    or a lone CR. ``io.StringIO(newline="")`` splits them so. It is fed one
    chunk at a time, each ending just after the first LF at least ``_CHUNK``
    chars past its start, or at the end of the text, so no CRLF is cut and
    its copy of the text is one chunk's, which holds the longest line."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _CHUNK - 1) + 1 or len(text)
        yield from io.StringIO(text[start:stop], newline="")
        start = stop


def decode_text(data: bytes) -> str:
    """Decode a UTF-8 text file, dropping a leading BOM; a byte that is not
    UTF-8 raises FormatError naming its line."""
    try:
        # utf-8-sig: tolerate a BOM from spreadsheet exports, never produce one
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the bad byte starts or continues the last line of the valid prefix
        lineno = sum(1 for _ in _lines(exc.object[: exc.start].decode("utf-8") + "?"))
        raise FormatError(f"line {lineno}: invalid UTF-8 {exc.object[exc.start : exc.end]!r}: {exc.reason}") from None


def read_ids(text: str) -> list[str]:
    """The stripped, non-blank lines of a text, one id each; lines end as in
    the CSVs, so a form feed or U+2028 stays inside an id."""
    return [pid for line in _lines(text) if (pid := line.strip())]


def _parse_rows(text: str, columns: tuple[str, ...], parse_row):
    """Yield ``parse_row(patient_id, fields)`` for each non-empty row.

    The header must be ``columns``, every row must hold one field per column,
    and its first field, stripped, is a non-empty patient id; ``fields`` are
    the rest. A csv error, or a ValueError from any of these checks or from
    ``parse_row``, becomes a FormatError naming the line csv has read up to:
    a row that spans lines is named by its last line.
    """
    # the limit is process-wide; no field can be longer than the whole text
    if len(text) > csv.field_size_limit():
        csv.field_size_limit(len(text))
    reader = csv.reader(_lines(text), strict=True)
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("missing header")
        if tuple(h.strip() for h in header) != columns:
            raise ValueError(f"expected header {','.join(columns)!r}, got {','.join(header)!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(columns):
                raise ValueError(f"expected {len(columns)} fields, got {len(row)}")
            patient_id = row[0].strip()
            if not patient_id:
                raise ValueError("empty patient id")
            yield parse_row(patient_id, row[1:])
    except (csv.Error, ValueError) as exc:
        # an empty text has no line for csv to count, but its header is missing from line 1
        raise FormatError(f"line {max(reader.line_num, 1)}: {exc}") from None


def write_csv(header, rows) -> str:
    """The ``header`` row, then ``rows``, as CSV text with LF line ends;
    fields are quoted only where they hold a comma, quote or line end."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _parse_real(token: str, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"non-numeric {what} {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {token!r}")
    return value


def _checked_box(fields: list[str]) -> Box:
    """The box of x, y, w, h fields, the one box check of both box CSVs. It is
    fast when the fields parse; when they do not, each is parsed and checked
    in order, so the first bad field, then a negative extent or an overflowing
    corner, raises."""
    try:
        return Box.from_xywh(*map(float, fields))
    except ValueError:  # a non-numeric, non-finite or negative field: find the first in order
        return Box.from_xywh(*(_parse_real(f, name) for f, name in zip(fields, "xywh")))


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
    return GtRecord(patient_id, _checked_box(box_fields), 1)


def read_ground_truth(text: str) -> list[GtRecord]:
    """Parse a ground-truth CSV; raises FormatError naming the bad line."""
    return list(_parse_rows(text, GT_COLUMNS, _ground_truth_row))


def _ground_truth_fields(record: GtRecord) -> tuple[str, ...]:
    if record.box is None:
        return (record.patient_id, "", "", "", "", "0")
    return (record.patient_id, *(repr(float(v)) for v in record.box.to_xywh()), "1")


def write_ground_truth(records) -> str:
    """Serialize GtRecords; inverse of :func:`read_ground_truth`."""
    return write_csv(GT_COLUMNS, map(_ground_truth_fields, records))


class PredictionTable(Mapping):
    """Predictions as one table. ``values`` is a read-only (N, 5) float64
    array of score, x_min, y_min, x_max, y_max rows in file order; CSV row
    k, for patient ``ids[k]``, holds ``values[bounds[k]:bounds[k + 1]]``.

    As a read-only mapping it takes a patient id to that patient's rows,
    grouped by :func:`_by_patient` as :func:`group_predictions` groups
    detections.
    """

    def __init__(self, values: np.ndarray, ids: list, bounds: list[int]):
        self.values, self.ids, self.bounds = _read_only(values), ids, bounds
        parts = _by_patient((pid, (values[start:stop],)) for pid, start, stop in zip(ids, bounds, bounds[1:]))
        self._rows = {pid: rows[0] if len(rows) == 1 else _read_only(np.concatenate(rows))
                      for pid, rows in parts.items()}

    def __getitem__(self, patient_id) -> np.ndarray:
        return self._rows[patient_id]

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _prediction_tokens(patient_id: str, fields: list[str]) -> tuple[str, list[str]]:
    tokens = fields[0].split()
    if len(tokens) % 5:
        raise ValueError(f"prediction string must hold conf x y w h quintuples, got {len(tokens)} tokens")
    return patient_id, tokens


def _checked_tokens(patient_id: str, fields: list[str]) -> None:
    """Check a prediction string token by token in row order, so the first
    bad token, confidence or box is the one that raises."""
    tokens = _prediction_tokens(patient_id, fields)[1]
    for start in range(0, len(tokens), 5):
        conf = _parse_real(tokens[start], "confidence")
        if not 0.0 <= conf <= 1.0:
            raise ValueError(f"confidence {conf!r} outside [0, 1]")
        _checked_box(tokens[start + 1 : start + 5])


def _table(rows) -> PredictionTable:
    """The table of (patient_id, tokens) rows; raises ValueError when a
    value is not finite, a confidence lies outside [0, 1], an extent is
    negative or a corner overflows."""
    ids, counts = [], []

    def tokens():
        for patient_id, row in rows:
            ids.append(patient_id)
            counts.append(len(row) // 5)
            yield row

    values = np.fromiter(map(float, chain.from_iterable(tokens())), float).reshape(-1, 5)  # score, x, y, w, h
    score, extents = values[:, 0], values[:, 3:]
    if not ((0.0 <= score) & (score <= 1.0)).all() or not (extents >= 0.0).all():  # nan fails both
        raise ValueError("a confidence or a box extent is out of range")
    with np.errstate(all="ignore"):  # an overflowing x + w is refused below
        extents += values[:, 1:3]  # w + x is x + w: IEEE addition commutes, signed zeros included
    if not np.isfinite(values[:, 1:]).all():  # x, y, w, h finite, and no x + w overflows
        raise ValueError("a box is not finite")
    return PredictionTable(values, ids, [0, *accumulate(counts)])


def read_prediction_table(text: str) -> PredictionTable:
    """Parse a predictions CSV into a PredictionTable; raises FormatError
    naming the bad line.

    Rows are read in bulk and checked over the whole array. When anything
    fails, the text is read again and every row walked token by token in
    row order, so the error is the one of the first bad row and token.
    """
    try:
        return _table(_parse_rows(text, PRED_COLUMNS, _prediction_tokens))
    except ValueError:
        for _ in _parse_rows(text, PRED_COLUMNS, _checked_tokens):
            pass
        raise


def read_predictions(text: str) -> list[PredRecord]:
    """Parse a predictions CSV into one PredRecord per row, from the rows of
    :func:`read_prediction_table`; raises FormatError naming the bad line."""
    table = read_prediction_table(text)
    rows = table.values  # each record's slice becomes Python floats on its own, never the whole table at once
    return [
        PredRecord(pid, [Detection(Box(x0, y0, x1, y1), score) for score, x0, y0, x1, y1 in rows[start:stop].tolist()])
        for pid, start, stop in zip(table.ids, table.bounds, table.bounds[1:])
    ]


def _prediction_string(detections) -> str:
    return " ".join(repr(float(v)) for det in detections for v in (det.score, *det.box.to_xywh()))


def write_predictions(records) -> str:
    """Serialize PredRecords; floats use repr so parsing them back is exact."""
    return write_csv(PRED_COLUMNS, ((r.patient_id, _prediction_string(r.detections)) for r in records))


def _labels_row(patient_id: str, fields: list[str]) -> tuple[str, int, int]:
    truth, pred = (f.strip() for f in fields)
    if truth not in ("0", "1") or pred not in ("0", "1"):
        raise ValueError("truth and pred must be 0 or 1")
    return patient_id, int(truth), int(pred)


def read_labels(text: str) -> list[tuple[str, int, int]]:
    """Parse a ``patientId,truth,pred`` CSV of binary labels into
    (patient_id, truth, pred) triples; raises FormatError naming the bad line."""
    return list(_parse_rows(text, LABEL_COLUMNS, _labels_row))


def _by_patient(pairs) -> dict[str, list]:
    """The items of (patient id, items) pairs as one list per patient: ids in
    first-appearance order, a repeated id's items concatenated in file order."""
    grouped: dict[str, list] = {}
    for patient_id, items in pairs:
        grouped.setdefault(patient_id, []).extend(items)
    return grouped


def group_ground_truth(records) -> dict[str, list[Box]]:
    """Ground-truth boxes per patient, grouped by :func:`_by_patient`; a
    target-0 row adds no box, so a target-0 patient maps to []."""
    return _by_patient((r.patient_id, () if r.box is None else (r.box,)) for r in records)


def group_predictions(records) -> dict[str, list[Detection]]:
    """Detections per patient, grouped by :func:`_by_patient`."""
    return _by_patient((r.patient_id, r.detections) for r in records)


def write_json_object(fields: dict[str, str]) -> str:
    """A JSON object of ``fields``, whose values are JSON texts: ``{``, one
    ``  "key": value`` line per field in order, then ``}``."""
    body = ",\n".join(f"  {json.dumps(key)}: {value}" for key, value in fields.items())
    return f"{{\n{body}\n}}\n"


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
    return write_json_object({
        "dataset_map": _f6(report.dataset_map),
        "thresholds": f"[{', '.join(map(_f6, report.thresholds))}]",
        "counts": f"[{counts}]",
        "per_image": f"[{per_image}]",
        "undefined": json.dumps(list(report.undefined)),
    })


def write_classification(metrics) -> str:
    """Render ClassificationMetrics as JSON with stable keys and 6-decimal reals."""
    reals = {f.name: _f6(getattr(metrics, f.name)) for f in dataclass_fields(metrics) if f.name != "undefined"}
    return write_json_object({**reals, "undefined": json.dumps(list(metrics.undefined))})


def _read_as(kind, value):
    """``kind(value)``, refused unless JSON gave ``value`` the type that
    write_report writes for ``kind``; kind's own error names a value it
    cannot convert at all."""
    converted = kind(value)
    # exact types, so a boolean is no number; a real may be written as an integer
    if type(value) not in {float: (int, float)}.get(kind, (kind,)):
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return converted


def _unique_keys(pairs) -> dict:
    """A JSON object's (key, value) pairs as a dict, refused when a key repeats."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise FormatError(f"invalid report JSON: repeated key {key!r}")
        data[key] = value
    return data


def _exact(data, what: str, keys: tuple[str, ...]) -> dict:
    """``data`` when it is a JSON object with exactly ``keys``, as write_report writes them."""
    if not isinstance(data, dict) or data.keys() != set(keys):
        raise FormatError(f"{what} must have exactly the keys {sorted(keys)}")
    return data


def read_report(text: str) -> ScoreReport:
    """Parse a report written by :func:`write_report`; a repeated key, a key
    write_report does not write or a value of another JSON type than the one
    written there is refused."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid report JSON: {exc}") from None
    data = _exact(data, "report", ("dataset_map", "thresholds", "counts", "per_image", "undefined"))
    try:
        per_image = [_exact(e, "per-image entry", ("patient_id", "average_precision")) for e in data["per_image"]]
        counts = [_exact(c, "count", ("threshold", "tp", "fp", "fn")) for c in data["counts"]]
        return ScoreReport(
            dataset_map=_read_as(float, data["dataset_map"]),
            thresholds=tuple(_read_as(float, t) for t in data["thresholds"]),
            per_image=tuple(
                (
                    _read_as(str, entry["patient_id"]),
                    None if entry["average_precision"] is None else _read_as(float, entry["average_precision"]),
                )
                for entry in per_image
            ),
            counts=tuple(
                ThresholdCounts(_read_as(float, c["threshold"]), *(_read_as(int, c[k]) for k in ("tp", "fp", "fn")))
                for c in counts
            ),
            undefined=tuple(_read_as(str, u) for u in _read_as(list, data["undefined"])),
        )
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise FormatError(f"invalid report contents: {exc}") from None
