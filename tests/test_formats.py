import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cxrdet import (
    Box,
    Detection,
    FormatError,
    GtRecord,
    PredRecord,
    ScoreReport,
    ThresholdCounts,
    group_ground_truth,
    group_predictions,
    read_ground_truth,
    read_labels,
    read_predictions,
    read_report,
    write_ground_truth,
    write_predictions,
    write_report,
)
from cxrdet import formats
from cxrdet.formats import PredictionTable, decode_text, read_ids, read_prediction_table, write_classification
from cxrdet.geometry import detection_rows
from cxrdet.metrics import ConfusionCounts, confusion_metrics
from oracles import array_read_prediction_table, regex_lines, token_by_token_read_predictions

GT_HEADER = "patientId,x,y,width,height,Target"
PATIENT_POOL = ("p0", "p1", "p2")  # few enough ids that drawn rows repeat them


class TestGroundTruth:
    def test_box_row_converts_to_corners(self):
        records = read_ground_truth(f"{GT_HEADER}\np1,10,20,30,40,1\n")
        assert records == [GtRecord("p1", Box(10, 20, 40, 60), 1)]

    def test_empty_box_row(self):
        records = read_ground_truth(f"{GT_HEADER}\np2,,,,,0\n")
        assert records == [GtRecord("p2", None, 0)]

    def test_negative_width_names_the_line(self):
        text = f"{GT_HEADER}\np1,10,20,30,40,1\np2,1,1,-5,4,1\n"
        with pytest.raises(FormatError, match="line 3"):
            read_ground_truth(text)

    def test_multiple_rows_accumulate_boxes(self):
        text = f"{GT_HEADER}\np1,0,0,10,10,1\np1,20,20,5,5,1\np2,,,,,0\n"
        grouped = group_ground_truth(read_ground_truth(text))
        assert grouped == {
            "p1": [Box(0, 0, 10, 10), Box(20, 20, 25, 25)],
            "p2": [],
        }

    @given(st.lists(st.tuples(st.sampled_from(PATIENT_POOL),
                              st.none() | st.tuples(*[st.floats(0.0, 1e6)] * 4)), max_size=8))
    def test_grouped_as_a_plain_loop_groups_them(self, rows):
        """Target-0 and target-1 rows of repeated ids, interleaved: each id
        once, in first-appearance order, with its boxes in file order."""
        text = GT_HEADER + "\n" + "".join(
            f"{pid},,,,,0\n" if xywh is None else f"{pid},{','.join(map(repr, xywh))},1\n" for pid, xywh in rows)
        expected = {}
        for pid, xywh in rows:
            if pid not in expected:
                expected[pid] = []
            if xywh is not None:
                expected[pid].append(Box.from_xywh(*xywh))
        assert list(group_ground_truth(read_ground_truth(text)).items()) == list(expected.items())

    def test_crlf_and_lf_parse_identically(self):
        lf = f"{GT_HEADER}\np1,1,2,3,4,1\np2,,,,,0\n"
        crlf = lf.replace("\n", "\r\n")
        assert read_ground_truth(lf) == read_ground_truth(crlf)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "line 1"),
            ("patientId,x,y,w,h,Target\n", "header"),
            (f"{GT_HEADER},extra\np1,1,1,1,1,1,9\n", "header"),
            (f"{GT_HEADER}\np1,1,1,1,1\n", "line 2"),
            (f"{GT_HEADER}\np1,a,1,1,1,1\n", "non-numeric"),
            (f"{GT_HEADER}\np1,1,1,1,1,2\n", "target"),
            (f"{GT_HEADER}\np1,1,1,1,1,0\n", "target 0"),
            (f"{GT_HEADER}\np1,1,,1,1,1\n", "target 1"),
            (f"{GT_HEADER}\np1,inf,1,1,1,1\n", "finite"),
            (f"{GT_HEADER}\n,1,1,1,1,1\n", "patient id"),
        ],
    )
    def test_malformed_inputs(self, text, fragment):
        with pytest.raises(FormatError, match=fragment):
            read_ground_truth(text)

    @pytest.mark.parametrize("fields, message", [
        # every field is parsed before the extents are checked
        ("1,1,-5,nan", "line 3: h must be finite, got 'nan'"),
        ("1,1,-5,x", "line 3: non-numeric h 'x'"),
        ("inf,1,-5,1", "line 3: x must be finite, got 'inf'"),
        ("1,-1e309,1,1", "line 3: y must be finite, got '-1e309'"),
        ("1,1,1,-inf", "line 3: h must be finite, got '-inf'"),
        ("1,1,-5,-4", "line 3: negative box extent -5.0"),
        ("1,1,5,-4", "line 3: negative box extent -4.0"),
    ])
    def test_first_bad_field_in_order(self, fields, message):
        with pytest.raises(FormatError) as info:
            read_ground_truth(f"{GT_HEADER}\np1,1,1,1,1,1\np1,{fields},1\n")
        assert str(info.value) == message

    def test_negative_zero_extent_accepted(self):
        records = read_ground_truth(f"{GT_HEADER}\np1,1,2,-0.0,-0.0,1\n")
        assert records == [GtRecord("p1", Box(1.0, 2.0, 1.0, 2.0), 1)]

    def test_overflowing_corner_names_the_line(self):
        with pytest.raises(FormatError) as info:
            read_ground_truth(f"{GT_HEADER}\np1,1,1,1,1,1\np1,1e308,0,1e308,1,1\n")
        assert str(info.value) == (
            "line 3: box coordinates must be finite: Box(x_min=1e+308, y_min=0.0, x_max=inf, y_max=1.0)"
        )

    def test_record_invariant(self):
        with pytest.raises(ValueError):
            GtRecord("p1", None, 1)
        with pytest.raises(ValueError):
            GtRecord("p1", Box(0, 0, 1, 1), 0)

    def test_written_bytes(self):
        records = [GtRecord("p1", Box(10, 20, 40, 60.5), 1), GtRecord("p 2", None, 0), GtRecord('"q"', None, 0)]
        assert write_ground_truth(records) == (
            f"{GT_HEADER}\np1,10.0,20.0,30.0,40.5,1\np 2,,,,,0\n\"\"\"q\"\"\",,,,,0\n"
        )
        assert read_ground_truth(write_ground_truth(records)) == records

    def test_record_target_must_be_a_bit(self):
        with pytest.raises(ValueError) as info:
            GtRecord("p1", None, 2)
        assert str(info.value) == "target must be 0 or 1: 2"


class TestPredictions:
    def test_single_quintuple(self):
        records = read_predictions("patientId,PredictionString\np1,0.9 10 20 30 40\n")
        assert records == [PredRecord("p1", (Detection(Box(10, 20, 40, 60), 0.9),))]

    def test_empty_prediction_string(self):
        records = read_predictions("patientId,PredictionString\np1,\n")
        assert records == [PredRecord("p1", ())]

    def test_dangling_tokens_rejected(self):
        with pytest.raises(FormatError, match="quintuple"):
            read_predictions("patientId,PredictionString\np1,0.9 10 20 30\n")

    def test_nul_byte_names_the_line(self):
        with pytest.raises(FormatError, match="line 2"):
            read_predictions("patientId,PredictionString\np1,0.9 10 2\x000 30 40\n")

    def test_form_feed_does_not_end_a_row(self):
        with pytest.raises(FormatError, match="line 2: expected 2 fields, got 3"):
            read_predictions("patientId,PredictionString\np1,0.9 1 2 3 4\x0cp2,0.5 1 2 3 4\n")

    def test_next_line_character_does_not_shift_line_numbers(self):
        text = "patientId,PredictionString\np1,0.9 1 2 3 4\x85\np2,0.9 x 2 3 4\n"
        with pytest.raises(FormatError, match="line 3: non-numeric x"):
            read_predictions(text)

    def test_lone_cr_ends_rows(self):
        text = "patientId,PredictionString\rp1,0.9 10 20 30 40\rp2,\r"
        assert read_predictions(text) == [
            PredRecord("p1", (Detection(Box(10, 20, 40, 60), 0.9),)),
            PredRecord("p2", ()),
        ]

    def test_overflowing_corner_names_the_line(self):
        with pytest.raises(FormatError) as info:
            read_predictions("patientId,PredictionString\np1,0.5 1e308 0 1e308 1\n")
        assert str(info.value) == (
            "line 2: box coordinates must be finite: Box(x_min=1e+308, y_min=0.0, x_max=inf, y_max=1.0)"
        )

    def test_confidence_range_checked(self):
        with pytest.raises(FormatError, match="confidence"):
            read_predictions("patientId,PredictionString\np1,1.5 10 20 30 40\n")

    def test_round_trip_is_exact(self):
        rng = random.Random(127)
        records = []
        for i in range(50):
            dets = []
            for _ in range(rng.randint(0, 5)):
                x, y = rng.uniform(0, 500), rng.uniform(0, 500)
                w, h = rng.uniform(0, 100), rng.uniform(0, 100)
                dets.append(Detection(Box.from_xywh(x, y, w, h), rng.random()))
            records.append(PredRecord(f"p{i:03d}", tuple(dets)))
        assert read_predictions(write_predictions(records)) == records

    def test_written_bytes(self):
        records = [PredRecord("p1", (Detection(Box(1, 2, 4, 6), 0.5), Detection(Box(0, 0, 0.1, 1e20), 1))),
                   PredRecord('p,"2"', ())]
        assert write_predictions(records) == (
            "patientId,PredictionString\n"
            "p1,0.5 1.0 2.0 3.0 4.0 1.0 0.0 0.0 0.1 1e+20\n"
            '"p,""2""",\n'
        )

    def test_group_predictions_merges_rows(self):
        text = "patientId,PredictionString\np1,0.9 0 0 10 10\np1,0.5 5 5 10 10\n"
        grouped = group_predictions(read_predictions(text))
        assert [d.score for d in grouped["p1"]] == [0.9, 0.5]


def read_outcome(reader, text):
    """The records ``reader`` returns, or the type and text of what it raises."""
    try:
        return reader(text)
    except ValueError as exc:
        return type(exc), str(exc)


# tokens that pass, then ones that fail the confidence or extent checks, do
# not parse, or parse to nan or inf (1e309 overflows; 1e308 + 1e308 overflows x + w)
GOOD_CONFIDENCES = ["0.9", "1", "0", "0.25"]
GOOD_COORDINATES = ["10", "0", "2.5", "1e308", "1_0"]
CONFIDENCES = GOOD_CONFIDENCES + ["1.5", "-0.1", "nan", "inf", "abc", "1e309"]
COORDINATES = GOOD_COORDINATES + ["-3", "nan", "-inf", "Infinity", "x", "1e", "0x1"]


GOOD_EXTENTS = [token for token in GOOD_COORDINATES if token != "1e308"]  # x + w stays finite


@st.composite
def prediction_texts(draw, clean=False):
    """Predictions files whose ids repeat. Each row is drawn from passing
    tokens or from all of them, and one row in ten loses its last token. A
    ``clean`` text has 2 to 6 whole rows of passing tokens with no 1e308
    width or height, so it always reads."""
    lines = ["patientId,PredictionString"]
    for _ in range(draw(st.integers(2, 6) if clean else st.integers(0, 4))):
        passing = clean or draw(st.booleans())  # a row of passing tokens takes the one-pass path to its end
        confidences = st.sampled_from(GOOD_CONFIDENCES if passing else CONFIDENCES)
        coordinates = st.sampled_from(GOOD_COORDINATES if passing else COORDINATES)
        extents = st.sampled_from(GOOD_EXTENTS) if clean else coordinates
        tokens = []
        for _ in range(draw(st.integers(0, 4))):
            tokens.append(draw(confidences))
            tokens.extend(draw(st.lists(coordinates, min_size=2, max_size=2)))
            tokens.extend(draw(st.lists(extents, min_size=2, max_size=2)))
        if not clean and draw(st.integers(0, 9)) == 0:
            tokens = tokens[:-1]  # a dangling token
        lines.append(f"{draw(st.sampled_from(PATIENT_POOL))},{' '.join(tokens)}")  # ids may repeat
    return "\n".join(lines) + "\n"


class TestBulkParsedPredictions:
    """Rows are parsed in one pass, and a row with a failing token is read
    token by token by the same loop; records and every error must equal the
    token-by-token reader's."""

    @given(prediction_texts())
    def test_equals_the_token_by_token_reader(self, text):
        assert read_outcome(read_predictions, text) == read_outcome(token_by_token_read_predictions, text)

    @pytest.mark.parametrize("row, message", [
        ("1.5 1 2 3 4 0.5 x 1 1 1", "line 3: confidence 1.5 outside [0, 1]"),
        ("0.5 1 2 3 4 1.5 nan 1 1 1", "line 3: confidence 1.5 outside [0, 1]"),
        ("0.5 1 2 3 4 -0.5 1 2 3 inf", "line 3: confidence -0.5 outside [0, 1]"),
        ("0.5 1 2 -3 4 0.5 1 2 3 x", "line 3: negative box extent -3.0"),
        ("0.5 1 2 3 -4 1.5 1 2 3 4", "line 3: negative box extent -4.0"),
        ("0.5 1 2 -3 -4", "line 3: negative box extent -3.0"),
        ("0.5 1 2 3 4 0.5 x 1 1 1 1.5 1 1 1 1", "line 3: non-numeric x 'x'"),
        ("0.5 1 2 3 4 nan 1 1 1 1 1.5 1 1 1 1", "line 3: confidence must be finite, got 'nan'"),
        ("0.5 1 2 3 4 0.5 1 1 inf 1 1.5 1 1 1 1", "line 3: w must be finite, got 'inf'"),
        ("0.5 1 2 3 4 0.5 1 1 1 1e309", "line 3: h must be finite, got '1e309'"),
        ("x 1 2 3 4", "line 3: non-numeric confidence 'x'"),
        ("0.5 1 2 3 y", "line 3: non-numeric h 'y'"),
        ("0.5 1 2 3 4 inf 1 2 3 4", "line 3: confidence must be finite, got 'inf'"),
    ])
    def test_first_bad_token_in_row_order(self, row, message):
        text = f"patientId,PredictionString\np1,0.9 1 1 1 1\np2,{row}\n"
        assert read_outcome(read_predictions, text) == (FormatError, message)
        assert read_outcome(token_by_token_read_predictions, text) == (FormatError, message)

    @pytest.mark.parametrize("row, message", [
        # x + w overflows only in a later quintuple, after a valid one
        ("0.5 1 2 3 4 0.5 1e308 0 1e308 1",
         "line 3: box coordinates must be finite: Box(x_min=1e+308, y_min=0.0, x_max=inf, y_max=1.0)"),
        ("0.5 1 2 3 4 0.5 0 -1e308 1 -1e308", "line 3: negative box extent -1e+308"),
        # a bad confidence precedes a negative width, in one quintuple or an earlier one
        ("1.5 1 2 -3 4", "line 3: confidence 1.5 outside [0, 1]"),
        ("0.5 1 2 3 4 -0.5 1 2 -3 4", "line 3: confidence -0.5 outside [0, 1]"),
        ("0.5 1 2 3 4 1.5 1 2 3 4 0.5 1 2 -3 4", "line 3: confidence 1.5 outside [0, 1]"),
        # a negative width precedes a bad confidence
        ("0.5 1 2 -3 4 1.5 1 2 3 4", "line 3: negative box extent -3.0"),
    ])
    def test_crafted_rows(self, row, message):
        text = f"patientId,PredictionString\np1,0.9 1 1 1 1\np2,{row}\n"
        assert read_outcome(read_predictions, text) == (FormatError, message)
        assert read_outcome(token_by_token_read_predictions, text) == (FormatError, message)

    @pytest.mark.parametrize("token", ["nan", "-nan", "inf", "-inf", "Infinity", "1e309", "-1e309"])
    @pytest.mark.parametrize("position", range(5))
    def test_non_finite_token_in_each_field(self, token, position):
        tokens = ["0.5", "1", "2", "3", "4"]
        tokens[position] = token
        text = f"patientId,PredictionString\np1,0.9 1 1 1 1 {' '.join(tokens)} 1.5 1 1 1 1\n"
        what = ("confidence", "x", "y", "w", "h")[position]
        message = f"line 2: {what} must be finite, got {token!r}"
        assert read_outcome(read_predictions, text) == (FormatError, message)
        assert read_outcome(token_by_token_read_predictions, text) == (FormatError, message)

    @pytest.mark.parametrize("row, box", [
        ("0.5 1 2 -0.0 4", Box(1.0, 2.0, 1.0, 6.0)),
        ("0.5 1 2 3 -0.0", Box(1.0, 2.0, 4.0, 2.0)),
        ("0.5 -0.0 -0.0 -0.0 -0.0", Box(-0.0, -0.0, -0.0, -0.0)),
    ])
    def test_negative_zero_extent_accepted(self, row, box):
        text = f"patientId,PredictionString\np1,{row}\n"
        records = read_predictions(text)
        assert records == token_by_token_read_predictions(text) == [PredRecord("p1", (Detection(box, 0.5),))]
        got = records[0].detections[0].box
        signs = [math.copysign(1.0, v) for b in (got, box) for v in (b.x_min, b.y_min, b.x_max, b.y_max)]
        assert signs[:4] == signs[4:]


def detection_values(detections):
    """The (score, x_min, y_min, x_max, y_max) rows of Detections, as int64
    bit patterns, so -0.0 and 0.0 differ."""
    rows = [(d.score, d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max) for d in detections]
    return np.array(rows, dtype=float).reshape(-1, 5).view(np.int64).tolist()


class TestPredictionTable:
    """The one predictions reader: a table of score and corner rows, with an
    id and a row range per CSV row, and image rows grouped as
    group_predictions groups Detections."""

    # clean texts read whole, so rows and grouping are compared on many of them;
    # twice the examples keep about as many mixed texts as before
    @settings(max_examples=200)
    @given(st.one_of(prediction_texts(clean=True), prediction_texts()))
    @example("patientId,PredictionString\np1,0.9 0 0 10 10\np0,\np1,0.25 2.5 0 1 1 1 10 10 0 0\n")  # a repeated id
    def test_rows_equal_the_token_by_token_reader(self, text):
        expected = read_outcome(token_by_token_read_predictions, text)
        try:
            table = read_prediction_table(text)
        except ValueError as exc:
            assert (type(exc), str(exc)) == expected
            return
        assert table.ids == [r.patient_id for r in expected]
        assert table.bounds == [0, *np.cumsum([len(r.detections) for r in expected]).tolist()]
        assert table.values.view(np.int64).tolist() == detection_values(d for r in expected for d in r.detections)
        grouped = group_predictions(expected)
        assert list(table) == list(grouped)
        assert {pid: table[pid].view(np.int64).tolist() for pid in table} == {
            pid: detection_values(dets) for pid, dets in grouped.items()}

    def test_repeated_rows_concatenate_in_file_order(self):
        text = "patientId,PredictionString\np1,0.9 0 0 10 10\np2,\np1,0.5 5 5 1 2 0.25 1 1 1 1\np3,0.5 1 1 1 1\n"
        table = read_prediction_table(text)
        assert (table.ids, table.bounds) == (["p1", "p2", "p1", "p3"], [0, 1, 1, 3, 4])
        assert list(table) == ["p1", "p2", "p3"] and len(table) == 3
        assert table["p1"].tolist() == [[0.9, 0, 0, 10, 10], [0.5, 5, 5, 6, 7], [0.25, 1, 1, 2, 2]]
        assert table["p2"].shape == (0, 5)
        assert table.get("p4", ()) == ()
        for rows in (table.values, table["p1"], table["p3"]):
            assert not rows.flags.writeable

    def test_from_detections_equals_the_read_table(self):
        """The rows detection_rows takes from each id's Detections, as
        score_dataset takes them, equal the table read back from the written
        file, bit for bit."""
        rng = random.Random(131)
        predictions = {}
        for i in range(12):
            dets = []
            for _ in range(rng.randint(0, 4)):
                x, y = rng.uniform(0, 500), rng.uniform(0, 500)
                dets.append(Detection(Box.from_xywh(x, y, rng.uniform(0, 100), rng.uniform(0, 100)), rng.random()))
            predictions[f"p{i:02d}"] = dets
        rows = {p: detection_rows(d) for p, d in predictions.items()}
        read = read_prediction_table(write_predictions(PredRecord(p, d) for p, d in predictions.items()))
        assert (list(rows), [0, *np.cumsum([len(r) for r in rows.values()]).tolist()]) == (read.ids, read.bounds)
        assert np.concatenate(list(rows.values())).view(np.int64).tolist() == read.values.view(np.int64).tolist()
        assert {p: r.view(np.int64).tolist() for p, r in rows.items()} == {
            p: read[p].view(np.int64).tolist() for p in read}


# tokens float takes, signed zeros, exponents, underscores and non-ASCII
# digits among them, then ones the bulk checks or float refuse
TABLE_CONFIDENCES = ["0.9", "1", "0", "-0.0", "2.5e-1", "1_0e-1", "\u0661", "\u0660.\u0665", "1.5", "nan", "x"]
TABLE_COORDINATES = ["10", "-0.0", "0", "1e3", "2.5E-2", "1_0", "\u0661\u0662", "1e308", "-3", "inf", "y"]


@st.composite
def table_texts(draw):
    """Predictions files with repeated ids, empty strings, blank lines and LF or CRLF ends."""
    lines = ["patientId,PredictionString"]
    for _ in range(draw(st.integers(0, 5))):
        clean = draw(st.integers(0, 3)) > 0
        confidences = st.sampled_from(TABLE_CONFIDENCES[:8] if clean else TABLE_CONFIDENCES)
        coordinates = st.sampled_from(TABLE_COORDINATES[:8] if clean else TABLE_COORDINATES)
        tokens = []
        for _ in range(draw(st.integers(0, 3))):
            tokens.append(draw(confidences))
            tokens.extend(draw(st.lists(coordinates, min_size=4, max_size=4)))
        if not clean and draw(st.booleans()):
            tokens = tokens[1:]  # a dangling token, or a 4-token string
        lines.append(f"{draw(st.sampled_from(['p1', 'p2', ' p3 ']))},{' '.join(tokens)}")
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


class TestTableStream:
    """Every token of every row goes through float in one stream; the table
    must be bit for bit the one gathered row by row in an array('d')."""

    @given(table_texts())
    @example("patientId,PredictionString\r\np1,-0.0 \u0661 1_0 2.5E-2 -0.0\r\np1,\r\n")
    @example("patientId,PredictionString\np1,0.5 1 1 1 1\np2,0.5 y 1 1 1\n")
    def test_bit_identical_to_the_array_builder(self, text):
        expected = read_outcome(array_read_prediction_table, text)
        got = read_outcome(read_prediction_table, text)
        if isinstance(expected, PredictionTable):
            assert (got.values.shape, got.values.tobytes(), got.ids, got.bounds) == (
                expected.values.shape, expected.values.tobytes(), expected.ids, expected.bounds)
        else:
            assert got == expected

    def test_peak_memory_per_char(self):
        # a score-sized file of 3 000 rows; the peak holds the table, one
        # chunk's UCS-4 copy and the rows in flight, not a copy of the text.
        # Here the chunked reader peaks at 2.5 bytes per char, a whole-file
        # io.StringIO at 5.9 and rows gathered in an array('d') at 3.7
        rng = random.Random(17)
        lines = ["patientId,PredictionString"]
        for i in range(3000):
            tokens = []
            for _ in range(rng.randint(0, 20)):
                tokens.append(f"{rng.uniform(0.05, 1.0):.4f}")
                tokens.extend(f"{rng.uniform(0, 900):.1f}" for _ in range(4))
            lines.append(f"{i:08d}-0000-0000-0000-{rng.getrandbits(48):012x},{' '.join(tokens)}")
        text = "\n".join(lines) + "\n"
        assert len(text) > 1_000_000
        tracemalloc.start()
        try:
            table = read_prediction_table(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 3000
        assert peak < 3 * len(text)


# CR and LF, the other line ends str.splitlines knows, NUL, lone surrogates, csv's quote and comma
LINE_CHARS = ["\r", "\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\x00",
              "\ud800", "\udfff", '"', ",", " ", "a"]


class TestLineSplitter:
    """Lines end only at LF, CRLF or a lone CR. With chunks of 1 to 8 chars,
    CRLF pairs and long lines straddle chunk ends, and every split must
    still equal the one-regex splitter's."""

    @given(st.lists(st.sampled_from(LINE_CHARS), max_size=40).map("".join), st.integers(1, 8))
    @example("ab\r\ncd", 3)
    @example("a\rb\r\n\r", 2)
    def test_equals_the_regex_splitter(self, text, chunk):
        lines = regex_lines(text)
        with mock.patch.object(formats, "_CHUNK", chunk):
            assert list(formats._lines(text)) == lines
            assert read_ids(text) == [line.strip() for line in lines if line.strip()]
            # the first lone surrogate, or the byte after the text, is the first that is not UTF-8
            good = text[: next((i for i, c in enumerate(text) if "\ud800" <= c <= "\udfff"), len(text))]
            with pytest.raises(FormatError) as caught:
                decode_text(text.encode("utf-8", "surrogatepass") + b"\xff")
        assert str(caught.value).startswith(f"line {len(regex_lines(good + '?'))}: invalid UTF-8 ")


class TestStrictQuoting:
    """A quote that is never closed, or text glued after a closing quote, is
    an error naming the line, not part of a field."""

    @pytest.mark.parametrize("row, message", [
        ('p1,"0.5 1 2 3 4', "line 2: unexpected end of data"),
        ('p1,"0.5 1 2 3 4\n', "line 2: unexpected end of data"),
        ('p1,"0.5 1 2 3 4"x\n', "line 2: ',' expected after '\"'"),
    ])
    def test_broken_quoting_names_the_line(self, row, message):
        assert read_outcome(read_predictions, f"patientId,PredictionString\n{row}") == (FormatError, message)
        assert read_outcome(read_ground_truth, f"{GT_HEADER}\n{row}") == (FormatError, message)

    def test_quoted_fields_still_read(self):
        records = read_predictions('patientId,PredictionString\n"p,1","0.5 1 2 3 4"\n')
        assert records == [PredRecord("p,1", (Detection(Box(1, 2, 4, 6), 0.5),))]

    # a quoted line break makes a row span lines; its error names the row's last line
    @pytest.mark.parametrize("reader", [read_predictions, read_prediction_table])
    def test_error_after_a_multi_line_id_names_its_line(self, reader):
        text = 'patientId,PredictionString\n"p\n1",0.5 1 1 1 1\np2,2 0 0 1 1\n'
        assert read_outcome(reader, text) == (FormatError, "line 4: confidence 2.0 outside [0, 1]")

    def test_ground_truth_error_after_two_multi_line_ids(self):
        text = f'{GT_HEADER}\n"a\nb",1,1,1,1,1\n"c\nd",,,,,0\nq,1,1,1,1,2\n'
        assert read_outcome(read_ground_truth, text) == (FormatError, "line 6: target must be 0 or 1, got '2'")

    def test_multi_line_string_is_named_by_its_last_line(self):
        text = 'patientId,PredictionString\n"p\n0",0.5 1 1 1 1\np1,"0.5 1\n1 1"\n'
        assert read_outcome(read_predictions, text) == (
            FormatError, "line 5: prediction string must hold conf x y w h quintuples, got 4 tokens")

    def test_crlf_id_counts_as_one_line_end(self):
        text = 'patientId,truth,pred\r\n"a\r\nb",1,1\r\np,1,2\r\n'
        assert read_outcome(read_labels, text) == (FormatError, "line 4: truth and pred must be 0 or 1")

    @pytest.mark.parametrize("reader", [read_predictions, read_prediction_table, read_ground_truth, read_labels])
    def test_empty_text_misses_its_header_on_line_1(self, reader):
        assert read_outcome(reader, "") == (FormatError, "line 1: missing header")


def tiny_report():
    """The report of p1 with one box found by its one prediction, p2 with a
    prediction and no box, and p3 with neither."""
    return ScoreReport(
        dataset_map=0.5,
        thresholds=(0.4, 0.5),
        per_image=(("p1", 1.0), ("p2", 0.0), ("p3", None)),
        counts=(ThresholdCounts(0.4, 1, 1, 0), ThresholdCounts(0.5, 1, 1, 0)),
    )


class TestClassification:
    def test_json_bytes(self):
        # no true negatives and no false positives: specificity is 0/0
        text = write_classification(confusion_metrics(ConfusionCounts(tp=2, fp=0, tn=0, fn=1)))
        assert text == ('{\n  "accuracy": 0.666667,\n  "specificity": 0.000000,\n  "precision": 1.000000,\n'
                        '  "recall": 0.666667,\n  "f1": 0.800000,\n  "undefined": ["specificity"]\n}\n')


class TestReport:
    def test_json_shape(self):
        text = write_report(tiny_report())
        assert text.startswith('{\n  "dataset_map": 0.500000,')
        assert '"average_precision": null' in text
        assert '"thresholds": [0.400000, 0.500000]' in text
        assert text.endswith("}\n")

    def test_round_trip(self):
        report = tiny_report()
        assert read_report(write_report(report)) == report

    def test_six_decimal_rendering(self):
        report = ScoreReport(
            dataset_map=1 / 7,
            thresholds=(0.5,),
            per_image=(("p", 1 / 7),),
            counts=(ThresholdCounts(0.5, 0, 1, 1),),
        )
        text = write_report(report)
        assert '"dataset_map": 0.142857,' in text
        assert '"average_precision": 0.142857' in text

    def test_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            ScoreReport(
                dataset_map=0.9,
                thresholds=(0.5,),
                per_image=(("p1", 0.2),),
                counts=(ThresholdCounts(0.5, 1, 0, 0),),
            )

    def test_counts_must_align_with_thresholds(self):
        with pytest.raises(ValueError, match="counts"):
            ScoreReport(
                dataset_map=0.0,
                thresholds=(0.4, 0.5),
                per_image=(),
                counts=(ThresholdCounts(0.4, 0, 0, 0),),
            )

    def test_unknown_keys_rejected(self):
        text = write_report(tiny_report()).replace('"undefined"', '"extra"')
        with pytest.raises(FormatError):
            read_report(text)

    @pytest.mark.parametrize("old, new, message", [
        ('"dataset_map": 0.500000,', '"dataset_map": 0.500000, "dataset_map": 0.500000,',
         "invalid report JSON: repeated key 'dataset_map'"),
        ('"tp": 1,', '"tp": 7, "tp": 1,', "invalid report JSON: repeated key 'tp'"),
        ('"patient_id": "p1",', '"patient_id": "p1", "patient_id": "p1",',
         "invalid report JSON: repeated key 'patient_id'"),
        ('"average_precision": 1.000000}', '"average_precision": 1.000000, "extra": [1]}',
         "invalid report contents: per-image entry must have exactly the keys ['average_precision', 'patient_id']"),
        ('"fn": 0}', '"fn": 0, "extra": 0}',
         "invalid report contents: count must have exactly the keys ['fn', 'fp', 'threshold', 'tp']"),
        ('"fn": 0}', '"fm": 0}',
         "invalid report contents: count must have exactly the keys ['fn', 'fp', 'threshold', 'tp']"),
        ('"per_image": [{', '"per_image": [7, {',
         "invalid report contents: per-image entry must have exactly the keys ['average_precision', 'patient_id']"),
    ], ids=["repeated-top-level", "repeated-count", "repeated-per-image", "extra-per-image", "extra-count",
            "renamed-count", "not-an-object"])
    def test_repeated_and_unknown_keys_rejected_at_every_level(self, old, new, message):
        text = write_report(tiny_report())
        assert old in text
        with pytest.raises(FormatError) as info:
            read_report(text.replace(old, new, 1))
        assert str(info.value) == message

    def test_top_level_key_message_is_kept(self):
        with pytest.raises(FormatError) as info:
            read_report("[]")
        assert str(info.value) == (
            "report must have exactly the keys ['counts', 'dataset_map', 'per_image', 'thresholds', 'undefined']"
        )

    @pytest.mark.parametrize("second", [(1, 2, 0), (1, 1, 1), (5, 0, 9)],
                             ids=["more-predictions", "more-boxes", "both-differ"])
    def test_counts_no_dataset_produces_rejected(self, second):
        with pytest.raises(ValueError) as info:
            ScoreReport(0.0, (0.4, 0.5), (), (ThresholdCounts(0.4, 1, 1, 0), ThresholdCounts(0.5, *second)))
        assert str(info.value) == "counts must hold the same tp + fp and tp + fn at every threshold"

    def test_counts_no_dataset_produces_not_read(self):
        text = write_report(tiny_report()).replace('"tp": 1, "fp": 1, "fn": 0}]', '"tp": 5, "fp": 0, "fn": 9}]')
        with pytest.raises(FormatError) as info:
            read_report(text)
        assert str(info.value) == (
            "invalid report contents: counts must hold the same tp + fp and tp + fn at every threshold"
        )

    def test_invalid_json_rejected(self):
        with pytest.raises(FormatError):
            read_report("{not json")

    def test_invalid_contents_rejected(self):
        text = write_report(tiny_report()).replace('"tp": 1,', '"tp": "x",', 1)
        with pytest.raises(FormatError) as info:
            read_report(text)
        assert str(info.value) == "invalid report contents: invalid literal for int() with base 10: 'x'"

    def test_nan_dataset_map_rejected(self):
        with pytest.raises(ValueError) as info:
            ScoreReport(float("nan"), (0.5,), (("p1", 0.5),), (ThresholdCounts(0.5, 1, 1, 0),))
        assert str(info.value) == "dataset_map nan inconsistent with per-image mean 0.5"

    def test_nan_dataset_map_not_read(self):
        text = write_report(tiny_report()).replace('"dataset_map": 0.500000', '"dataset_map": NaN')
        with pytest.raises(FormatError) as info:
            read_report(text)
        assert str(info.value) == "invalid report contents: dataset_map nan inconsistent with per-image mean 0.5"

    @pytest.mark.parametrize("old, new, detail", [
        ('"tp": 1,', '"tp": 1.9,', "expected int, got 1.9"),
        ('"tp": 1,', '"tp": true,', "expected int, got True"),
        ('"fn": 0}', '"fn": 0.0}', "expected int, got 0.0"),
        ('"dataset_map": 0.500000', '"dataset_map": "0.5"', "expected float, got '0.5'"),
        ('"dataset_map": 0.500000', '"dataset_map": false', "expected float, got False"),
        ('"threshold": 0.500000', '"threshold": "0.5"', "expected float, got '0.5'"),
        ('"thresholds": [0.400000,', '"thresholds": [true,', "expected float, got True"),
        ('"average_precision": 1.000000', '"average_precision": "1"', "expected float, got '1'"),
        ('"patient_id": "p1"', '"patient_id": 7', "expected str, got 7"),
        ('"undefined": []', '"undefined": "ab"', "expected list, got 'ab'"),
        ('"undefined": []', '"undefined": ["dataset_map", 1]', "expected str, got 1"),
        ('"threshold": 0.500000', '"threshold": 1' + "0" * 400, "int too large to convert to float"),
    ], ids=["float-count", "boolean-count", "float-zero-count", "string-map", "boolean-map", "string-threshold",
            "boolean-threshold", "string-score", "integer-id", "string-undefined", "integer-undefined-name",
            "huge-integer-threshold"])
    def test_wrong_json_types_rejected(self, old, new, detail):
        text = write_report(tiny_report())
        assert old in text
        with pytest.raises(FormatError) as info:
            read_report(text.replace(old, new, 1))
        assert str(info.value) == f"invalid report contents: {detail}"

    def test_whole_numbers_read_as_reals(self):
        text = write_report(tiny_report()).replace('"average_precision": 1.000000', '"average_precision": 1')
        assert read_report(text) == tiny_report()

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError) as info:
            ThresholdCounts(0.5, 0, -1, 0)
        assert str(info.value) == "counts must be non-negative"

    @pytest.mark.parametrize("score", [1.5, -0.25])
    def test_per_image_score_must_lie_in_the_unit_interval(self, score):
        with pytest.raises(ValueError) as info:
            ScoreReport(score, (0.5,), (("p1", score),), (ThresholdCounts(0.5, 1, 0, 0),))
        assert str(info.value) == f"per-image score out of range for 'p1': {score!r}"

    def test_per_image_ids_must_be_unique(self):
        with pytest.raises(ValueError) as info:
            ScoreReport(0.5, (0.5,), (("p1", 1.0), ("p1", 0.0)), (ThresholdCounts(0.5, 1, 1, 0),))
        assert str(info.value) == "per-image ids must be unique: 'p1' repeats"

    def test_repeated_per_image_id_not_read(self):
        text = write_report(tiny_report()).replace('"patient_id": "p2"', '"patient_id": "p1"')
        with pytest.raises(FormatError) as info:
            read_report(text)
        assert str(info.value) == "invalid report contents: per-image ids must be unique: 'p1' repeats"


class TestLabels:
    def test_rows_parse_to_int_pairs(self):
        text = "patientId,truth,pred\np1,1,0\n\np2, 0 ,1\n\n"
        assert read_labels(text) == [("p1", 1, 0), ("p2", 0, 1)]

    def test_crlf_and_lf_parse_identically(self):
        lf = "patientId,truth,pred\np1,1,1\np2,0,0\n"
        assert read_labels(lf.replace("\n", "\r\n")) == read_labels(lf)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "line 1: missing header"),
            ("patientId,truth\np1,1\n", "line 1: expected header"),
            ("patientId,truth,pred\np1,1,1\np2,1\n", "line 3: expected 3 fields"),
            ("patientId,truth,pred\np1,1,1\n\np2,2,0\n", "line 4: truth and pred"),
            ("patientId,truth,pred\np1,1,yes\n", "line 2: truth and pred"),
        ],
    )
    def test_malformed_inputs_name_the_line(self, text, fragment):
        with pytest.raises(FormatError, match=fragment):
            read_labels(text)

    @pytest.mark.parametrize("row", [",1,0", " ,1,0", "\t,1,0"])
    def test_empty_patient_id_names_the_line(self, row):
        with pytest.raises(FormatError) as info:
            read_labels(f"patientId,truth,pred\np1,1,1\n{row}\n")
        assert str(info.value) == "line 3: empty patient id"


def random_wire_report(rng):
    """A report whose reals sit on the six-decimal wire grid."""
    n_thresh = rng.randint(1, 4)
    thresholds = sorted(rng.sample([round(0.05 * k, 2) for k in range(1, 20)], n_thresh))
    per_image = []
    scores = []
    for i in range(rng.randint(0, 6)):
        score = None if rng.random() < 0.2 else round(rng.random(), 6)
        per_image.append((f"p{i:02d}", score))
        if score is not None:
            scores.append(score)
    dmap = round(sum(scores) / len(scores), 6) if scores else 0.0
    n_preds, n_boxes = rng.randint(0, 9), rng.randint(0, 9)  # every threshold matches the same two sets
    counts = tuple(
        ThresholdCounts(t, tp, n_preds - tp, n_boxes - tp)
        for t, tp in zip(thresholds, (rng.randint(0, min(n_preds, n_boxes)) for _ in thresholds))
    )
    undefined = () if scores else ("dataset_map",)
    return ScoreReport(dmap, tuple(thresholds), tuple(per_image), counts, undefined)


def test_report_round_trip_randomized():
    rng = random.Random(131)
    for _ in range(200):
        report = random_wire_report(rng)
        again = read_report(write_report(report))
        assert again.thresholds == report.thresholds
        assert again.per_image == report.per_image
        assert again.counts == report.counts
        assert again.undefined == report.undefined
        assert abs(again.dataset_map - report.dataset_map) < 1e-6
