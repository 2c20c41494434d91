import math
import random

import pytest
from hypothesis import given
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
from oracles import token_by_token_read_predictions

GT_HEADER = "patientId,x,y,width,height,Target"


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


@st.composite
def prediction_texts(draw):
    lines = ["patientId,PredictionString"]
    for i in range(draw(st.integers(0, 4))):
        clean = draw(st.booleans())  # a row of passing tokens takes the one-pass path to its end
        confidences = st.sampled_from(GOOD_CONFIDENCES if clean else CONFIDENCES)
        coordinates = st.sampled_from(GOOD_COORDINATES if clean else COORDINATES)
        tokens = []
        for _ in range(draw(st.integers(0, 4))):
            tokens.append(draw(confidences))
            tokens.extend(draw(st.lists(coordinates, min_size=4, max_size=4)))
        if draw(st.integers(0, 9)) == 0:
            tokens = tokens[:-1]  # a dangling token
        lines.append(f"p{i},{' '.join(tokens)}")
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


def tiny_report():
    return ScoreReport(
        dataset_map=0.5,
        thresholds=(0.4, 0.5),
        per_image=(("p1", 1.0), ("p2", 0.0), ("p3", None)),
        counts=(ThresholdCounts(0.4, 1, 0, 0), ThresholdCounts(0.5, 1, 1, 0)),
    )


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

    def test_invalid_json_rejected(self):
        with pytest.raises(FormatError):
            read_report("{not json")

    def test_invalid_contents_rejected(self):
        text = write_report(tiny_report()).replace('"tp": 1,', '"tp": "x",', 1)
        with pytest.raises(FormatError) as info:
            read_report(text)
        assert str(info.value) == "invalid report contents: invalid literal for int() with base 10: 'x'"

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError) as info:
            ThresholdCounts(0.5, 0, -1, 0)
        assert str(info.value) == "counts must be non-negative"

    @pytest.mark.parametrize("score", [1.5, -0.25])
    def test_per_image_score_must_lie_in_the_unit_interval(self, score):
        with pytest.raises(ValueError) as info:
            ScoreReport(score, (0.5,), (("p1", score),), (ThresholdCounts(0.5, 1, 0, 0),))
        assert str(info.value) == f"per-image score out of range for 'p1': {score!r}"


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
    counts = tuple(
        ThresholdCounts(t, rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9))
        for t in thresholds
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
