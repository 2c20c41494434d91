import contextlib
import csv
import io
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cxrdet
from cxrdet import (
    DEFAULT_THRESHOLDS,
    Box,
    Detection,
    PredRecord,
    ScoreReport,
    ThresholdCounts,
    group_ground_truth,
    group_predictions,
    mean_average_precision,
    read_ground_truth,
    read_pgm,
    read_predictions,
    read_report,
    threshold_range,
    write_pgm,
    write_predictions,
    write_report,
)
from cxrdet import cli
from cxrdet.anchors import MAX_ANCHORS
from cxrdet.cli import main
from cxrdet.preprocess import MAX_CLAHE_TILES, MAX_RESIZE_PIXELS, MAX_SIDE
from helpers import per_image_oracle
from oracles import token_by_token_read_predictions

GT_TEXT = """patientId,x,y,width,height,Target
p1,10,10,20,20,1
p2,,,,,0
p3,40,40,10,10,1
"""

PERFECT_PREDS = """patientId,PredictionString
p1,1.0 10 10 20 20
p3,1.0 40 40 10 10
"""

EMPTY_PREDS = "patientId,PredictionString\n"

THREE_BOX_PREDS = """patientId,PredictionString
p1,0.9 0 0 10 10 0.8 0 0 10 10 0.7 20 20 10 10
"""


class TestScore:
    def test_perfect_predictions(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        preds = tmp_path / "preds.csv"
        out = tmp_path / "report.json"
        gt.write_text(GT_TEXT)
        preds.write_text(PERFECT_PREDS)
        code = main(["score", str(gt), str(preds), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == "1.000000\n"
        report = read_report(out.read_text())
        assert report.dataset_map == 1.0
        assert dict(report.per_image) == {"p1": 1.0, "p2": None, "p3": 1.0}

    def test_empty_predictions_score_zero(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        preds = tmp_path / "preds.csv"
        gt.write_text(GT_TEXT)
        preds.write_text(EMPTY_PREDS)
        assert main(["score", str(gt), str(preds)]) == 0
        # p2 has no boxes and no predictions, so only p1/p3 count, both 0
        assert capsys.readouterr().out == "0.000000\n"

    def test_malformed_gt_exits_2(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        preds = tmp_path / "preds.csv"
        gt.write_text("patientId,x,y,width,height,Target\np1,1,1,-5,1,1\n")
        preds.write_text(EMPTY_PREDS)
        assert main(["score", str(gt), str(preds)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text(EMPTY_PREDS)
        assert main(["score", str(tmp_path / "nope.csv"), str(preds)]) == 1

    def test_byte_order_mark_tolerated(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        preds = tmp_path / "preds.csv"
        gt.write_bytes(b"\xef\xbb\xbf" + GT_TEXT.encode())
        preds.write_text(PERFECT_PREDS)
        assert main(["score", str(gt), str(preds)]) == 0
        assert capsys.readouterr().out == "1.000000\n"

    def test_custom_thresholds_and_workers(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        preds = tmp_path / "preds.csv"
        out1 = tmp_path / "r1.json"
        out8 = tmp_path / "r8.json"
        gt.write_text(GT_TEXT)
        preds.write_text(PERFECT_PREDS)
        assert main(["score", str(gt), str(preds), "--thresholds", "0.5:0.9:0.1",
                     "--out", str(out1), "--workers", "1"]) == 0
        assert main(["score", str(gt), str(preds), "--thresholds", "0.5:0.9:0.1",
                     "--out", str(out8), "--workers", "8"]) == 0
        assert out1.read_bytes() == out8.read_bytes()
        assert read_report(out1.read_text()).thresholds == (0.5, 0.6, 0.7, 0.8, 0.9)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_must_be_at_least_one(self, tmp_path, capsys, workers):
        gt, preds, out = tmp_path / "gt.csv", tmp_path / "preds.csv", tmp_path / "report.json"
        gt.write_text(GT_TEXT)
        preds.write_text(PERFECT_PREDS)
        assert main(["score", str(gt), str(preds), "--out", str(out), "--workers", str(workers)]) == 2
        assert capsys.readouterr().err == f"error: workers must be at least 1: {workers!r}\n"
        assert not out.exists()
        # checked once both files are read: a missing file is reported first
        assert main(["score", str(tmp_path / "nope.csv"), str(preds), "--workers", str(workers)]) == 1

    def test_bad_threshold_spec_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["score", "a", "b", "--thresholds", "0.9:0.1:0.1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("spec", ["0.4:nan:0.05", "0.4:inf:0.05", "0.4:0.75:1e-8"])
    def test_unbounded_threshold_range_exits_2_at_once(self, tmp_path, spec):
        # a fresh process, so a range that never ends fails the timeout, not the suite
        gt, preds = tmp_path / "gt.csv", tmp_path / "preds.csv"
        gt.write_text(GT_TEXT)
        preds.write_text(PERFECT_PREDS)
        src = os.path.dirname(os.path.dirname(cxrdet.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "cxrdet.cli", "score", str(gt), str(preds), "--thresholds", spec],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=5,
        )
        assert done.returncode == 2
        assert "threshold range" in done.stderr


def leaderboard(seed, images=80):
    """Seeded ground-truth and predictions CSV texts. True boxes have sides
    divisible by four, so their half- and three-quarter-width copies overlap
    them in exactly 0.5 and 0.75; there are also jittered copies, random
    boxes, tied confidences, empty prediction rows, target-0 rows, images
    listed in only one of the two files, and images whose quintuples are
    split over two rows of the same id, the second among the last rows."""
    rng = random.Random(seed)
    gt_lines, pred_lines = ["patientId,x,y,width,height,Target"], ["patientId,PredictionString"]
    split_rows = []
    for i in range(images):
        pid = f"img{i:03d}"
        boxes = []
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
            w, h = 4 * rng.randint(10, 60), 4 * rng.randint(10, 60)
            boxes.append((rng.randint(0, 700), rng.randint(0, 700), w, h))
        kind = rng.random()
        if kind > 0.1:  # the rest are listed in the predictions only
            gt_lines += [f"{pid},{x},{y},{w},{h},1" for x, y, w, h in boxes] or [f"{pid},,,,,0"]
        if kind < 0.05:
            continue  # listed in the ground truth only
        quintuples = []
        for x, y, w, h in boxes:
            copies = [(x, y, w // 2, h), (x, y, 3 * w // 4, h),  # IoU 0.5 and 0.75
                      (x + rng.uniform(-0.2, 0.2) * w, y + rng.uniform(-0.2, 0.2) * h,
                       w * rng.uniform(0.7, 1.3), h * rng.uniform(0.7, 1.3))]
            quintuples += [c for c in copies if rng.random() < 0.5]
        quintuples += [(rng.uniform(0, 800), rng.uniform(0, 800), rng.uniform(20, 200), rng.uniform(20, 200))
                       for _ in range(rng.randint(0, 4))]
        rng.shuffle(quintuples)
        if rng.random() < 0.15:
            quintuples = []
        tokens = [f"{rng.choice((0.3, 0.5, 0.5, 0.9))} {x:.1f} {y:.1f} {w:.1f} {h:.1f}" for x, y, w, h in quintuples]
        cut = rng.randint(1, len(tokens) - 1) if len(tokens) > 1 and rng.random() < 0.3 else len(tokens)
        pred_lines.append(f"{pid},{' '.join(tokens[:cut])}")
        if cut < len(tokens):
            split_rows.append(f"{pid},{' '.join(tokens[cut:])}")
    return "\n".join(gt_lines) + "\n", "\n".join(pred_lines + split_rows) + "\n"


def oracle_score(gt_text, pred_text, ts, inclusive):
    """stdout and report bytes of ``cxrdet score``, built from the token-by-token
    reader and one full greedy walk per threshold."""
    gt = group_ground_truth(read_ground_truth(gt_text))
    preds = group_predictions(token_by_token_read_predictions(pred_text))
    per_image, totals = per_image_oracle(gt, preds, ts, inclusive)
    scores = [score for _, score in per_image]
    report = ScoreReport(
        dataset_map=mean_average_precision(scores),
        thresholds=ts,
        per_image=per_image,
        counts=[ThresholdCounts(t, *total) for t, total in zip(ts, totals)],
        undefined=() if any(s is not None for s in scores) else ("dataset_map",),
    )
    return f"{report.dataset_map:.6f}\n", write_report(report)


class TestScoreBytes:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("flags, ts, inclusive", [
        ([], DEFAULT_THRESHOLDS, False),
        (["--inclusive-iou"], DEFAULT_THRESHOLDS, True),
        (["--thresholds", "0.5,0.75"], (0.5, 0.75), False),
        (["--thresholds", "0.3:0.9:0.15", "--inclusive-iou"], threshold_range(0.3, 0.9, 0.15), True),
        (["--workers", "8"], DEFAULT_THRESHOLDS, False),
    ])
    def test_matches_the_oracle_report(self, tmp_path, capsys, seed, flags, ts, inclusive):
        gt_text, pred_text = leaderboard(seed)
        gt, preds, out = tmp_path / "gt.csv", tmp_path / "preds.csv", tmp_path / "report.json"
        gt.write_text(gt_text)
        preds.write_text(pred_text)
        assert main(["score", str(gt), str(preds), "--out", str(out), *flags]) == 0
        stdout, report = oracle_score(gt_text, pred_text, ts, inclusive)
        assert capsys.readouterr().out == stdout
        assert out.read_bytes() == report.encode()


EDGE_GT = """patientId,x,y,width,height,Target
p1,10,10,20,20,1
p1,40,40,8,8,1
p2,,,,,0
p3,0,0,5,5,1
p5,1,1,0,0,1
"""


class TestScoreEdges:
    """``score`` reads its predictions into one table; on the table's edges it
    must write the token-by-token reader's bytes, and on broken files exit 2
    with that reader's message."""

    @pytest.mark.parametrize("pred_text", [
        pytest.param("patientId,PredictionString\np1,0.9 10 10 20 20\np2,0.5 0 0 4 4\n"
                     "p1,0.8 40 40 8 8 0.3 11 11 20 20\np3,0.4 0 0 5 5\np1,0.8 10 10 20 20\n",
                     id="patient-split-over-rows"),
        pytest.param("patientId,PredictionString\np1,\np2,\np3,0.7 0 0 5 5\np3,\n", id="empty-strings"),
        pytest.param("patientId,PredictionString\np5,0.6 1 1 -0.0 -0.0\n"
                     "p1,0.9 10 10 -0.0 20 0.4 -0.0 -0.0 -0.0 -0.0 0.7 10 10 20 -0.0\n", id="negative-zero-extents"),
        pytest.param("patientId,PredictionString\np4,0.5 1 2 3 4\np9,\np1,0.9 10 10 20 20\n", id="one-side-only"),
        pytest.param("patientId,PredictionString\n", id="no-rows"),
    ])
    @pytest.mark.parametrize("inclusive", [False, True])
    def test_well_formed_files_match_the_oracle(self, tmp_path, capsys, pred_text, inclusive):
        gt, preds, out = tmp_path / "gt.csv", tmp_path / "preds.csv", tmp_path / "report.json"
        gt.write_text(EDGE_GT)
        preds.write_text(pred_text)
        flags = ["--inclusive-iou"] if inclusive else []
        assert main(["score", str(gt), str(preds), "--out", str(out), *flags]) == 0
        stdout, report = oracle_score(EDGE_GT, pred_text, DEFAULT_THRESHOLDS, inclusive)
        assert capsys.readouterr().out == stdout
        assert out.read_bytes() == report.encode()

    @pytest.mark.parametrize("rows, message", [
        (["p1,0.9 10 10 20 20 0.5 1 2 abc 4"], "line 3: non-numeric w 'abc'"),
        (["p1,1.5 10 10 20 20"], "line 3: confidence 1.5 outside [0, 1]"),
        (["p1,0.9 10 10 -3 20"], "line 3: negative box extent -3.0"),
        (["p1,0.9 10 10 20 20 0.5 1e308 0 1e308 1"],
         "line 3: box coordinates must be finite: Box(x_min=1e+308, y_min=0.0, x_max=inf, y_max=1.0)"),
        # a later row that breaks the CSV itself does not hide an earlier bad value
        (["p1,0.9 10 10 20 20 0.5 1 2 -3 4", "p3,0.5 1 2"], "line 3: negative box extent -3.0"),
        (["p1,0.9 10 10 20 20", "p3,0.5 1 2"],
         "line 4: prediction string must hold conf x y w h quintuples, got 3 tokens"),
    ])
    def test_broken_files_exit_2_with_the_oracle_message(self, tmp_path, capsys, rows, message):
        pred_text = "\n".join(["patientId,PredictionString", "p0,0.5 1 1 2 2", *rows, "p2,0.5 1 1 2 2"]) + "\n"
        with pytest.raises(ValueError) as oracle:
            token_by_token_read_predictions(pred_text)
        assert str(oracle.value) == message
        gt, preds, out = tmp_path / "gt.csv", tmp_path / "preds.csv", tmp_path / "report.json"
        gt.write_text(EDGE_GT)
        preds.write_text(pred_text)
        assert main(["score", str(gt), str(preds), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_error_after_a_multi_line_id_names_its_last_line(self, tmp_path, capsys):
        gt, preds, out = tmp_path / "gt.csv", tmp_path / "preds.csv", tmp_path / "report.json"
        gt.write_text(EDGE_GT)
        preds.write_text('patientId,PredictionString\n"p\n1",0.5 1 1 1 1\np2,2 0 0 1 1\n')
        assert main(["score", str(gt), str(preds), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: line 4: confidence 2.0 outside [0, 1]\n")
        assert not out.exists()


class TestNms:
    def test_hard_mode_keeps_two_of_three(self, tmp_path):
        preds = tmp_path / "preds.csv"
        out = tmp_path / "out.csv"
        preds.write_text(THREE_BOX_PREDS)
        assert main(["nms", str(preds), "--out", str(out), "--mode", "hard", "--iou", "0.5"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "patientId,PredictionString"
        tokens = lines[1].split(",", 1)[1].split()
        assert len(tokens) == 10  # two detections survive
        assert float(tokens[0]) == 0.9 and float(tokens[5]) == 0.7

    def test_soft_gaussian_decays_scores(self, tmp_path):
        preds = tmp_path / "preds.csv"
        out = tmp_path / "out.csv"
        preds.write_text("patientId,PredictionString\np1,0.9 0 0 10 10 0.8 0 0 10 10\n")
        assert main(["nms", str(preds), "--out", str(out), "--mode", "soft-gaussian",
                     "--sigma", "0.5"]) == 0
        tokens = out.read_text().splitlines()[1].split(",", 1)[1].split()
        scores = [float(tokens[0]), float(tokens[5])]
        assert scores[0] == 0.9
        assert scores[1] == pytest.approx(0.8 * np.exp(-2.0), abs=1e-12)

    def test_repeated_patient_rows_merge_in_first_appearance_order(self, tmp_path):
        preds, out = tmp_path / "preds.csv", tmp_path / "out.csv"
        preds.write_text("patientId,PredictionString\np1,0.9 0 0 10 10\np2,0.5 1 1 2 2\np1,0.7 20 20 10 10\n")
        assert main(["nms", str(preds), "--out", str(out)]) == 0
        assert out.read_text() == (
            "patientId,PredictionString\n"
            "p1,0.9 0.0 0.0 10.0 10.0 0.7 20.0 20.0 10.0 10.0\n"
            "p2,0.5 1.0 1.0 2.0 2.0\n"
        )

    def test_bad_mode_parameter_exits_2(self, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text(EMPTY_PREDS)
        assert main(["nms", str(preds), "--iou", "1.5"]) == 2

    @pytest.mark.parametrize("mode", ["hard", "soft-linear", "soft-gaussian"])
    def test_nan_score_cut_exits_2(self, tmp_path, capsys, mode):
        preds, out = tmp_path / "preds.csv", tmp_path / "out.csv"
        preds.write_text(THREE_BOX_PREDS)
        assert main(["nms", str(preds), "--out", str(out), "--mode", mode, "--score-cut", "nan"]) == 2
        assert "score_cutoff must be non-negative: nan" in capsys.readouterr().err
        assert not out.exists()

    def test_rows_longer_than_the_csv_field_limit(self, tmp_path, capsys):
        # 2 000 full-precision detections make a row far above csv's 131 072-character
        # default; they overlap each other heavily, so hard NMS keeps one in a single pass
        rng = random.Random(5)
        dets = []
        for _ in range(2000):
            x, y = 100 + rng.random(), 100 + rng.random()
            dets.append(Detection(Box(x, y, x + 50 + rng.random(), y + 50 + rng.random()),
                                  rng.random()))
        records = [PredRecord("p1", tuple(dets))]
        text = write_predictions(records)
        assert len(text) > 131072
        assert read_predictions(text) == records
        preds, kept = tmp_path / "preds.csv", tmp_path / "kept.csv"
        gt = tmp_path / "gt.csv"
        preds.write_text(text)
        gt.write_text(GT_TEXT)
        assert main(["nms", str(preds), "--out", str(kept)]) == 0
        assert [len(r.detections) for r in read_predictions(kept.read_text())] == [1]
        assert main(["score", str(gt), str(preds)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("row, message", [
        ('p1,"0.5 1 2 3 4', "line 2: unexpected end of data"),
        ('p1,"0.5 1 2 3 4"x', "line 2: ',' expected after '\"'"),
    ])
    def test_broken_quoting_exits_2(self, tmp_path, capsys, row, message):
        preds, out = tmp_path / "preds.csv", tmp_path / "out.csv"
        preds.write_text(f"patientId,PredictionString\n{row}")
        assert main(["nms", str(preds), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestTextInputs:
    @pytest.mark.parametrize("line_end, line", [
        (b"\n", 3), (b"\r\n", 3), (b"\r", 3), (b"\x0c", 2), (b"\xc2\x85", 2), (b"\xe2\x80\xa8", 2),
    ])
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path, capsys, line_end, line, bom):
        preds = tmp_path / "preds.csv"
        preds.write_bytes(bom + b"patientId,PredictionString\np1,0.9 1 1 1 1" + line_end + b"p2,0.5 \xff 1 1 1\n")
        assert main(["nms", str(preds)]) == 2
        assert capsys.readouterr().err == f"error: line {line}: invalid UTF-8 b'\\xff': invalid start byte\n"

    def test_truncated_character_names_the_last_line(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"patientId,truth,pred\np1,1,1\np\xc3")
        assert main(["classify", str(labels)]) == 2
        assert capsys.readouterr().err == "error: line 3: invalid UTF-8 b'\\xc3': unexpected end of data\n"

    @pytest.mark.parametrize("argv, message", [
        (["anchors", "--grid=2"], "argument --grid: expected WxH, got '2'"),
        (["anchors", "--grid=2x2x2"], "argument --grid: expected WxH, got '2x2x2'"),
        (["anchors", "--grid=1.5x2"], "argument --grid: expected WxH, got '1.5x2'"),
        (["anchors", "--scales=8,,16"], "argument --scales: expected a comma-separated float list, got '8,,16'"),
        (["anchors", "--ratios="], "argument --ratios: expected a comma-separated float list, got ''"),
        (["preprocess", "in.pgm", "--out=o.pgm", "--shift=1"], "argument --shift: expected X,Y, got '1'"),
        (["preprocess", "in.pgm", "--out=o.pgm", "--shift=1,2,3"], "argument --shift: expected X,Y, got '1,2,3'"),
        (["preprocess", "in.pgm", "--out=o.pgm", "--shift=x,1"], "argument --shift: expected X,Y, got 'x,1'"),
    ])
    def test_bad_split_flag_messages(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    def test_split_flags_parse(self):
        args = cli.build_parser().parse_args(["anchors", "--grid", "3X2", "--scales", "8", "--ratios", "0.5,1e1"])
        assert (args.grid, args.scales, args.ratios) == ((3, 2), (8.0,), (0.5, 10.0))
        args = cli.build_parser().parse_args(["preprocess", "in.pgm", "--out", "o.pgm", "--shift=-1.5,2"])
        assert args.shift == (-1.5, 2.0)


class TestResourceCaps:
    def test_anchor_grid_past_the_cap_exits_2(self, tmp_path, capsys):
        out = tmp_path / "anchors.csv"
        assert main(["anchors", "--grid", "100000x100000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: 100000x100000 cells of 9 anchors exceed {MAX_ANCHORS} anchors\n"
        assert not out.exists()

    def test_resize_past_the_cap_exits_2(self, tmp_path, capsys):
        src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_pgm(src, np.zeros((4, 4), dtype=np.uint8))
        assert main(["preprocess", str(src), "--resize", "100000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: output size 100000x100000 exceeds {MAX_RESIZE_PIXELS} pixels\n"
        assert not out.exists()

    def test_tile_grid_past_the_cap_exits_2(self, tmp_path, capsys):
        src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_pgm(src, np.zeros((4, 4), dtype=np.uint8))
        assert main(["preprocess", str(src), "--clahe", "--tiles", "4096x4096", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: tile grid 4096x4096 exceeds {MAX_CLAHE_TILES} tiles\n"
        assert not out.exists()

    @pytest.mark.parametrize("exc, message", [
        (MemoryError(), "error: out of memory: an allocation failed\n"),
        (MemoryError("Unable to allocate 9.3 GiB"), "error: out of memory: Unable to allocate 9.3 GiB\n"),
    ])
    def test_memory_error_exits_2(self, monkeypatch, capsys, exc, message):
        def exhausted(*args):
            raise exc

        monkeypatch.setattr(cli, "anchor_corners", exhausted)
        assert main(["anchors"]) == 2
        assert capsys.readouterr().err == message


class TestAnchors:
    def test_default_grid_emits_nine_anchors(self, tmp_path):
        out = tmp_path / "anchors.csv"
        assert main(["anchors", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x_min,y_min,x_max,y_max"
        assert len(lines) == 1 + 9

    def test_output_bytes(self, tmp_path, capsys):
        assert main(["anchors", "--scales", "1", "--ratios", "1,4", "--grid", "2x1"]) == 0
        assert capsys.readouterr().out == (
            "x_min,y_min,x_max,y_max\n"
            "0.0,0.0,16.0,16.0\n4.0,-8.0,12.0,24.0\n"
            "16.0,0.0,32.0,16.0\n20.0,-8.0,28.0,24.0\n"
        )

    def test_grid_and_parameters(self, tmp_path):
        out = tmp_path / "anchors.csv"
        assert main(["anchors", "--base-size", "16", "--scales", "8", "--ratios", "1",
                     "--stride", "16", "--grid", "2x2", "--out", str(out)]) == 0
        rows = [tuple(float(v) for v in line.split(",")) for line in out.read_text().splitlines()[1:]]
        centers = [((r[0] + r[2]) / 2, (r[1] + r[3]) / 2) for r in rows]
        assert centers == [(8, 8), (24, 8), (8, 24), (24, 24)]


class TestFolds:
    def test_deterministic_and_balanced(self, tmp_path):
        ids = tmp_path / "ids.txt"
        ids.write_text("".join(f"p{i}\n" for i in range(11)))
        out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        assert main(["folds", str(ids), "--k", "5", "--seed", "7", "--out", str(out1)]) == 0
        assert main(["folds", str(ids), "--k", "5", "--seed", "7", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = [line.split(",") for line in out1.read_text().splitlines()[1:]]
        by_fold = {}
        for pid, fold in rows:
            by_fold.setdefault(int(fold), []).append(pid)
        assert sorted(len(v) for v in by_fold.values()) == [2, 2, 2, 2, 3]

    def test_ids_split_only_at_line_ends(self, tmp_path):
        ids = tmp_path / "ids.txt"
        ids.write_bytes("a\x0cb\nc\x85d\r\ne\u2028f\rg\n\n  \nh".encode())
        out = tmp_path / "folds.csv"
        assert main(["folds", str(ids), "--k", "2", "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO(out.read_bytes().decode(), newline="")))
        assert rows[0] == ["patientId", "fold"]
        assert [pid for pid, _ in rows[1:]] == ["a\x0cb", "c\x85d", "e\u2028f", "g", "h"]

    def test_ids_with_commas_and_quotes_round_trip(self, tmp_path):
        names = ["a,b", 'say "hi"', '"', "plain"]
        ids = tmp_path / "ids.txt"
        ids.write_text("".join(f"{pid}\n" for pid in names), encoding="utf-8")
        out = tmp_path / "folds.csv"
        assert main(["folds", str(ids), "--k", "2", "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO(out.read_bytes().decode(), newline="")))
        assert [pid for pid, _ in rows[1:]] == names
        assert sorted(fold for _, fold in rows[1:]) == ["0", "0", "1", "1"]

    def test_too_many_folds_exits_2(self, tmp_path):
        ids = tmp_path / "ids.txt"
        ids.write_text("p1\np2\n")
        assert main(["folds", str(ids), "--k", "5"]) == 2

    def test_repeated_id_is_named(self, tmp_path, capsys):
        ids = tmp_path / "ids.txt"
        ids.write_text("a\na\nb\n")
        assert main(["folds", str(ids), "--k", "2"]) == 2
        assert capsys.readouterr().err == "error: ids must be unique: 'a' repeats\n"


class TestClassify:
    def test_perfect_labels(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "patientId,truth,pred\n" + "".join(f"p{i},1,1\n" for i in range(5))
            + "".join(f"n{i},0,0\n" for i in range(5))
        )
        assert main(["classify", str(labels)]) == 0
        out = capsys.readouterr().out
        for name in ("accuracy", "specificity", "precision", "recall", "f1"):
            assert f'"{name}": 1.000000' in out

    def test_bad_label_exits_2(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("patientId,truth,pred\np1,2,0\n")
        assert main(["classify", str(labels)]) == 2

    def test_empty_patient_id_exits_2(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("patientId,truth,pred\np1,1,1\n ,0,1\n")
        assert main(["classify", str(labels)]) == 2
        assert capsys.readouterr().err == "error: line 3: empty patient id\n"


class TestPreprocess:
    def test_pipeline_and_determinism(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(48, 48), dtype=np.uint8)
        src = tmp_path / "in.pgm"
        write_pgm(src, img)
        out1, out2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        args = ["preprocess", str(src), "--clahe", "--clip", "2.0", "--tiles", "4x4",
                "--resize", "32", "--hflip"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert read_pgm(out1).shape == (32, 32)

    def test_sampled_augment_is_seed_deterministic(self, tmp_path):
        img = np.zeros((16, 16), dtype=np.uint8)
        img[4:12, 4:12] = 255
        src = tmp_path / "in.pgm"
        write_pgm(src, img)
        outs = []
        for name in ("a.pgm", "b.pgm"):
            out = tmp_path / name
            assert main(["preprocess", str(src), "--sample-augment", "--seed", "11",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--hflip-prob", "nan"),
            ("--hflip-prob", "2"),
            ("--hflip-prob", "-1"),
            ("--max-rotate", "inf"),
            ("--max-rotate", "nan"),
            ("--max-rotate", "1e308"),  # finite, but the sampling width 2e308 is not
            ("--max-shift", "-inf"),
            ("--max-shift", "nan"),
            # a negative range would draw the mirror image of the positive one's sample
            ("--max-rotate", "-5"),
            ("--max-shift", "-1e-300"),
        ],
    )
    def test_bad_sampling_flag_exits_2_and_names_it(self, tmp_path, capsys, flag, value):
        src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_pgm(src, np.zeros((8, 8), dtype=np.uint8))
        argv = ["preprocess", str(src), "--out", str(out), f"{flag}={value}"]
        assert main(argv + ["--sample-augment"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} ")
        assert not out.exists()
        assert main(argv) == 0  # the sampling flags are read only with --sample-augment

    def test_sampling_flags_at_their_limits(self, tmp_path):
        img = np.zeros((6, 8), dtype=np.uint8)
        img[:, 0] = 9
        src = tmp_path / "in.pgm"
        write_pgm(src, img)
        fixed = ["--max-rotate", "0", "--max-shift=-0"]
        for prob, want in (("0", img), ("1", np.fliplr(img))):
            out = tmp_path / f"p{prob}.pgm"
            assert main(["preprocess", str(src), "--out", str(out), "--sample-augment",
                         "--hflip-prob", prob, *fixed]) == 0
            assert (read_pgm(out) == want).all()

    def test_hflip_only(self, tmp_path):
        img = np.zeros((4, 6), dtype=np.uint8)
        img[:, 0] = 9
        src = tmp_path / "in.pgm"
        out = tmp_path / "out.pgm"
        write_pgm(src, img)
        assert main(["preprocess", str(src), "--hflip", "--out", str(out)]) == 0
        assert (read_pgm(out) == np.fliplr(img)).all()

    @pytest.mark.parametrize(
        "flags",
        [["--shift", "1e300,0"], ["--shift=0,-1e300", "--rotate", "30"]]
        + [["--sample-augment", "--max-shift", "1e300", "--seed", seed] for seed in ("1", "2", "3")],
    )
    def test_far_shift_writes_a_black_film_without_warnings(self, tmp_path, capsys, flags):
        src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_pgm(src, np.full((12, 20), 200, dtype=np.uint8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["preprocess", str(src), *flags, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        got = read_pgm(out)
        assert got.shape == (12, 20) and not got.any()

    @pytest.mark.parametrize("w, h", [(MAX_SIDE + 1, 1), (1, MAX_SIDE + 1)])
    def test_film_side_over_the_cap_exits_2(self, tmp_path, capsys, w, h):
        src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
        src.write_bytes(b"P5\n%d %d\n255\n" % (w, h) + bytes(w * h))
        assert main(["preprocess", str(src), "--clahe", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {w}x{h} image has a side over {MAX_SIDE} pixels\n"
        assert not out.exists()

    @pytest.mark.parametrize("maxval", [15, 254, 256])
    def test_pgm_maxval_other_than_255_exits_2(self, tmp_path, capsys, maxval):
        src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
        src.write_bytes(b"P5\n2 1\n%d\n\xff\x07" % maxval)
        assert main(["preprocess", str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: PGM maxval must be 255, got {maxval}\n"
        assert not out.exists()


# bytes that stress decoding and CSV parsing: NUL, invalid UTF-8, a lone
# surrogate, a BOM, line and field separators, quotes and extreme numbers
AWKWARD = (b"\x00", b"\xff\xfe", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\r", b"\n", b"\x0c",
           b"\xc2\x85", b"\xe2\x80\xa8", b'"', b",", b" ", b"nan", b"1e309", b"-0", b"99999999999")


def fuzzed(valid: bytes):
    """Random bytes, or ``valid`` truncated anywhere with awkward or random
    bytes spliced in."""

    @st.composite
    def edited(draw):
        data = valid[: draw(st.integers(0, len(valid)))]
        for _ in range(draw(st.integers(0, 4))):
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(st.sampled_from(AWKWARD) | st.binary(max_size=3)) + data[at:]
        return data

    return st.binary(max_size=300) | edited()


def small_pgm():
    return st.builds(
        lambda w, h, seed: b"P5\n%d %d\n255\n" % (w, h) + random.Random(seed).randbytes(w * h),
        st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1),
    )


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def put(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


class TestFuzz:
    """Any bytes in any input file end in a documented exit code, never in
    an escaping exception."""

    @given(fuzzed(GT_TEXT.encode()), fuzzed(THREE_BOX_PREDS.encode()))
    def test_score(self, fuzz_dir, gt, preds):
        argv = ["score", put(fuzz_dir / "gt.csv", gt), put(fuzz_dir / "preds.csv", preds)]
        assert main(argv + ["--out", str(fuzz_dir / "report.json")]) in (0, 1, 2)

    @given(fuzzed(THREE_BOX_PREDS.encode()), st.sampled_from(("hard", "soft-linear", "soft-gaussian")))
    def test_nms(self, fuzz_dir, preds, mode):
        argv = ["nms", put(fuzz_dir / "preds.csv", preds), "--mode", mode]
        assert main(argv + ["--out", str(fuzz_dir / "kept.csv")]) in (0, 1, 2)

    @given(fuzzed(b"patientId,truth,pred\np1,1,1\np2,0,1\np3,1,0\n"))
    def test_classify(self, fuzz_dir, labels):
        argv = ["classify", put(fuzz_dir / "labels.csv", labels)]
        assert main(argv + ["--out", str(fuzz_dir / "metrics.json")]) in (0, 1, 2)

    @given(st.one_of(
        st.tuples(st.just("score"), fuzzed(GT_TEXT.encode()), fuzzed(THREE_BOX_PREDS.encode())),
        st.tuples(st.just("nms"), fuzzed(THREE_BOX_PREDS.encode())),
        st.tuples(st.just("classify"), fuzzed(b"patientId,truth,pred\np1,1,1\np2,0,1\np3,1,0\n")),
    ))
    def test_malformed_tables_name_the_line(self, fuzz_dir, case):
        command, *inputs = case
        argv = [command, *(put(fuzz_dir / f"table{i}.csv", data) for i, data in enumerate(inputs))]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(fuzz_dir / "out")])
        assert code != 2 or err.getvalue().startswith("error: line "), err.getvalue()

    @given(fuzzed(b"a\nb\nc\nd\n"))
    def test_folds(self, fuzz_dir, ids):
        argv = ["folds", put(fuzz_dir / "ids.txt", ids), "--k", "2"]
        assert main(argv + ["--out", str(fuzz_dir / "folds.csv")]) in (0, 1, 2)

    @given(small_pgm().flatmap(fuzzed) | small_pgm(), st.booleans())
    def test_preprocess(self, fuzz_dir, pgm, augment):
        argv = ["preprocess", put(fuzz_dir / "in.pgm", pgm), "--clahe", "--tiles", "2x2", "--resize", "8"]
        argv += ["--rotate", "7", "--hflip"] if augment else []
        assert main(argv + ["--out", str(fuzz_dir / "out.pgm")]) in (0, 1, 2)


def past_the_cap(cap: int, factor: int = 1):
    """Pairs (a, b) with a * b * factor just or far above ``cap``."""
    return st.builds(
        lambda a, extra: (a, cap // (a * factor) + 1 + extra),
        st.integers(1, 2 * cap), st.integers(0, 1) | st.integers(0, 2 * cap),
    )


def run_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestFuzzSizeFlags:
    """Each flag that sizes an allocation, on both sides of its cap: values
    under the cap are kept small enough to run at once, and values past it
    exit 2 with the cap's message before anything is allocated."""

    @given(st.integers(-2, 40) | st.integers(8193, 2**40))
    def test_resize(self, fuzz_dir, n):
        src = put(fuzz_dir / "film.pgm", b"P5\n3 2\n255\n" + bytes(range(6)))
        code, err = run_main(["preprocess", src, f"--resize={n}", "--out", str(fuzz_dir / "out.pgm")])
        if n * n > MAX_RESIZE_PIXELS:
            assert (code, err) == (2, f"error: output size {n}x{n} exceeds {MAX_RESIZE_PIXELS} pixels\n")
        else:
            assert code == (0 if n >= 1 else 2), err

    @given(st.tuples(st.integers(-1, 20), st.integers(-1, 20)) | past_the_cap(MAX_CLAHE_TILES))
    def test_tiles(self, fuzz_dir, tiles):
        tx, ty = tiles
        src = put(fuzz_dir / "film.pgm", b"P5\n16 16\n255\n" + bytes(range(256)))
        argv = ["preprocess", src, "--clahe", f"--tiles={tx}x{ty}", "--out", str(fuzz_dir / "out.pgm")]
        code, err = run_main(argv)
        if tx * ty > MAX_CLAHE_TILES:
            assert (code, err) == (2, f"error: tile grid {tx}x{ty} exceeds {MAX_CLAHE_TILES} tiles\n")
        else:
            assert code == (0 if 1 <= tx <= 16 and 1 <= ty <= 16 else 2), err

    @given(st.one_of(
        st.tuples(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), st.lists(st.floats(), min_size=1, max_size=3)),
        st.integers(1, 40).flatmap(lambda n: st.tuples(
            past_the_cap(MAX_ANCHORS, 3 * n), st.lists(st.floats(0.5, 64), min_size=n, max_size=n))),
    ))
    def test_grid_and_scales(self, fuzz_dir, case):
        (w, h), scales = case
        per_cell = 3 * len(scales)  # three default ratios per scale
        code, err = run_main(["anchors", f"--grid={w}x{h}", "--scales=" + ",".join(map(repr, scales)),
                              "--out", str(fuzz_dir / "anchors.csv")])
        if w * h * per_cell > MAX_ANCHORS:
            assert (code, err) == (2, f"error: {w}x{h} cells of {per_cell} anchors exceed {MAX_ANCHORS} anchors\n")
        else:
            assert code in (0, 2) and (code == 0) == (err == ""), err


# any finite float: both zeros, the least subnormals and values whose sum or
# double overflows included
REALS = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308)) | st.floats(allow_nan=False, allow_infinity=False)
TINY_PGM = b"P5\n4 3\n255\n" + bytes(range(0, 240, 20))


def real_flags(**draws):
    """``--name=v`` arguments, one per keyword whose strategy draws a real or
    a tuple or list of them, comma-joined; a flag may be left out."""
    def arg(name, value):
        return f"--{name.replace('_', '-')}=" + ",".join(map(repr, value if isinstance(value, (tuple, list)) else [value]))

    return st.fixed_dictionaries({name: st.none() | draw for name, draw in draws.items()}).map(
        lambda drawn: [arg(name, value) for name, value in drawn.items() if value is not None])


def assert_clean_exit(argv):
    """``argv`` exits 0 with nothing on stderr or 2 with one error line, and
    raises no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run_main(argv)
    if code == 0:
        assert err == ""
    else:
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


class TestFuzzRealFlags:
    """Every real-valued flag, from the least subnormal to the largest finite
    float, ends in exit 0 or in exit 2 with one error line, never in a
    warning or a traceback."""

    @given(real_flags(clip=REALS))
    def test_clahe(self, fuzz_dir, flags):
        src = put(fuzz_dir / "film.pgm", TINY_PGM)
        assert_clean_exit(["preprocess", src, "--clahe", "--tiles=2x2", *flags, "--out", str(fuzz_dir / "out.pgm")])

    @given(real_flags(rotate=REALS, shift=st.tuples(REALS, REALS)))
    def test_augment(self, fuzz_dir, flags):
        src = put(fuzz_dir / "film.pgm", TINY_PGM)
        assert_clean_exit(["preprocess", src, *flags, "--out", str(fuzz_dir / "out.pgm")])

    @given(real_flags(max_rotate=REALS, max_shift=REALS, hflip_prob=REALS), st.integers(0, 3))
    def test_sampled_augment(self, fuzz_dir, flags, seed):
        src = put(fuzz_dir / "film.pgm", TINY_PGM)
        assert_clean_exit(["preprocess", src, "--sample-augment", f"--seed={seed}", *flags,
                           "--out", str(fuzz_dir / "out.pgm")])

    @given(real_flags(iou=REALS, sigma=REALS, score_cut=REALS), st.sampled_from(("hard", "soft-linear", "soft-gaussian")))
    def test_nms(self, fuzz_dir, flags, mode):
        src = put(fuzz_dir / "preds.csv", THREE_BOX_PREDS.encode())
        assert_clean_exit(["nms", src, "--mode", mode, *flags, "--out", str(fuzz_dir / "kept.csv")])

    @given(real_flags(base_size=REALS, stride=REALS, scales=st.lists(REALS, min_size=1, max_size=3),
                      ratios=st.lists(REALS, min_size=1, max_size=3)))
    def test_anchors(self, fuzz_dir, flags):
        assert_clean_exit(["anchors", "--grid=2x2", *flags, "--out", str(fuzz_dir / "anchors.csv")])


@pytest.mark.parametrize("flags", [["--clahe", "--clip", "1e308"], ["--rotate", "45", "--shift=1.7e308,-1.7e308"]])
def test_extreme_real_flags_warn_nothing_in_a_fresh_process(tmp_path, flags):
    # a fresh interpreter with every RuntimeWarning an error, as a strict caller runs it
    src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
    write_pgm(src, np.full((12, 20), 200, dtype=np.uint8))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", "import sys; from cxrdet.cli import main; sys.exit(main())",
         "preprocess", str(src), *flags, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cxrdet.__file__))},
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert read_pgm(out).shape == (12, 20)


def test_one_process_parser_answers_as_fresh_processes(tmp_path):
    # main builds its parser once per process; calls after an argparse error
    # and across subcommands print and exit as each would in a process of its own
    gt, preds, labels = tmp_path / "gt.csv", tmp_path / "preds.csv", tmp_path / "labels.csv"
    gt.write_text(GT_TEXT)
    preds.write_text(THREE_BOX_PREDS)
    labels.write_text("patientId,truth,pred\np1,1,1\np2,0,1\n")
    calls = [
        ["score", str(gt), str(preds)],
        ["nms", str(preds), "--mode", "bogus"],
        ["nms", str(preds), "--mode", "soft-linear"],
        ["score", str(gt), str(preds), "--thresholds", "0.5", "--inclusive-iou"],
        ["classify", str(labels)],
        ["anchors", "--grid=2"],
        ["folds", str(tmp_path / "missing.txt")],
        ["anchors", "--grid=1x1", "--scales=8"],
    ]
    in_process = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        in_process.append((code, out.getvalue(), err.getvalue()))
    fresh = []
    for argv in calls:
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from cxrdet.cli import main; sys.exit(main())", *argv],
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cxrdet.__file__))},
            capture_output=True, text=True, timeout=60,
        )
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert in_process == fresh
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 0, 2, 1, 0]
    assert cli._parser() is cli._parser() and cli.build_parser() is not cli.build_parser()
