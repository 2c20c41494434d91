import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cxrdet import (
    Box,
    Detection,
    PredRecord,
    read_pgm,
    read_predictions,
    read_report,
    write_pgm,
    write_predictions,
)
from cxrdet.cli import main

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

    def test_bad_threshold_spec_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["score", "a", "b", "--thresholds", "0.9:0.1:0.1"])
        assert exc.value.code == 2


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

    def test_bad_mode_parameter_exits_2(self, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text(EMPTY_PREDS)
        assert main(["nms", str(preds), "--iou", "1.5"]) == 2

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


class TestAnchors:
    def test_default_grid_emits_nine_anchors(self, tmp_path):
        out = tmp_path / "anchors.csv"
        assert main(["anchors", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x_min,y_min,x_max,y_max"
        assert len(lines) == 1 + 9

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

    def test_too_many_folds_exits_2(self, tmp_path):
        ids = tmp_path / "ids.txt"
        ids.write_text("p1\np2\n")
        assert main(["folds", str(ids), "--k", "5"]) == 2


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

    def test_hflip_only(self, tmp_path):
        img = np.zeros((4, 6), dtype=np.uint8)
        img[:, 0] = 9
        src = tmp_path / "in.pgm"
        out = tmp_path / "out.pgm"
        write_pgm(src, img)
        assert main(["preprocess", str(src), "--hflip", "--out", str(out)]) == 0
        assert (read_pgm(out) == np.fliplr(img)).all()


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

    @given(fuzzed(b"a\nb\nc\nd\n"))
    def test_folds(self, fuzz_dir, ids):
        argv = ["folds", put(fuzz_dir / "ids.txt", ids), "--k", "2"]
        assert main(argv + ["--out", str(fuzz_dir / "folds.csv")]) in (0, 1, 2)

    @given(small_pgm().flatmap(fuzzed) | small_pgm(), st.booleans())
    def test_preprocess(self, fuzz_dir, pgm, augment):
        argv = ["preprocess", put(fuzz_dir / "in.pgm", pgm), "--clahe", "--tiles", "2x2", "--resize", "8"]
        argv += ["--rotate", "7", "--hflip"] if augment else []
        assert main(argv + ["--out", str(fuzz_dir / "out.pgm")]) in (0, 1, 2)
