"""The benchmark's tracer wraps the names ``cxrdet.cli`` looks up. If a
command stops calling one of them, its counters fall silent, so one small
``score`` and one ``nms`` run traced in a fresh process must still count
what they did."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cxrdet

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import json, sys
sys.path[:0] = sys.argv[1:4]
import tracing
from run import load_api

api = load_api()
tracer = tracing.Tracer()
tracing.install(tracer, api)
codes = [api.cli_main(["score", "gt.csv", "preds.csv", "--out", "report.json"]),
         api.cli_main(["nms", "preds.csv", "--out", "kept.csv"])]
print(json.dumps({"codes": codes, "counts": tracer.counts, "spans": sorted({s[0] for s in tracer.spans})}))
"""

GT = """patientId,x,y,width,height,Target
p1,10,10,20,20,1
p1,40,40,8,8,1
p2,,,,,0
p3,0,0,5,5,1
"""

# p1 spans two rows (4 detections), p2 has no ground-truth box, p3 no
# prediction and p4 no ground-truth row: 4 images, 4 x 2 pairs, 7 detections
PREDS = """patientId,PredictionString
p1,0.9 10 10 20 20 0.8 11 11 20 20 0.3 40 40 8 8
p2,0.5 0 0 4 4 0.4 1 1 4 4
p1,0.7 100 100 5 5
p4,0.6 1 2 3 4
"""


def test_tracer_counts_a_score_and_an_nms_run(tmp_path):
    (tmp_path / "gt.csv").write_text(GT)
    (tmp_path / "preds.csv").write_text(PREDS)
    src = os.path.dirname(os.path.dirname(cxrdet.__file__))
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, src, str(ROOT / "bench"), str(ROOT / "tests")],
        cwd=tmp_path, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    counts = result["counts"]
    assert counts["metrics.images_scored"] == 4
    assert counts["metrics.pairs"] == 8
    assert counts["nms.dets_in"] == 7
    assert counts["nms.dets_kept"] > 0
    assert {"cli.main", "formats.read_ground_truth", "metrics.score_dataset", "formats.write_report",
            "formats.read_predictions", "formats.group_predictions", "nms.nms",
            "formats.write_predictions"} <= set(result["spans"])
