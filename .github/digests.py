"""Print warm-up and CLI run digests for one ``src/`` tree, as one JSON object.

    python .github/digests.py SRC

Imports ``cxrdet`` from ``SRC`` and the workloads from this checkout's
``bench/`` (read, never changed). Every input of the four workloads runs
once at seeds 1 and 2 in a temporary directory; its output must pass the
workload's own check, and is fingerprinted as a warm-up op's is. Keys are
``workload/seed/input``; a value is the digest, or ``check failed: ...``
when the check fails.

Then each command of ``CLI_RUNS`` runs as ``cxrdet`` in a fresh process
from ``SRC``, in the directory of that seed's workload inputs, beside the
broken copies ``write_broken`` makes of them, so reader errors are pinned
too, and the reshaped copies ``write_reshaped`` makes, so repeated rows and
prediction-only images are pinned at full scale. Keys are
``cli/seed/command``; a value is the exit code and one digest of stdout,
stderr and the ``--out`` file's bytes. Two trees whose objects are equal
produce the same bytes on every benchmark input and CLI run::

    python .github/digests.py src > head.json
    python .github/digests.py "$BASE/src" > base.json
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)

# (workload whose input files a command reads, the command); paths are
# relative to that workload's directory, and each command writes out.*
PREPROCESS_FLAGS = ("--rotate 13 --shift 5.5,-3 --hflip --resize 300", "--sample-augment --seed 7",
                    "--clahe --resize 512", "--clahe --clip inf")
CLI_RUNS = (
    ("score-leaderboard", "score gt.csv preds.csv --out out.json"),
    ("score-leaderboard", "score gt.csv preds.csv --inclusive-iou --thresholds 0.3,0.5,0.9 --out out.json"),
    ("score-leaderboard", "score gt.csv preds.csv --thresholds 0.05:0.95:0.05 --out out.json"),
    # over the reshaped copies write_reshaped makes; the split and the line-end runs' digests equal the first run's
    ("score-leaderboard", "score gt.csv preds-split.csv --out out.json"),
    ("score-leaderboard", "score gt-subset.csv preds.csv --out out.json"),
    ("score-leaderboard", "score gt-cr.csv preds-crlf.csv --out out.json"),
    # one image of 1 000 predictions and 3 boxes: 3 000 pairs, more than one overlap pass holds
    ("nms-raw", "score gt-shard.csv shard0.csv --out out.json"),
    *(("nms-raw", f"nms shard{s}.csv --mode {mode} --out out.csv")
      for s in (0, 1) for mode in ("hard", "soft-linear", "soft-gaussian")),
    *(("detect-image", f"preprocess film{s}.pgm {flags} --out out.pgm") for s in (0, 1) for flags in PREPROCESS_FLAGS),
    ("detect-image", "anchors --grid 7x5 --scales 1,2 --out out.csv"),
    # the workloads' anchor spec, and a base size whose corners overflow: that run exits 2 with Box's error
    ("detect-image", "anchors --grid 32x32 --scales 2,4,8 --out out.csv"),
    ("detect-image", "anchors --base-size 1e308 --scales 4 --grid 3x2 --out out.csv"),
    # reader errors, over the broken copies: each exits 2 and leaves out.* unwritten
    ("score-leaderboard", "score gt.csv bad-token.csv --out out.json"),
    ("score-leaderboard", "score gt.csv bad-token-crlf.csv --out out.json"),
    ("score-leaderboard", "score bad-target.csv preds.csv --out out.json"),
    ("nms-raw", "nms bad-confidence.csv --mode soft-gaussian --out out.csv"),
)
RUN_CLI = "import sys; from cxrdet.cli import main; sys.exit(main())"


def write_broken(work: Path, name: str) -> None:
    """Write into ``work`` the broken copies of workload ``name``'s input files
    there. Each differs from its source in one value of one single-line row."""
    if name == "score-leaderboard":
        preds = (work / "preds.csv").read_text().split("\n")
        # the first row from the middle on that holds detections: its x becomes non-numeric
        i = next(i for i in range(len(preds) // 2, len(preds)) if preds[i].split(",")[1])
        pid, string = preds[i].split(",")
        conf, _, rest = string.split(" ", 2)
        preds[i] = f"{pid},{conf} abc {rest}"
        (work / "bad-token.csv").write_text("\n".join(preds), newline="")
        (work / "bad-token-crlf.csv").write_text("\r\n".join(preds), newline="")
        gt = (work / "gt.csv").read_text().split("\n")
        i = len(gt) // 2
        gt[i] = gt[i][: gt[i].rindex(",")] + ",2"
        (work / "bad-target.csv").write_text("\n".join(gt), newline="")
    elif name == "nms-raw":
        shard = (work / "shard0.csv").read_text().split("\n")
        pid, string = shard[-2].split(",")  # the last row; the text ends in a line end
        shard[-2] = f"{pid},1.5 {string.split(' ', 1)[1]}"
        (work / "bad-confidence.csv").write_text("\n".join(shard), newline="")


def write_reshaped(work: Path, name: str) -> None:
    """Write into ``work`` the well-formed, reshaped copies of workload
    ``name``'s input files there. ``preds-split.csv`` keeps each row's first
    quintuple in place and moves the rest of a row holding two or more to a
    new row of the same id at the end of the file; repeated rows concatenate
    in file order, so it scores as ``preds.csv`` does. ``gt-subset.csv``
    drops every row of every tenth ground-truth image, which leaves those
    images with predictions alone. ``preds-crlf.csv`` ends every line with
    CRLF and ``gt-cr.csv`` with a lone CR, so the line splitter meets both
    line ends at full scale; they score as the LF files do. For ``nms-raw``,
    ``gt-shard.csv`` holds, for each image of ``shard0.csv``, the boxes of
    its first three detections as target-1 rows."""
    if name == "nms-raw":
        rows = ["patientId,x,y,width,height,Target"]
        for row in (work / "shard0.csv").read_text().splitlines()[1:]:
            pid, string = row.split(",")
            tokens = string.split()
            rows += [f"{pid},{','.join(tokens[k + 1 : k + 5])},1" for k in range(0, 15, 5)]
        (work / "gt-shard.csv").write_text("\n".join(rows) + "\n")
    if name != "score-leaderboard":
        return
    rows, moved = (work / "preds.csv").read_text().splitlines(), []
    for i, row in enumerate(rows[1:], 1):
        pid, string = row.split(",")
        tokens = string.split()
        if len(tokens) > 5:
            rows[i] = f"{pid},{' '.join(tokens[:5])}"
            moved.append(f"{pid},{' '.join(tokens[5:])}")
    (work / "preds-split.csv").write_text("\n".join(rows + moved) + "\n")
    rows = (work / "gt.csv").read_text().splitlines()
    ids = list(dict.fromkeys(row.split(",")[0] for row in rows[1:]))
    dropped = set(ids[9::10])
    kept = [row for row in rows[1:] if row.split(",")[0] not in dropped]
    (work / "gt-subset.csv").write_text("\n".join(rows[:1] + kept) + "\n")
    (work / "preds-crlf.csv").write_text((work / "preds.csv").read_text().replace("\n", "\r\n"), newline="")
    (work / "gt-cr.csv").write_text((work / "gt.csv").read_text().replace("\n", "\r"), newline="")


def cli_digest(src: Path, work: Path, command: str) -> str:
    """Run ``cxrdet command`` from ``src`` in ``work``: its exit code and one
    digest of stdout, stderr and the bytes of the file named by ``--out``."""
    argv = command.split()
    out = work / argv[argv.index("--out") + 1]
    out.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], cwd=work, env=env, capture_output=True)
    written = out.read_bytes() if out.exists() else None
    return f"exit {done.returncode} " + hashlib.sha1(repr((done.stdout, done.stderr, written)).encode()).hexdigest()


def digests(src: Path) -> dict:
    sys.dont_write_bytecode = True  # leave no caches in bench/, tests/ or src/
    sys.path[:0] = [str(src), str(ROOT / "bench"), str(ROOT / "tests")]
    import cxrdet
    from run import load_api
    from workloads import WORKLOADS, CheckFailed

    if Path(cxrdet.__file__).resolve().parent != src / "cxrdet":
        raise SystemExit(f"digests: imported cxrdet from {cxrdet.__file__}, not from {src}")
    api = load_api()
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, wl_class in WORKLOADS.items():
            for seed in SEEDS:
                work = Path(tmp) / f"{name}-{seed}"
                work.mkdir()
                workload = wl_class(api, seed, work)
                workload.prepare(api)
                write_broken(work, name)
                write_reshaped(work, name)
                for i in range(workload.inputs):
                    result = workload.op(api, i)
                    try:
                        workload.check(i, result)
                        found[f"{name}/{seed}/{i}"] = workload.digest(i, result)
                    except CheckFailed as exc:
                        found[f"{name}/{seed}/{i}"] = f"check failed: {exc}"
        for seed in SEEDS:
            for name, command in CLI_RUNS:
                found[f"cli/{seed}/{command}"] = cli_digest(src, Path(tmp) / f"{name}-{seed}", command)
    return found


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.splitlines()[2].strip())
    print(json.dumps(digests(Path(sys.argv[1]).resolve()), indent=1, sort_keys=True))
