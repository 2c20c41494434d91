"""Run-to-run spread of the end-to-end metrics against their bounds.

    python3 bench/spread.py [--workloads a,b] [--seeds 1-10]

Runs ``bench/run.py`` for ``run_seconds`` once per seed and workload, one
run at a time, and prints for every end-to-end metric its median and the
distance between its first and third quartile as a share of the median,
next to a third of the metric's bound in BENCHMARK.json, and the same
spread of the times as measured, before they are put at reference speed.
The runs' last lines go to ``bench/results/spread-<time>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("a spread needs at least two seeds")

    runs = {}
    for name in args.workloads.split(","):
        runs[name] = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["wall_s"] = time.perf_counter() - t0
            record = json.loads((BENCH / "results" / f"{name}-seed{seed}-trace0.json").read_text())
            result["measured"] = record["measured"]["end_to_end"]
            runs[name].append(result)
            print(f"{name} seed {seed}: {result['wall_s']:.1f} s, correct={result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)

    ok = True
    for name, results in runs.items():
        print(f"\n{name}: {len(results)} runs, {sum(r['wall_s'] for r in results):.0f} s, "
              f"failed shares {sorted({r['failed'] / r['attempted'] for r in results})}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            spread = stats.relative_iqr(values)
            measured = stats.relative_iqr([r["measured"][metric["name"]]["value"] for r in results])
            steady = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            ok &= steady and all(r["correct"] for r in results)
            print(f"  {metric['name']:18s} median {statistics.median(values):12.4f} {metric['unit']:9s}"
                  f" spread {spread:7.2%}  bound/3 {metric['bound'] / 3:6.2%}  {'ok' if steady else 'WIDE'}"
                  f"  (as measured {measured:7.2%})")
    out = BENCH / "results" / f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": spec["run_seconds"], "seeds": args.seeds, "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
