"""Self-check of the harness's own statistics and tracing.

    python3 bench/selfcheck.py

Checks the tail rule (at least ten ops beyond the reported percentile, no
tail below forty ops, never below the median), the set-up sampling (one
fresh-interpreter import plus the one-time work per sample, each with the
reference kernel's time beside it, median reported), and that two traced runs with the same seed give identical
per-layer counts and every per-layer metric BENCHMARK.json names. Exits 0
when all hold.
"""

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
failures = []


def expect(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def check_tail():
    rng = random.Random(7)
    expect(stats.tail([1.0] * (stats.TAIL_MIN_OPS - 1)) is None, "no tail below 40 ops")
    bad = []
    for n in range(stats.TAIL_MIN_OPS, 400, 7):
        distinct = [rng.lognormvariate(0, 0.5) for _ in range(n)]
        tied = [float(rng.randrange(3)) for _ in range(n)]
        for values in (distinct, tied):
            value, pct = stats.tail(values)
            if value < statistics.median(values) or sum(v >= value for v in values) < 11 or not 50 <= pct < 100:
                bad.append(n)
        if sum(v > stats.tail(distinct)[0] for v in distinct) != 10:
            bad.append(n)
    expect(not bad, f"tail has ten ops beyond it, none more, and is never below the median {bad}")
    expect(stats.tail([5.0] * 40) == (5.0, 75.0), "40 equal ops: the tail is the 75th percentile and equals the median")


class SleepyWorkload:
    """Stands in for a workload whose one-time work takes a known time."""

    work_s = 0.02

    def __init__(self):
        self.calls = 0

    def prepare(self, api):
        self.calls += 1
        time.sleep(self.work_s)


def check_setup_sampling():
    sys.path.insert(0, str(BENCH))
    import reference
    import run

    fake = SleepyWorkload()
    imports = [run.import_seconds() for _ in range(3)]
    expect(all(0.0 < s < 10.0 for s in imports), f"fresh-interpreter imports take {[round(s, 3) for s in imports]} s")
    samples = run.sample_setup(fake, None, samples=5)
    expect(len(samples) == 5 and fake.calls == 5, "one prepare call per set-up sample")
    expect(all(s >= fake.work_s for s, _ in samples), "every sample holds the one-time work")
    expect(all(s - fake.work_s < 10.0 for s, _ in samples), "every sample holds one import")
    expect(all(0.0 < k < 1.0 for _, k in samples), "every sample has the reference kernel's time beside it")
    expect(run.at_reference_speed(0.3, 2 * reference.REFERENCE_S) == 0.15,
           "a host at half the reference speed has its times halved")
    odd = [0.2, 0.21, 5.0, 0.19, 0.2]
    expect(statistics.median(odd) == 0.2, "one slow interpreter start does not move setup_s")


def traced(workload, seed):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.01", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_traced_counts(workloads):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    for workload in workloads:
        first, second = traced(workload, 3), traced(workload, 3)
        expect(first["correct"] and second["correct"], f"{workload}: traced runs check out")
        expect(list(first["metrics"]) == names, f"{workload}: traced run emits every per-layer metric")
        counts = [n for n, m in first["metrics"].items() if m["unit"] != "ms"]
        differ = [n for n in counts if first["metrics"][n] != second["metrics"][n]]
        expect(not differ, f"{workload}: {len(counts)} per-layer counts identical across two traced runs {differ}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_tail()
    check_setup_sampling()
    check_traced_counts([w["name"] for w in spec["workloads"]])
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
