"""cxrdet benchmark: one workload, one closed-loop caller, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, times set-up, runs one
untimed round whose outputs are checked against independent computations,
then runs whole rounds of timed ops until ``--seconds`` have passed; every
timed op's output must equal the checked one. A fixed reference kernel
(``reference.py``) is timed right before and right after every op and
every set-up sample, and the end-to-end times are given at reference
speed: each measured time times ``REFERENCE_S`` over the kernel's time
beside it. The last line of stdout is one JSON object: the end-to-end
metrics untraced, the per-layer metrics traced. The full result, with run metadata, goes to
``bench/results/<workload>-seed<N>-trace<T>.json`` and, when traced, the
spans beside it.
"""

import os
import sys

# BLAS and OpenMP get one thread; they read this when numpy is first imported
THREAD_CAPS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 11  # fresh-interpreter imports per run; setup_s is their median at reference speed
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cxrdet.cli; "
    "print(repr(time.perf_counter() - t))"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds():
    """Time ``import cxrdet.cli`` inside a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def sample_setup(workload, api, samples=SETUP_SAMPLES):
    """Set up ``samples`` times: a fresh-interpreter import plus the
    workload's one-time program work. Each sample is (the sum of the two,
    the reference kernel's wall time beside it)."""
    out = []
    for _ in range(samples):
        before = reference.measure()[0]
        imported = import_seconds()
        t0 = time.perf_counter()
        workload.prepare(api)
        taken = imported + time.perf_counter() - t0
        out.append((taken, (before + reference.measure()[0]) / 2))
    return out


def at_reference_speed(seconds, kernel_seconds):
    """A time measured beside a reference kernel run, rescaled to a host that
    runs the kernel in ``reference.REFERENCE_S``."""
    return seconds * reference.REFERENCE_S / kernel_seconds


def load_api():
    from cxrdet import anchors, cli, geometry, preprocess, roipool

    return types.SimpleNamespace(
        cli_main=cli.main,
        AnchorSpec=anchors.AnchorSpec,
        BoxDelta=anchors.BoxDelta,
        generate_anchors=anchors.generate_anchors,
        decode_box=anchors.decode_box,
        encode_box=anchors.encode_box,
        label_anchors=anchors.label_anchors,
        select_proposals=anchors.select_proposals,
        roi_max_pool=roipool.roi_max_pool,
        Box=geometry.Box,
        AugmentSpec=preprocess.AugmentSpec,
        augment=preprocess.augment,
        resize=preprocess.resize,
        scale_boxes=preprocess.scale_boxes,
    )


def run_metadata(args, attempted, failed):
    import numpy

    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_lines": src_lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_caps": THREAD_CAPS,
        "ops_attempted": attempted,
        "ops_failed": failed,
    }


def git_sha():
    """HEAD's commit id read from ``.git`` without running git; None in a
    checkout that is not a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run(args):
    from workloads import WORKLOADS, CheckFailed

    wl_class = WORKLOADS[args.workload]
    api = load_api()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, api)

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    phases = {"begin": time.perf_counter()}
    try:
        workload = wl_class(api, args.seed, work)
        phases["generate"] = time.perf_counter()
        setup = sample_setup(workload, api)
        phases["setup"] = time.perf_counter()

        attempted = failed = 0
        verified = {}
        correct = True
        problems = []

        def one_op(i):
            nonlocal attempted, failed
            attempted += 1
            gc.collect()
            if tracer is not None:
                tracer.op = attempted - 1
            before = reference.measure()
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = workload.op(api, i)
            except Exception as exc:  # an op that raises counts as failed, the run goes on
                failed += 1
                problems.append(f"op on input {i} raised {exc!r}")
                return None
            t1, c1 = time.perf_counter(), time.process_time()
            after = reference.measure()
            kernel = ((before[0] + after[0]) / 2, (before[1] + after[1]) / 2)
            return result, (t1 - t0, c1 - c0), kernel

        # warm-up round: untimed, and the outputs every later op must repeat
        for i in range(workload.inputs):
            done = one_op(i)
            if done is None:
                continue
            try:
                workload.check(i, done[0])
                verified[i] = workload.digest(i, done[0])
            except CheckFailed as exc:
                correct = False
                problems.append(f"input {i}: {exc}")

        times, kernels, images = [], [], 0
        start = phases["warm-up"] = time.perf_counter()
        while True:
            for i in range(workload.inputs):
                done = one_op(i)
                if done is None:
                    continue
                result, taken, kernel = done
                times.append(taken)
                kernels.append(kernel)
                images += workload.images_per_op
                if workload.digest(i, result) != verified.get(i):
                    correct = False
                    problems.append(f"input {i}: output differs from the checked output")
                del result, done
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases["timed"] = time.perf_counter()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not times:
        raise RuntimeError("no timed op succeeded: " + "; ".join(problems[:3]))
    raw_walls = [wall for wall, _ in times]
    raw_cpus = [cpu for _, cpu in times]
    walls = [at_reference_speed(wall, k) for (wall, _), (k, _) in zip(times, kernels)]
    cpus = [at_reference_speed(cpu, k) for (_, cpu), (_, k) in zip(times, kernels)]
    setups = [at_reference_speed(taken, k) for taken, k in setup]

    def summary(walls, cpus, setups):
        return {
            "images_per_s": {"value": images / sum(walls), "unit": "images/s"},
            "op_p50_ms": {"value": 1000.0 * statistics.median(walls), "unit": "ms"},
            "cpu_ms_per_image": {"value": 1000.0 * sum(cpus) / images, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }

    end_to_end = summary(walls, cpus, setups)
    tail = stats.tail(walls)
    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "meta": run_metadata(args, attempted, failed),
        "timed_ops": len(walls),
        "op_tail_ms": None if tail is None else {"value": 1000.0 * tail[0], "percentile": tail[1]},
        "op_ms": [1000.0 * w for w in walls],
        "setup_samples_s": setups,
        "reference_s": reference.REFERENCE_S,
        "measured": {
            "op_ms": [1000.0 * w for w in raw_walls],
            "op_cpu_ms": [1000.0 * c for c in raw_cpus],
            "kernel_ms": [1000.0 * k for k, _ in kernels],
            "setup_samples_s": [taken for taken, _ in setup],
            "setup_kernel_ms": [1000.0 * k for _, k in setup],
            "end_to_end": summary(raw_walls, raw_cpus, [taken for taken, _ in setup]),
        },
        "phase_s": {b: phases[b] - phases[a] for a, b in zip(phases, list(phases)[1:])},
        "end_to_end": end_to_end,
        "problems": problems,
    }
    if tracer is not None:
        record["per_layer"] = tracer.per_layer(attempted)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(results / f"{stem}-spans.json")
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {len(times)} timed ops, {failed}/{attempted} failed, "
          f"correct={correct}; full result in {(results / stem).relative_to(ROOT)}.json", file=sys.stderr)
    metrics = record["per_layer"] if tracer is not None else end_to_end
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    for needed in (ROOT / "src" / "cxrdet" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"bench: {needed.relative_to(ROOT)} is missing; run from a full checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
