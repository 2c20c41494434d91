"""Print the benchmark's warm-up digests for one ``src/`` tree, as one JSON object.

    python .github/digests.py SRC

Imports ``cxrdet`` from ``SRC`` and the workloads from this checkout's
``bench/`` (read, never changed). Every input of the four workloads runs
once at seeds 1 and 2 in a temporary directory; its output must pass the
workload's own check, and is fingerprinted as a warm-up op's is. Keys are
``workload/seed/input``; a value is the digest, or ``check failed: ...``
when the check fails. Two trees whose objects are equal produce the same
bytes on every benchmark input::

    python .github/digests.py src > head.json
    python .github/digests.py "$BASE/src" > base.json
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)


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
                for i in range(workload.inputs):
                    result = workload.op(api, i)
                    try:
                        workload.check(i, result)
                        found[f"{name}/{seed}/{i}"] = workload.digest(i, result)
                    except CheckFailed as exc:
                        found[f"{name}/{seed}/{i}"] = f"check failed: {exc}"
    return found


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.splitlines()[2].strip())
    print(json.dumps(digests(Path(sys.argv[1]).resolve()), indent=1, sort_keys=True))
