"""soilspec benchmark: one run of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and their bounds are listed in BENCHMARK.json at the
checkout root. The run builds its inputs from the seed, runs the
workload in a fresh worker process (so the worker's peak RSS is the
workload's own), checks the outputs, and prints one JSON object as the
last line of stdout. Times are seconds at nominal CPU speed (see
speed.py), so that runs taken minutes apart on a shared machine compare:

* ``--trace 0``: the end-to-end metrics. ``setup_s`` is the median over
  several fresh interpreters of ``import soilspec`` +
  ``load_bundled_3j()`` + ``reference_spectrum()``.
* ``--trace 1``: the per-layer metrics, from traced passes alternating
  with untraced ones.

The checkout's ``src`` is put on ``PYTHONPATH``; the run fails without
printing a result when it is missing. Scratch files live under
``.perfbench-work/`` in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0

def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    began = perf_counter()

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    src = root / "src"
    if not (src / "soilspec" / "__init__.py").is_file():
        return fail(f"no soilspec package under {src}; run from the root of a checkout")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = dict(os.environ, PYTHONPATH=str(src))

    metrics: dict[str, float] = {}
    if not args.trace:
        samples = []
        for _ in range(SETUP_SAMPLES):
            probe = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], env=env, cwd=root,
                                   capture_output=True, text=True, timeout=60)
            if probe.returncode != 0:
                return fail(f"setup probe failed: {probe.stderr.strip()}")
            samples.append(float(probe.stdout))
        metrics["setup_s"] = statistics.median(samples)

    (root / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench-work"))
    try:
        cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
               str(args.seconds), str(args.trace), str(work)]
        try:
            proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True,
                                  timeout=TIME_LIMIT_S - (perf_counter() - began))
        except subprocess.TimeoutExpired:
            return fail("worker timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        return fail(f"worker exited {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics.update(out["metrics"])

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not produced: {missing}")
    print(json.dumps({
        "correct": out["failed"] == 0 and out["attempted"] > 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
