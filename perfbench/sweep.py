"""Run the benchmark over several seeds and collect the result lines.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py OUT.jsonl [--seeds 1-10] [--trace 0|1]

Runs every workload in BENCHMARK.json for run_seconds per run, and
appends one JSON line per run to OUT.jsonl:
``{"workload", "seed", "trace", "result"}``, where ``result`` is the last
line run.py printed. Workloads alternate within each seed, so slow drift
of the machine spreads over all of them. Feed the file to compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    failures = 0
    for seed in args.seeds:
        for workload in (w["name"] for w in spec["workloads"]):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"sweep: {workload} seed {seed} exited {proc.returncode}", file=sys.stderr)
                failures += 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                     "result": result}) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
