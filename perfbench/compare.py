"""Summarise one result set, or compare two, against BENCHMARK.json bounds.

Usage, from the root of a checkout::

    python3 perfbench/compare.py BASE.jsonl            # spread of one set
    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Result sets are the JSON-lines files sweep.py writes. Each end-to-end
metric is summarised per workload by its median and quartiles over the
untraced runs; its spread is the interquartile distance as a share of
the median. With two sets each (metric, workload) row gets a verdict:

* ``unresolved``: either side's spread exceeds the metric's bound, and
  the runs of one side do not all read better (or all worse) than every
  run of the other;
* ``worse``: CHANGE's median is worse than BASE's by more than the bound;
* ``better``: CHANGE wins at least nine tenths of the runs paired by
  seed (ties count for neither) and the medians differ by more than
  BASE's interquartile distance;
* ``unchanged`` otherwise.

Per-layer medians from the traced runs of each workload follow its rows.
Exact counts (``.calls``, ``.files``, ``.bytes``, ``*_bytes``) must repeat
between the traced runs of one seed within a set; any that do not are
listed, and the exit code is 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: str) -> dict:
    """{(trace, workload): {metric: {(seed, repeat): value}}}

    ``repeat`` numbers the runs of one seed, so that the n-th run of a
    seed pairs with the n-th run of that seed in the other set.
    """
    out: dict = defaultdict(lambda: defaultdict(dict))
    repeats: dict = defaultdict(int)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            key = (rec["trace"], rec["workload"])
            run = (rec["seed"], repeats[key, rec["seed"]])
            repeats[key, rec["seed"]] += 1
            for name, m in rec["result"]["metrics"].items():
                out[key][name][run] = m["value"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: dict, change: dict, bound: float, lower_is_better: bool) -> str:
    # Costs: lower is better on both sides of every comparison below.
    sign = 1.0 if lower_is_better else -1.0
    a = {s: sign * v for s, v in base.items()}
    b = {s: sign * v for s, v in change.items()}
    qa1, ma, qa3 = quartiles(list(a.values()))
    mb = quartiles(list(b.values()))[1]
    if max(spread(list(base.values())), spread(list(change.values()))) > bound:
        if max(b.values()) < min(a.values()):
            return "better"
        if min(b.values()) > max(a.values()):
            return "worse"
        return "unresolved"
    if (mb - ma) / abs(ma) > bound:
        return "worse"
    pairs = a.keys() & b.keys()
    wins = sum(1 for r in pairs if b[r] < a[r])
    if pairs and wins >= 0.9 * len(pairs) and ma - mb > abs(qa3 - qa1):
        return "better"
    return "unchanged"


def count_mismatches(runs: dict) -> list[str]:
    """Exact counts that differ between traced runs of one seed."""
    bad = []
    for name, values in sorted(runs.items()):
        if not name.endswith((".calls", ".files", ".bytes", "_bytes")):
            continue
        by_seed = defaultdict(set)
        for (seed, _), v in values.items():
            by_seed[seed].add(v)
        bad += [f"{name} seed {seed}: {sorted(v)}" for seed, v in by_seed.items() if len(v) > 1]
    return bad


def fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main() -> int:
    if len(sys.argv) not in (2, 3):
        raise SystemExit(__doc__)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    sets = [load(p) for p in sys.argv[1:]]
    base = sets[0]
    change = sets[1] if len(sets) == 2 else None
    status = 0
    for w in spec["workloads"]:
        wl = w["name"]
        print(f"== {wl}")
        for m in spec["end_to_end"]:
            a = base[(0, wl)].get(m["name"])
            if not a:
                continue
            row = f"  {m['name']:<14} {m['unit']:<6} base {fmt(list(a.values()))}"
            if change is None:
                s = spread(list(a.values()))
                flag = "ok" if s <= m["bound"] / 3 else "WIDE" if s > m["bound"] else "near"
                row += f"  n={len(a)} spread {s:.4f} bound {m['bound']} {flag}"
            else:
                b = change[(0, wl)].get(m["name"])
                if not b:
                    continue
                v = verdict(a, b, m["bound"], m["better"] == "lower")
                row += f"  change {fmt(list(b.values()))}  {v}"
            print(row)
        layers_a = base[(1, wl)]
        layers_b = change[(1, wl)] if change is not None else {}
        for m in spec["per_layer"]:
            va = quartiles(list(layers_a[m["name"]].values()))[1] if m["name"] in layers_a else 0
            vb = quartiles(list(layers_b[m["name"]].values()))[1] if m["name"] in layers_b else None
            if not va and not vb:
                continue
            line = f"    {m['name']:<40} {va:.6g}"
            if vb is not None:
                delta = f" ({(vb - va) / va:+.1%})" if va else ""
                line += f" -> {vb:.6g}{delta}"
            print(f"{line} {m['unit']}")
        for path, runs in zip(sys.argv[1:], sets):
            traced = runs[(1, wl)]
            if not traced:
                continue
            n = len(next(iter(traced.values())))
            bad = count_mismatches(traced)
            print(f"    counts of {path}: " + (f"repeat over {n} traced run(s)" if not bad else
                                                 "DIFFER: " + "; ".join(bad)))
            status = status or int(bool(bad))
    return status


if __name__ == "__main__":
    sys.exit(main())
