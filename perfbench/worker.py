"""Run one workload in this fresh process and print its numbers as JSON.

Usage: worker.py WORKLOAD SEED SECONDS TRACE(0|1) WORK_DIR

With TRACE 1 the spans of the last traced pass are written to
``.perfbench-work/spans-<WORKLOAD>.json``.

Started by run.py from the checkout root, with ``PYTHONPATH`` pointing
at the checkout's ``src``. Every workload runs one untimed warm-up pass
first. Passes then repeat until SECONDS have elapsed, and at least
twice when traced. Times are in seconds at nominal speed (see speed.py).
With TRACE 0 every pass is untraced; with TRACE 1 untraced and traced
passes alternate, so the tracing overhead is measured in the same run.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import soilspec

from spans import SPAN_NAMES, Tracer
from workloads import WORKLOADS

# Span metrics reported per layer, as (span name, suffix).
SPAN_METRICS = [(n, "calls") for n in SPAN_NAMES] + [(n, "self_s") for n in SPAN_NAMES] + [
    ("pipeline.run_campaign", "s"),
    ("pipeline.load_campaign_dir", "s"),
    ("pipeline.write_campaign_dir", "s"),
    ("synth.synth_campaign", "s"),
]

# Numbers measured from outside the program; zero where a workload does
# not exercise them.
EXTRA_METRICS = (
    "pipeline.accepted_share",
    "pipeline.load_campaign_dir.files",
    "pipeline.load_campaign_dir.bytes",
    "pipeline.write_campaign_dir.files",
    "pipeline.write_campaign_dir.bytes",
    "cli.import_s",
    "cli.synth_s",
    "cli.campaign_s",
    "cli.campaign_json_bytes",
    "cli.output_bytes",
)

TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    """p50 and the highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    out = {"metrics.index_report.call_samples": n,
           "metrics.index_report.call_p50_us": 0.0,
           "metrics.index_report.call_tail_us": 0.0,
           "metrics.index_report.call_tail_pct": 0.0}
    if n == 0:
        return out
    ordered = sorted(latencies)
    out["metrics.index_report.call_p50_us"] = 1e6 * statistics.median(ordered)
    for pct in TAIL_PERCENTILES:
        rank = int(n * pct / 100.0)
        if n - rank >= 10:
            out["metrics.index_report.call_tail_us"] = 1e6 * ordered[min(rank, n - 1)]
            out["metrics.index_report.call_tail_pct"] = pct
            break
    return out


def layer_metrics(untraced, traced) -> tuple[dict[str, float], list[str]]:
    """Per-layer numbers of a traced run, and any count that did not repeat."""
    out: dict[str, float] = {}
    errors = []
    for name, suffix in SPAN_METRICS:
        key = f"{name}.{suffix}"
        values = [p.spans[key] for p in traced]
        if suffix == "calls":
            if len(set(values)) > 1:
                errors.append(f"{key} differs between traced passes: {values}")
            out[key] = values[0]
        else:
            out[key] = _median(values)
    jsc = out["cell.jsc_junction.calls"]
    out["cell.grid_reuse_share"] = traced[0].spans["cell.grid_reused"] / jsc if jsc else 0.0
    for key in EXTRA_METRICS:
        out[key] = _median([p.extra[key] for p in untraced if key in p.extra])
    out.update(latency_metrics([t for p in untraced for t in p.latencies]))
    out["trace.overhead_share"] = (
        _median([p.elapsed for p in traced]) / _median([p.elapsed for p in untraced]) - 1.0)
    out["machine.slowdown"] = _median([p.slowdown for p in untraced])
    out["machine.parallel_share"] = sum(p.parallel for p in untraced) / len(untraced)
    return out, errors


def main() -> int:
    name, seed, seconds, trace, work = sys.argv[1:]
    seed, seconds, trace, work = int(seed), float(seconds), trace == "1", Path(work)
    src = Path.cwd() / "src"
    if not Path(soilspec.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"soilspec imported from {soilspec.__file__}, not from {src}")

    workload = WORKLOADS[name](seed, work)
    tracer = Tracer() if trace else None
    passes = [workload.run_pass()]
    measured, traced = [], []
    last_spans = None
    start = perf_counter()
    # A traced run makes at least two traced passes, so that its counts
    # are checked to repeat even where one pass outlasts SECONDS.
    while len(measured) < 1 or len(traced) < 2 * trace or perf_counter() - start < seconds:
        measured.append(workload.run_pass())
        if tracer is not None:
            traced.append(workload.run_pass(tracer))
            last_spans, traced[-1].raw_spans = traced[-1].raw_spans, None
    passes += measured + traced
    if last_spans is not None:
        out = Path.cwd() / ".perfbench-work" / f"spans-{name}.json"
        out.write_text(json.dumps(last_spans), encoding="utf-8")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        metrics, errors = layer_metrics(measured, traced)
        for e in errors:
            print(f"check failed: {e}", file=sys.stderr)
        failed += len(errors)
    else:
        if workload.in_children:
            # The larger CLI child's own peak, median over passes: a maximum
            # over all children would grow with the number of passes.
            peak = _median([p.extra["peak_rss_mb"] for p in measured if "peak_rss_mb" in p.extra])
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "solve_s": _median([p.elapsed for p in measured]),
            "peak_rss_mb": peak,
            "success_rate": 1.0 - failed / attempted,
        }
    print(f"worker: {name} seed {seed}: {len(measured)} passes, slowdown "
          f"{_median([p.slowdown for p in measured]):.3f}, "
          f"{sum(p.parallel for p in measured)} parallel, {failed}/{attempted} failed",
          file=sys.stderr)
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
