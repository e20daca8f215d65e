"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Inputs are built from the seed through soilspec's public API; the
program sees only those inputs. A pass returns its wall time, how many
operations it attempted and how many failed, and the numbers the
per-layer report needs. A failed operation is an exception, a non-zero
exit, or a failed output check; checks run outside the timed region and
never abort the run:

* every report satisfies sratio == bsratio*ssratio and
  smratio == smr_soiled/smr_cleaned to 1e-12 relative;
* a seeded sample of reports agrees with :mod:`oracle` to 1e-9 relative,
  index by index;
* every pass's outputs equal those of the run's first pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime as dt
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

import soilspec
from soilspec import metrics, pipeline

import oracle
from spans import summarize
from speed import SpeedSampler

HERE = Path(__file__).resolve().parent

DATA = Path(soilspec.__file__).parent / "data"

# The cell full band is 300-1810 nm; the bundled reference covers
# 280-4000 nm, so generated grids start within 20 nm below 300 nm.
BAND_NM = (300.0, 1810.0)


@dataclasses.dataclass
class Pass:
    # Seconds at nominal speed (see speed.py).
    elapsed: float
    attempted: int
    failed: int
    # Mean speed-sample burst over the nominal one during the pass.
    slowdown: float
    # Whether the program worked in parallel, so bursts were timed in CPU
    # time (see speed.py).
    parallel: bool = False
    # Span summary of a traced pass (see spans.summarize), else None.
    spans: dict | None = None
    # Per-layer numbers measured from outside the program.
    extra: dict = dataclasses.field(default_factory=dict)
    # Per-call latencies in seconds, pooled across passes.
    latencies: list = dataclasses.field(default_factory=list)
    # The spans themselves, per traced process, for writing out.
    raw_spans: dict | None = None


@contextlib.contextmanager
def traced(tracer):
    if tracer is None:
        yield
        return
    tracer.reset()
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def _report(msg: str) -> None:
    print(f"check failed: {msg}", file=sys.stderr)


def _arrays(s) -> tuple[np.ndarray, np.ndarray]:
    return np.array(s.wavelengths_nm), np.array(s.values)


def _week_errors(week: dict, soiled, control, spectra, cell: dict) -> list[str]:
    """Oracle check of one campaign week, as ``WeeklyOutcome.to_json_dict``
    gives it, from its raw scans; ``spectra()`` returns the scan day's
    irradiance spectra that the week's report aggregates."""
    full = cell["full"]
    accepted, tau = oracle.accepted_tau(soiled, control, full[1], full[2])
    errors = []
    if accepted != week["accepted"]:
        errors.append(f"accepted={week['accepted']}, oracle says {accepted}")
    elif accepted and week["spectra_date"] != week["scan_date"]:
        # Every field day of these workloads is clear (DNI/GNI = 0.85), so
        # the spectra come from the scan day itself.
        errors.append(f"spectra from {week['spectra_date']}, not the scan day")
    elif accepted:
        errors += oracle.tau_mismatch(week["tau"]["wavelengths_nm"], week["tau"]["values"], tau)
        errors += oracle.mismatches(week["report"], oracle.indexes(spectra(), tau, cell))
    return [f"week {week['week_id']}: {e}" for e in errors]


# ---------------------------------------------------------------------------
# dense-day-52w
# ---------------------------------------------------------------------------

class DenseDay:
    """In-process run_campaign, daily aggregation, a spectrum every 5 min.

    One pass is one run_campaign call over 52 weeks, 95 spectra a day.
    """

    name = "dense-day-52w"
    in_children = False
    oracle_weeks = 3

    def __init__(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng([seed, 1])
        scenario = dataclasses.replace(
            soilspec.load_scenario(DATA / "demo_scenario.yaml"),
            seed=int(rng.integers(2**31)),
            spectrum_tilt=float(rng.uniform(-0.3, 0.3)),
        )
        self.weeks, days = soilspec.synth_campaign(scenario)
        base = soilspec.synth_spectrum(scenario.spectrum_tilt, scenario.grid)
        self.days = [self._dense_day(d.date, base, scenario) for d in days]
        self.cell = soilspec.load_bundled_3j()
        self.cell_data = oracle.cell_arrays(self.cell)
        self.day_spectra = {
            d.date: [_arrays(r.spectral_dni) for r in d.records if r.spectral_dni is not None]
            for d in self.days
        }
        self.rng = rng
        self.first = None

    @staticmethod
    def _dense_day(date, base, scenario) -> pipeline.FieldDay:
        # 08:00-16:00 at 5-minute cadence, clear-sky sine shape; every
        # record strictly inside the day carries the scaled spectrum.
        records = []
        for minute in range(0, 8 * 60 + 1, 5):
            shape = float(np.sin(np.pi * minute / (8 * 60)))
            dni = scenario.dni_peak_wm2 * shape
            gni = dni / scenario.dni_to_gni
            spec = base.with_values(base.values * shape) if 0 < minute < 8 * 60 else None
            records.append(pipeline.FieldRecord(
                timestamp=dt.datetime.combine(date, dt.time(8, 0)) + dt.timedelta(minutes=minute),
                dni=dni, gni=gni, ghi=0.75 * gni, dhi=gni - dni, spectral_dni=spec,
            ))
        return pipeline.FieldDay(date=date, records=tuple(records))

    def run_pass(self, tracer=None) -> Pass:
        result = None
        with traced(tracer), SpeedSampler() as speed:
            t0 = perf_counter()
            try:
                result = pipeline.run_campaign(
                    self.weeks, self.days, self.cell,
                    aggregation=pipeline.Aggregation.DAILY_CURRENT_WEIGHTED)
            except Exception:
                traceback.print_exc()
            raw = perf_counter() - t0
        n = len(self.weeks)
        p = Pass(speed.scale(raw), n, n, speed.slowdown, speed.parallel)
        if tracer:
            doc = tracer.to_json_dict()
            p.spans = summarize(doc["spans"], doc["grid_reused"], p.elapsed / raw)
            p.raw_spans = {"worker": doc}
        if result is None or len(result.weekly) != n:
            return p
        p.extra["pipeline.accepted_share"] = result.summary["n_accepted"] / n
        p.failed = len(self._failed_weeks([w.to_json_dict() for w in result.weekly]))
        return p

    def _failed_weeks(self, weekly: list[dict]) -> set[int]:
        if self.first is None:
            self.first = weekly
        bad = set()
        for k, (w, ref) in enumerate(zip(weekly, self.first)):
            if w != ref:
                _report(f"week {w['week_id']} differs from the first pass")
                bad.add(k)
            if w["accepted"] and oracle.identity_errors(w["report"]):
                _report(f"week {w['week_id']}: {oracle.identity_errors(w['report'])}")
                bad.add(k)
        for k in self.rng.choice(len(weekly), size=self.oracle_weeks, replace=False):
            m = self.weeks[k]
            errors = _week_errors(weekly[k], [_arrays(s) for s in m.soiled_scans],
                                  [_arrays(c) for c in m.control_scans],
                                  lambda: self.day_spectra[m.scan_date], self.cell_data)
            if errors:
                _report("; ".join(errors))
                bad.add(int(k))
        return bad


# ---------------------------------------------------------------------------
# report-sweep
# ---------------------------------------------------------------------------

def _random_grid(rng) -> np.ndarray:
    step = rng.uniform(4.0, 6.0)
    start = BAND_NM[0] - rng.uniform(0.0, step)
    n = int(np.ceil((BAND_NM[1] - start) / step)) + 1
    return start + step * np.arange(n)


class ReportSweep:
    """In-process index_report over seeded (tilt, k, alpha) cases.

    One pass is one index_report call per case, 1000 cases. E and tau of
    every case sit on their own randomly offset, randomly stepped grids,
    so no two calls share a grid.
    """

    name = "report-sweep"
    in_children = False
    cases = 1000
    oracle_cases = 16

    def __init__(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng([seed, 2])
        self.cell = soilspec.load_bundled_3j()
        self.cell_data = oracle.cell_arrays(self.cell)
        self.inputs = []
        for _ in range(self.cases):
            tilt, k, alpha = rng.uniform(-1.0, 1.0), rng.uniform(0.02, 0.6), rng.uniform(0.5, 2.0)
            e = soilspec.synth_spectrum(float(tilt), _random_grid(rng))
            tau = soilspec.synth_tau(soilspec.SoilingModel(float(k), float(alpha)), _random_grid(rng))
            self.inputs.append((e, tau))
        self.rng = rng
        self.first = None

    def run_pass(self, tracer=None) -> Pass:
        reports, latencies = [], []
        cell = self.cell
        with traced(tracer), SpeedSampler() as speed:
            start = perf_counter()
            for e, tau in self.inputs:
                t0, spent = perf_counter(), speed.spent
                try:
                    r = metrics.index_report(e, cell, tau)
                except Exception:
                    traceback.print_exc()
                    r = None
                latencies.append(perf_counter() - t0 - (speed.spent - spent))
                reports.append(r)
            raw = perf_counter() - start
        p = Pass(speed.scale(raw), self.cases, 0, speed.slowdown, speed.parallel)
        if tracer:
            doc = tracer.to_json_dict()
            p.spans = summarize(doc["spans"], doc["grid_reused"], p.elapsed / raw)
            p.raw_spans = {"worker": doc}
        else:
            p.latencies = [t / speed.slowdown for t in latencies]
        p.failed = len(self._failed_cases([None if r is None else r.to_dict() for r in reports]))
        return p

    def _failed_cases(self, reports: list[dict | None]) -> set[int]:
        if self.first is None:
            self.first = reports
        bad = {k for k, r in enumerate(reports) if r is None}
        for k, (r, ref) in enumerate(zip(reports, self.first)):
            if r is None:
                continue
            if r != ref:
                _report(f"case {k} differs from the first pass")
                bad.add(k)
            if oracle.identity_errors(r):
                _report(f"case {k}: {oracle.identity_errors(r)}")
                bad.add(k)
        for k in self.rng.choice(self.cases, size=self.oracle_cases, replace=False):
            if reports[k] is None:
                continue
            e, tau = self.inputs[k]
            errors = oracle.mismatches(
                reports[k], oracle.indexes([_arrays(e)], _arrays(tau), self.cell_data))
            if errors:
                _report(f"case {k}: {'; '.join(errors)}")
                bad.add(int(k))
        return bad


# ---------------------------------------------------------------------------
# cli-archive-520w
# ---------------------------------------------------------------------------

def _read_csv_spectrum(path: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = [line for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")][1:]
    data = np.array([[float(x) for x in row.split(",")] for row in rows])
    return data[:, 0], data[:, 1]


def _noon_spectrum(data: Path, date: str) -> tuple[np.ndarray, np.ndarray]:
    """The day's spectral record nearest 12:00 (earlier wins a tie)."""
    rows = (data / f"field_{date}.csv").read_text(encoding="utf-8").splitlines()[1:]
    noon = dt.datetime.fromisoformat(f"{date}T12:00:00")
    best = None
    for row in rows:
        cols = row.split(",")
        if not cols[-1]:
            continue
        gap = abs(dt.datetime.fromisoformat(cols[0]) - noon)
        if best is None or gap < best[0]:
            best = (gap, cols[-1])
    return _read_csv_spectrum(data / best[1])


def _tree_digest(root: Path) -> tuple[str, int, int]:
    """(sha256 over relative paths and contents, file count, byte count)."""
    h = hashlib.sha256()
    files = nbytes = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        content = path.read_bytes()
        h.update(str(path.relative_to(root)).encode() + b"\0" + content + b"\0")
        files += 1
        nbytes += len(content)
    return h.hexdigest(), files, nbytes


class CliArchive:
    """``soilspec synth`` on a 520-week scenario, then ``soilspec campaign
    --aggregation noon``, both as child processes.

    One pass is the two commands; each is one operation.
    """

    name = "cli-archive-520w"
    in_children = True
    oracle_weeks = 8
    timeout_s = 150

    def __init__(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng([seed, 3])
        doc = yaml.safe_load((DATA / "demo_scenario.yaml").read_text(encoding="utf-8"))
        years = 10
        doc["rain_weeks"] = [
            {"week": r["week"] + 52 * y, "wash_fraction": r["wash_fraction"]}
            for y in range(years) for r in doc["rain_weeks"]
        ]
        doc["weeks"] = 52 * years
        doc["seed"] = int(rng.integers(2**31))
        doc["spectrum_tilt"] = float(rng.uniform(-0.3, 0.3))
        self.work = work
        self.scenario = work / "scenario_520w.yaml"
        self.scenario.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
        self.cell_config = DATA / "cells" / "lattice_matched_3j.yaml"
        self.cell_data = oracle.cell_arrays(soilspec.load_bundled_3j())
        self.rng = rng
        self.first = None
        self.n = 0

    def _child(self, report: Path, trace: bool, *argv) -> tuple[int, float, dict]:
        """Exit code, wall seconds at nominal speed, and the launcher's report."""
        cmd = [sys.executable, str(HERE / "launcher.py"), str(report), "1" if trace else "0",
               "--", *map(str, argv)]
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=self.timeout_s)
        except subprocess.TimeoutExpired:
            _report(f"soilspec {argv[0]} timed out")
            return -1, 0.0, {}
        wall = perf_counter() - t0
        if proc.returncode != 0 or not report.is_file():
            _report(f"soilspec {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
            return proc.returncode or -1, 0.0, {}
        doc = json.loads(report.read_text(encoding="utf-8"))
        return 0, (wall - doc["burst_s"]) / doc["slowdown"], doc

    def run_pass(self, tracer=None) -> Pass:
        self.n += 1
        pdir = self.work / f"pass{self.n}"
        data, out = pdir / "data", pdir / "out"
        pdir.mkdir()
        trace = tracer is not None
        try:
            rc_synth, synth_s, synth = self._child(pdir / "synth-report.json", trace, "synth",
                                                   "--scenario", self.scenario, "--out", data)
            rc_camp, camp_s, camp = -1, 0.0, {}
            if rc_synth == 0:
                rc_camp, camp_s, camp = self._child(
                    pdir / "campaign-report.json", trace, "campaign", "--cell", self.cell_config,
                    "--data", data, "--out", out, "--aggregation", "noon")
            children = [d for d in (synth, camp) if d]
            p = Pass(synth_s + camp_s, 2, 0,
                     statistics.mean(d["slowdown"] for d in children) if children else 1.0,
                     any(d["parallel"] for d in children))
            if trace:
                a, b = (summarize(d.get("spans", []), d.get("grid_reused", 0),
                                  1.0 / d.get("slowdown", 1.0)) for d in (synth, camp))
                p.spans = {k: a[k] + b[k] for k in a}
                p.raw_spans = {"synth": synth, "campaign": camp}
            p.extra = {"cli.synth_s": synth_s, "cli.campaign_s": camp_s}
            if len(children) == 2:
                p.extra["cli.import_s"] = (synth["import_s"] + camp["import_s"]) / 2
                p.extra["peak_rss_mb"] = max(synth["maxrss_mb"], camp["maxrss_mb"])
            p.failed = self._check(rc_synth, rc_camp, data, out, p.extra)
            return p
        finally:
            shutil.rmtree(pdir, ignore_errors=True)

    def _check(self, rc_synth: int, rc_camp: int, data: Path, out: Path, extra: dict) -> int:
        if rc_synth != 0:
            return 2
        digest, files, nbytes = _tree_digest(data)
        extra["pipeline.write_campaign_dir.files"] = extra["pipeline.load_campaign_dir.files"] = files
        extra["pipeline.write_campaign_dir.bytes"] = extra["pipeline.load_campaign_dir.bytes"] = nbytes
        failed = 0
        if self.first is None:
            self.first = {"data": digest}
        if digest != self.first["data"]:
            _report("synth data dir differs from the first pass")
            failed += 1
        if rc_camp != 0:
            return failed + 1
        raw = (out / "campaign.json").read_bytes()
        extra["cli.campaign_json_bytes"] = len(raw)
        extra["cli.output_bytes"] = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        doc = json.loads(raw)
        weeks = doc["weeks"]
        extra["pipeline.accepted_share"] = doc["summary"]["n_accepted"] / len(weeks)
        digest = hashlib.sha256(raw).hexdigest()
        self.first.setdefault("campaign", digest)
        errors = []
        if digest != self.first["campaign"]:
            errors.append("campaign.json differs from the first pass")
        for w in weeks:
            if w["accepted"]:
                errors += [f"week {w['week_id']}: {e}" for e in oracle.identity_errors(w["report"])]
        for k in self.rng.choice(len(weeks), size=self.oracle_weeks, replace=False):
            errors += self._oracle_week(weeks[k], data)
        if errors:
            _report("; ".join(errors))
            return failed + 1
        return failed

    def _oracle_week(self, w: dict, data: Path) -> list[str]:
        wid = w["week_id"]
        soiled, control = (
            [_read_csv_spectrum(data / f"week{wid:02d}_{role}_{rep}.csv") for rep in (1, 2, 3)]
            for role in ("soiled", "control"))
        return _week_errors(w, soiled, control,
                            lambda: [_noon_spectrum(data, w["scan_date"])], self.cell_data)


WORKLOADS = {w.name: w for w in (CliArchive, DenseDay, ReportSweep)}
