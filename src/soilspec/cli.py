"""Command-line surface: compute one report, run a campaign, or generate one.

Exit codes are a stable contract: 0 success, 1 input error (missing or
malformed files, empty scenarios), 2 computation error. Failures print a
machine-readable JSON object ``{"error": <kind>, "message": <text>}`` on
stderr. A command whose stdout is closed by its reader drops what it
would print there and exits with its own code. All outputs are
deterministic given the inputs and flags; result files are written
atomically (write-temp-then-rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import hashlib
import json
import os
import sys
from collections.abc import Iterator
from pathlib import Path

from . import __version__
from .cell import load_cell, reference_spectrum_path
from .errors import (
    ConfigError,
    EmptyScenario,
    MissingReferenceSpectrum,
    NoWeeksFound,
    SoilspecError,
)
from .metrics import index_report
from .pipeline import (
    Aggregation,
    campaign_fits,
    load_campaign_dir,
    run_campaign,
    write_campaign_dir,
)
from .spectral import read_spectrum_csv, write_text_atomic
from .synth import load_scenario, synth_campaign

DATA_DIR_ENV = "SOILSPEC_DATA_DIR"

_INPUT_ERRORS = (ConfigError, MissingReferenceSpectrum, NoWeeksFound, EmptyScenario)


def _reference_hash() -> str:
    path = reference_spectrum_path()
    if not path.is_file():
        return "missing"
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _version_string() -> str:
    return f"soilspec {__version__} (reference spectrum sha256 {_reference_hash()})"


def _json_chunks(doc: dict) -> Iterator[str]:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, in chunks.

    With an indent, ``json`` encodes in pure Python, so this walks the
    containers itself (dicts by sorted ``str`` key, tuples as lists) and
    hands each scalar, and each list of scalars none of which is a string,
    to the C encoder whole. Only such a list is re-indented by replacing
    its ``", "`` separators, since no number, ``true``, ``false`` or
    ``null`` holds one. No chunk holds more than one scalar or one such
    list, so the document is never built as one string.
    """
    yield from _json_value(doc, "\n")
    yield "\n"


def _json_value(value: object, newline: str) -> Iterator[str]:
    """``value`` as ``json.dumps(..., indent=2, sort_keys=True)`` writes it
    at the depth where ``newline`` starts a line."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        sep = "{" + inner
        for key in sorted(value):
            yield f"{sep}{json.dumps(key)}: "
            yield from _json_value(value[key], inner)
            sep = "," + inner
        yield newline + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
        elif any(issubclass(t, (str, dict, list, tuple)) for t in set(map(type, value))):
            sep = "[" + inner
            for v in value:
                yield sep
                yield from _json_value(v, inner)
                sep = "," + inner
            yield newline + "]"
        else:
            yield f"[{inner}{json.dumps(value)[1:-1].replace(', ', ',' + inner)}{newline}]"
    else:
        yield json.dumps(value)


def _out_dir(path: str) -> Path:
    """``--out``, refused before any work with mkdir's error if it cannot be a dir."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        code = errno.EEXIST if existing == out else errno.ENOTDIR
        raise OSError(code, os.strerror(code), path)
    return out


def _say(text: str) -> None:
    """Print a line on stdout. If stdout's reader has gone (a closed pipe),
    the line is dropped, and so is the rest of stdout: the stream is sent
    to ``os.devnull``, so that its flush at exit raises nothing either."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_compute(args: argparse.Namespace) -> int:
    e = read_spectrum_csv(args.e_file)
    tau = read_spectrum_csv(args.tau_file)
    cell = load_cell(args.cell)
    report = index_report(e, cell, tau)
    _say(report.to_json())
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
    data_dir = args.data or os.environ.get(DATA_DIR_ENV)
    if not data_dir:
        raise ConfigError(f"no data dir: pass --data or set {DATA_DIR_ENV}")
    cell = load_cell(args.cell)
    weeks, days = load_campaign_dir(data_dir)  # spectra are read week by week by run_campaign
    result = run_campaign(
        weeks,
        days,
        cell,
        aggregation=Aggregation(args.aggregation),
    )
    del weeks, days  # free the inputs before encoding, which sets the peak memory
    fits = campaign_fits(result)
    out.mkdir(parents=True, exist_ok=True)
    doc = result.to_json_dict()
    doc["fits"] = fits
    write_text_atomic(out / "campaign.json", _json_chunks(doc))
    write_text_atomic(out / "weekly.csv", result.weekly_csv())
    write_text_atomic(out / "fits.json", _json_chunks(fits))
    s = result.summary
    _say(f"campaign: {s['n_accepted']}/{s['n_weeks']} weeks accepted; results in {out}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        try:
            scenario = dataclasses.replace(scenario, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    weeks, days = synth_campaign(scenario)
    write_campaign_dir(weeks, days, out)
    _say(f"synth: wrote {len(weeks)} weeks and {len(days)} field days to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soilspec",
        description="Spectral soiling indexes for multi-junction concentrator cells.",
    )
    parser.add_argument("--version", action="version", version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="index report for one spectrum + soiling transmittance")
    p.add_argument("e_file", help="direct spectral irradiance CSV")
    p.add_argument("tau_file", help="soiling transmittance CSV")
    p.add_argument("--cell", required=True, help="cell config YAML")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("campaign", help="run the weekly campaign pipeline on a data dir")
    p.add_argument("--cell", required=True, help="cell config YAML")
    p.add_argument("--data", default=None,
                   help=f"campaign data dir (default: ${DATA_DIR_ENV})")
    p.add_argument("--out", required=True, help="output dir for campaign.json/weekly.csv/fits.json")
    p.add_argument("--aggregation", choices=[a.value for a in Aggregation],
                   default=Aggregation.DAILY_CURRENT_WEIGHTED.value)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("synth", help="generate a synthetic campaign data dir")
    p.add_argument("--scenario", required=True, help="scenario YAML")
    p.add_argument("--out", required=True, help="output campaign data dir")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.set_defaults(func=_cmd_synth)
    return parser


def _fail(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        return _fail("FileNotFound", str(exc), 1)
    except _INPUT_ERRORS as exc:
        return _fail(exc.kind, str(exc), 1)
    except (ValueError, OSError) as exc:
        return _fail(type(exc).__name__, str(exc), 1)
    except SoilspecError as exc:
        return _fail(exc.kind, str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
