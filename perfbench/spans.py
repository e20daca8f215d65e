"""Span tracing of soilspec's public functions, installed from outside.

The package modules import each other's functions by name
(``from .spectral import pointwise_product``), so wrapping a function in
its defining module alone would miss most calls. :meth:`Tracer.install`
therefore rebinds every module-level name in ``soilspec.*`` that refers
to a traced function, and :meth:`Tracer.uninstall` puts the originals
back. Spans (name, start, end, parent) are kept in memory; a span's self
time is its duration minus the durations of its direct children (one
thread, so children never overlap).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs, bottom layer first. A span is named
# "<layer>.<function>", the layer being the module name without the package.
TARGETS = (
    ("soilspec.spectral", "pointwise_product"),
    ("soilspec.spectral", "integrate"),
    ("soilspec.spectral", "read_spectrum_csv"),
    ("soilspec.spectral", "write_spectrum_csv"),
    ("soilspec.cell", "jsc_junction"),
    ("soilspec.metrics", "soiling_transmittance"),
    ("soilspec.metrics", "index_report_weighted"),
    ("soilspec.metrics", "index_report"),
    ("soilspec.pipeline", "validate_week"),
    ("soilspec.pipeline", "run_campaign"),
    ("soilspec.pipeline", "load_campaign_dir"),
    ("soilspec.pipeline", "write_campaign_dir"),
    ("soilspec.synth", "synth_campaign"),
)

SPAN_NAMES = tuple(f"{mod.split('.')[-1]}.{fn}" for mod, fn in TARGETS)


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._grids: list[tuple] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self._grids = []

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            # Looked up per call so that reset() takes effect.
            spans, stack = self.spans, self._stack
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent)

        return traced

    def _wrap_jsc(self, traced):
        # Only note the grids here: comparing them (grid_reused) happens
        # after the pass, so that its cost lands in no span.
        def jsc_junction(e, junction, tau=None):
            self._grids.append((e.wavelengths_nm, None if tau is None else tau.wavelengths_nm,
                                junction.name))
            return traced(e, junction, tau)

        return jsc_junction

    @property
    def grid_reused(self) -> int:
        """jsc_junction calls whose (E grid, tau grid or none, junction) was
        seen before in the pass: the property a plan cache keyed on the
        input grids depends on."""
        content: dict[int, bytes] = {}

        def key(grid):
            # The noted arrays stay alive, so their ids are stable here.
            if grid is None:
                return None
            if id(grid) not in content:
                content[id(grid)] = grid.tobytes()
            return content[id(grid)]

        seen, reused = set(), 0
        for e, tau, junction in self._grids:
            k = (key(e), key(tau), junction)
            if k in seen:
                reused += 1
            else:
                seen.add(k)
        return reused

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "soilspec" or n.startswith("soilspec."))]
        for (mod_name, fn_name), span in zip(TARGETS, SPAN_NAMES):
            orig = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(span, orig)
            if span == "cell.jsc_junction":
                wrapper = self._wrap_jsc(wrapper)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore = []

    def to_json_dict(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "grid_reused": self.grid_reused}


def summarize(spans, grid_reused: int = 0, scale: float = 1.0) -> dict[str, float]:
    """Per-span-name call counts, total and self seconds for one pass.

    Returns flat keys ``<span>.calls``, ``<span>.s`` and ``<span>.self_s``
    for every traced name (zero when not called), plus
    ``cell.grid_reused``. Seconds are multiplied by ``scale``, the pass's
    factor from measured to nominal-speed time (see speed.py).
    """
    total = defaultdict(float)
    child = defaultdict(float)
    calls = defaultdict(int)
    for name, t0, t1, parent in spans:
        calls[name] += 1
        total[name] += t1 - t0
    for sid, (name, t0, t1, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
    self_s = defaultdict(float)
    for sid, (name, t0, t1, parent) in enumerate(spans):
        self_s[name] += (t1 - t0) - child[sid]
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name] * scale
        out[f"{name}.self_s"] = self_s[name] * scale
    out["cell.grid_reused"] = grid_reused
    return out
