"""Run ``soilspec.cli.main`` in this process, optionally traced.

Usage: launcher.py REPORT_JSON TRACE(0|1) -- SOILSPEC_ARGS...

Writes REPORT_JSON with the import time of ``soilspec.cli``, the exit
code, the speed sample of the whole run (see speed.py), the process's
peak RSS and, when traced, the spans of the run; exits with the CLI's
code.
"""

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedSampler


def main() -> int:
    report, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit(__doc__)
    doc = {}
    tracer = None
    with SpeedSampler() as speed:
        t0 = perf_counter()
        import soilspec.cli
        import_s = perf_counter() - t0 - speed.spent
        if trace == "1":
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            doc["exit"] = soilspec.cli.main(argv)
        finally:
            if tracer is not None:
                tracer.uninstall()
                doc.update(tracer.to_json_dict())
    doc.update(speed.report())
    doc["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc["import_s"] = import_s / speed.slowdown
    Path(report).write_text(json.dumps(doc), encoding="utf-8")
    return doc["exit"]


if __name__ == "__main__":
    sys.exit(main())
