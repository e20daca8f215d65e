"""Express measured times at a fixed reference CPU speed.

On a shared machine the CPU speed one thread sees changes by up to 2x
over seconds to minutes, on each CPU independently: on the 2-vCPU
machine the baseline was recorded on, a fixed pure-Python loop took
1.7 ms or 2.8 ms depending on the moment, and a 20-second run of a
workload could sit entirely in a slow or a fast stretch. Raw wall times
of runs taken minutes apart then differ by 35% at the quartiles, more
than any bound a regression gate can use.

So while a measurement runs, :class:`SpeedSampler` interrupts it every
``INTERVAL_S`` with SIGALRM and times a fixed pure-Python burst on the
same thread, at the same moment. The measured time is then rescaled to
the speed at which one burst takes ``NOMINAL_BURST_S``::

    scaled = (elapsed - time spent in bursts) * NOMINAL_BURST_S / mean burst

A burst is timed in wall time, so that it also sees the CPU being taken
by other tenants of the machine. But the program's own parallel work
would slow it too: a burst waits for the GIL held by the program's
threads, or for a CPU its threads or child processes hold, and that
wait would be divided out as a slow machine. So the sampler also counts
the CPU time that threads other than the sampled one, and child
processes reaped meanwhile, used during the region. When that exceeds
``PARALLEL_SHARE`` of the region's wall time, the bursts are timed in
the sampled thread's own CPU time instead, which no waiting enters.
"""

from __future__ import annotations

import resource
import signal
from time import perf_counter, process_time, thread_time

INTERVAL_S = 0.02
# One burst on the baseline machine in an uncontended stretch.
NOMINAL_BURST_S = 300e-6
# Share of the region's wall time that other threads and children may
# use in CPU time before the program counts as working in parallel.
PARALLEL_SHARE = 0.05


def burst() -> tuple[float, float]:
    """Wall and thread-CPU seconds of a fixed pure-Python loop (float
    arithmetic and dict stores)."""
    t0, c0 = perf_counter(), thread_time()
    acc = 0.0
    table = {}
    for i in range(1500):
        acc += (i * 0.5) ** 0.5
        table[i & 63] = acc
    return perf_counter() - t0, thread_time() - c0


def _others_cpu() -> float:
    """CPU seconds so far of this process's other threads and of its
    reaped child processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() - thread_time() + children.ru_utime + children.ru_stime


class SpeedSampler:
    """Context manager sampling the CPU speed of the running thread."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self.parallel = False
        self._start = (0.0, 0.0)
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(burst())
        self.spent += perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self.spent = 0.0
        self._start = perf_counter(), _others_cpu()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        wall, others = perf_counter() - self._start[0], _others_cpu() - self._start[1]
        self.parallel = others > PARALLEL_SHARE * wall
        if not self.samples:
            # Shorter than one interval: sample once at the end.
            self.samples.append(burst())

    @property
    def slowdown(self) -> float:
        """Mean burst time over the nominal one (above 1: slower)."""
        times = [cpu if self.parallel else wall for wall, cpu in self.samples]
        return sum(times) / len(times) / NOMINAL_BURST_S

    def scale(self, elapsed: float) -> float:
        """``elapsed`` (timed inside the sampled region) at nominal speed."""
        return (elapsed - self.spent) / self.slowdown

    def report(self) -> dict:
        return {"slowdown": self.slowdown, "burst_s": self.spent, "parallel": self.parallel}
