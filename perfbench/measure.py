"""Statistics and environment helpers shared by the benchmark's scripts."""

from __future__ import annotations

import math
import os
import platform
import resource
import signal
import statistics
import time
from typing import Any, Callable, Sequence

__all__ = [
    "MIN_BEYOND",
    "percentile",
    "beyond",
    "highest_supported_percentile",
    "median",
    "quartile_spread",
    "error_rate",
    "peak_rss_mb",
    "environment",
    "NOMINAL_REFERENCE_S",
    "reference_s",
    "HostClock",
]

#: Candidate percentiles, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``0 < p <= 100``) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples strictly beyond the nearest-rank ``p``-th percentile of ``n``."""
    return n - _rank(n, p)


def highest_supported_percentile(n: int) -> float | None:
    """The highest of :data:`PERCENTILES` with at least :data:`MIN_BEYOND`
    of ``n`` samples beyond it, or None when even the median lacks them."""
    supported = [p for p in PERCENTILES if beyond(n, p) >= MIN_BEYOND]
    return supported[-1] if supported else None


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``); 0 for fewer than two
    values or a zero median."""
    if len(values) < 2:
        return 0.0
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else 0.0


def error_rate(attempted: int, failed: int) -> float:
    """``failed / attempted``; a run that attempted nothing has failed."""
    if attempted <= 0:
        return 1.0
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict[str, object]:
    """Where and under what load this run happened."""
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
    }


# ---------------------------------------------------------------------------
# Host-speed calibration
# ---------------------------------------------------------------------------

#: Wall seconds the reference loop takes on the host the bounds were set
#: on (2-vCPU Xeon, CPython 3.11). Calibrated times are seconds at that
#: host speed.
NOMINAL_REFERENCE_S = 0.004

#: Passes of the reference loop's body.
REFERENCE_LOOPS = 20_000


def reference_s() -> float:
    """Wall time of one run of a fixed pure-Python loop (dict reads and
    writes, integer arithmetic): a sample of how fast the host runs
    interpreted code at this moment."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(REFERENCE_LOOPS):
        key = i % 4099
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


class HostClock:
    """Time work in seconds at a nominal host speed.

    On a shared host the speed of interpreted code swings by up to 1.7x
    within seconds. So the work is cut into short pieces with a run of
    :func:`reference_s` after each, and each piece's wall and CPU time is
    scaled by :data:`NOMINAL_REFERENCE_S` over the mean of the reference
    times just before and just after it. The reference runs are not part
    of any total.

    Two ways to cut: :meth:`call` times one call (make each a few tens of
    milliseconds), and between :meth:`start_sampling` and
    :meth:`stop_sampling` a ``SIGALRM`` handler runs the reference every
    ``period_s`` inside whatever code is running.
    """

    def __init__(self, reference: Callable[[], float] = reference_s) -> None:
        self.reference = reference
        self.refs: list[float] = [reference()]
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.nominal_wall_s = 0.0
        self.nominal_cpu_s = 0.0
        self._piece: tuple[float, float] | None = None
        self._closing = False
        self._previous_handler: Any = None

    def scale(self, before: float, after: float) -> float:
        """Factor from measured to nominal seconds for work done between
        reference runs of ``before`` and ``after`` seconds."""
        return NOMINAL_REFERENCE_S * 2.0 / (before + after)

    def _add(self, wall: float, cpu: float) -> None:
        """Close a piece of ``wall``/``cpu`` seconds with a reference run."""
        self.refs.append(self.reference())
        scale = self.scale(self.refs[-2], self.refs[-1])
        self.wall_s += wall
        self.cpu_s += cpu
        self.nominal_wall_s += wall * scale
        self.nominal_cpu_s += cpu * scale

    def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args)
        finally:
            self._add(time.perf_counter() - wall0, time.process_time() - cpu0)

    def _close_piece(self) -> None:
        wall0, cpu0 = self._piece  # type: ignore[misc]
        self._add(time.perf_counter() - wall0, time.process_time() - cpu0)
        self._piece = (time.perf_counter(), time.process_time())

    def _on_alarm(self, *_args: Any) -> None:
        if self._piece is not None and not self._closing:
            self._closing = True
            try:
                self._close_piece()
            finally:
                self._closing = False

    def start_sampling(self, period_s: float = 0.025) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._piece = (time.perf_counter(), time.process_time())
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)

    def stop_sampling(self) -> None:
        """End the sampled stretch (idempotent)."""
        if self._piece is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._close_piece()
        self._piece = None
