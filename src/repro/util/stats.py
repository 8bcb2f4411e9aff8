"""Streaming statistics used by the benchmark harness and the middleware.

``RunningStats`` implements Welford's numerically stable online mean/variance.
``LatencyRecorder`` keeps the raw samples (experiments are small enough) and
reports the average/max columns used in the paper's Tables II and III, plus
percentiles for the supplementary benches.
"""

from __future__ import annotations

import math

__all__ = ["RunningStats", "LatencyRecorder", "percentile"]


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile of ``samples`` (0 <= q <= 100, linear interp).

    Accepts the samples in any order (they are sorted here); returns NaN
    for an empty list. This is the exact rule behind
    :class:`LatencyRecorder` and so the paper tables and BENCH records;
    metrics histograms report sketch quantiles instead
    (:class:`repro.obs.sketch.LatencySketch`).
    """
    if not samples:
        return math.nan
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    # This form (rather than a*(1-f) + b*f) cannot exceed [a, b] under
    # floating-point rounding, keeping percentiles within min..max.
    return ordered[low] + frac * (ordered[high] - ordered[low])


class RunningStats:
    """Welford online mean / variance / min / max.

    >>> s = RunningStats()
    >>> for x in (1.0, 2.0, 3.0):
    ...     s.add(x)
    >>> s.mean
    2.0
    """

    __slots__ = ("_count", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample into the statistics."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._mean if self._count else math.nan

    @property
    def variance(self) -> float:
        """Population variance."""
        return self._m2 / self._count if self._count else math.nan

    @property
    def stddev(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else math.nan  # NaN check

    @property
    def minimum(self) -> float:
        return self._min if self._count else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self._count else math.nan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunningStats(count={self._count}, mean={self.mean:.4g}, "
            f"std={self.stddev:.4g}, min={self.minimum:.4g}, max={self.maximum:.4g})"
        )


class LatencyRecorder:
    """Collects latency samples and reports paper-style summary rows.

    Samples are stored raw so exact percentiles can be computed. All values
    are in the unit the caller uses (the harness uses milliseconds to match
    the paper's tables).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: list[float] = []
        self._stats = RunningStats()

    def add(self, value: float) -> None:
        """Record one latency sample."""
        self._samples.append(value)
        self._stats.add(value)

    def extend(self, values: list[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        return self._stats.count

    @property
    def average(self) -> float:
        return self._stats.mean

    @property
    def maximum(self) -> float:
        return self._stats.maximum

    @property
    def minimum(self) -> float:
        return self._stats.minimum

    @property
    def stddev(self) -> float:
        return self._stats.stddev

    @property
    def samples(self) -> list[float]:
        """A copy of the raw samples in arrival order."""
        return list(self._samples)

    def percentile(self, q: float) -> float:
        """Return the ``q``-th percentile (0 <= q <= 100, linear interp)."""
        return percentile(self._samples, q)

    def summary(self) -> dict[str, float]:
        """Summary dict with the columns used across EXPERIMENTS.md."""
        return {
            "count": float(self.count),
            "avg": self.average,
            "max": self.maximum,
            "min": self.minimum,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

