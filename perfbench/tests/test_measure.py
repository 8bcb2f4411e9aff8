"""The statistics rules the benchmark reports by."""

import signal
import time

import pytest

from perfbench.measure import (
    NOMINAL_REFERENCE_S,
    HostClock,
    beyond,
    error_rate,
    highest_supported_percentile,
    percentile,
    quartile_spread,
)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(values, 100.0) == 100
    assert percentile([7.0], 99.0) == 7.0
    assert percentile([3, 1, 2], 50.0) == 2
    with pytest.raises(ValueError):
        percentile([], 50.0)


@pytest.mark.parametrize(
    ("n", "expected"),
    [
        (19, None),  # 9 beyond the median
        (20, 50.0),
        (99, 50.0),  # 9 beyond p90
        (100, 90.0),  # 10 beyond p90, 5 beyond p95
        (200, 95.0),
        (999, 95.0),  # 9 beyond p99
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert highest_supported_percentile(n) == expected
    if expected is not None:
        assert beyond(n, expected) >= 10


def test_quartile_spread_is_iqr_over_median():
    assert quartile_spread([1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.0)
    assert quartile_spread([5.0] * 10) == 0.0
    assert quartile_spread([5.0]) == 0.0


def test_error_rate_counts_failed_over_attempted():
    assert error_rate(10, 0) == 0.0
    assert error_rate(10, 3) == pytest.approx(0.3)
    assert error_rate(0, 0) == 1.0  # nothing attempted is a failed run
    with pytest.raises(ValueError):
        error_rate(3, 4)


def test_host_clock_scales_each_call_by_the_references_around_it():
    refs = iter([0.006, 0.010, 0.004])
    clock = HostClock(reference=lambda: next(refs))
    assert NOMINAL_REFERENCE_S == 0.004
    assert clock.call(max, 3, 5) == 5
    # References of 6 and 10 ms around the call: the host ran at half
    # the nominal speed, so the call took half as long in nominal seconds.
    assert clock.nominal_wall_s == pytest.approx(clock.wall_s * 0.5)
    assert clock.nominal_cpu_s == pytest.approx(clock.cpu_s * 0.5)
    wall, nominal = clock.wall_s, clock.nominal_wall_s
    clock.call(sum, [1, 2])
    added = clock.wall_s - wall
    assert clock.nominal_wall_s - nominal == pytest.approx(added * 0.008 / 0.014)
    assert clock.refs == [0.006, 0.010, 0.004]


def test_host_clock_sampling_cuts_running_code_into_pieces():
    # A host at twice the nominal speed: nominal time is twice the wall.
    clock = HostClock(reference=lambda: NOMINAL_REFERENCE_S / 2.0)
    clock.start_sampling(period_s=0.005)
    end = time.perf_counter() + 0.1
    while time.perf_counter() < end:
        pass
    clock.stop_sampling()
    clock.stop_sampling()
    assert len(clock.refs) >= 5
    assert 0.09 < clock.wall_s < 0.2
    assert clock.nominal_wall_s == pytest.approx(2.0 * clock.wall_s)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
