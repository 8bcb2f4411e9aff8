"""Property-based tests for core data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.ringbuffer import RingBuffer
from repro.util.stats import LatencyRecorder, RunningStats


@given(
    capacity=st.integers(min_value=1, max_value=64),
    items=st.lists(st.integers(), max_size=200),
)
def test_ringbuffer_equals_list_suffix(capacity, items):
    """A ring buffer always holds exactly the last `capacity` items."""
    buf = RingBuffer(capacity)
    for item in items:
        buf.append(item)
    assert buf.to_list() == items[-capacity:]
    assert len(buf) == min(capacity, len(items))


@given(
    capacity=st.integers(min_value=1, max_value=16),
    items=st.lists(st.integers(), min_size=1, max_size=100),
)
def test_ringbuffer_eviction_returns_displaced(capacity, items):
    buf = RingBuffer(capacity)
    evicted = [e for e in (buf.append(i) for i in items) if e is not None]
    expected_evictions = max(0, len(items) - capacity)
    assert len(evicted) == expected_evictions
    assert evicted == items[:expected_evictions]


finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


@given(values=st.lists(finite_floats, min_size=1, max_size=200))
def test_running_stats_matches_batch(values):
    s = RunningStats()
    for v in values:
        s.add(v)
    n = len(values)
    mean = sum(values) / n
    assert s.count == n
    assert abs(s.mean - mean) <= 1e-6 * max(1.0, abs(mean))
    assert s.minimum == min(values)
    assert s.maximum == max(values)
    variance = sum((v - mean) ** 2 for v in values) / n
    assert abs(s.variance - variance) <= 1e-4 * max(1.0, variance)


@given(values=st.lists(finite_floats, min_size=1, max_size=100))
def test_latency_percentiles_are_monotone_and_bounded(values):
    rec = LatencyRecorder()
    rec.extend(values)
    p25, p50, p95 = rec.percentile(25), rec.percentile(50), rec.percentile(95)
    assert rec.minimum <= p25 <= p50 <= p95 <= rec.maximum
