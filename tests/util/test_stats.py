import math

import pytest

from repro.util.stats import LatencyRecorder, RunningStats


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.count == 0
        assert math.isnan(s.mean)
        assert math.isnan(s.variance)
        assert math.isnan(s.minimum)
        assert math.isnan(s.maximum)

    def test_basic_moments(self):
        s = RunningStats()
        for x in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            s.add(x)
        assert s.mean == pytest.approx(5.0)
        assert s.variance == pytest.approx(4.0)
        assert s.stddev == pytest.approx(2.0)
        assert s.minimum == 2.0
        assert s.maximum == 9.0

    def test_single_value(self):
        s = RunningStats()
        s.add(3.5)
        assert s.mean == 3.5
        assert s.variance == 0.0
        assert s.minimum == s.maximum == 3.5


class TestLatencyRecorder:
    def test_summary_columns(self):
        rec = LatencyRecorder("t")
        rec.extend([10.0, 20.0, 30.0])
        summary = rec.summary()
        assert summary["count"] == 3
        assert summary["avg"] == pytest.approx(20.0)
        assert summary["max"] == 30.0
        assert summary["min"] == 10.0
        assert summary["p50"] == pytest.approx(20.0)

    def test_percentile_interpolation(self):
        rec = LatencyRecorder()
        rec.extend([0.0, 10.0])
        assert rec.percentile(50) == pytest.approx(5.0)
        assert rec.percentile(0) == 0.0
        assert rec.percentile(100) == 10.0

    def test_percentile_empty_is_nan(self):
        assert math.isnan(LatencyRecorder().percentile(50))

    def test_percentile_range_check(self):
        rec = LatencyRecorder()
        rec.add(1.0)
        with pytest.raises(ValueError):
            rec.percentile(101)

    def test_samples_are_copies(self):
        rec = LatencyRecorder()
        rec.add(1.0)
        rec.samples().clear() if callable(rec.samples) else None
        # samples is a property returning a copy
        snapshot = rec.samples
        snapshot.append(99.0)
        assert rec.count == 1

