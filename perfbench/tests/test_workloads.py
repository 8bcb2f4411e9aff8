"""Simulator window chunking and asyncio delivery accounting."""

import pytest

import perfbench.workloads as workloads
from perfbench.workloads import KNEE_SEED, DeliveryBook, SimWorkload, _knee
from repro.sim.trace import TraceRecord

INTERVAL = 0.01


def test_chunked_window_fires_the_same_events_as_one_run(monkeypatch):
    workload = SimWorkload("knee-short", KNEE_SEED, 3.0, _knee)
    chunked = workload.rep(0)
    monkeypatch.setattr(workloads, "WINDOW_CHUNKS", 1)
    whole = workload.rep(0)
    assert chunked.outputs == whole.outputs
    assert chunked.layer == whole.layer
    assert chunked.latencies_ms == whole.latencies_ms
    assert chunked.modelled_s == whole.modelled_s == 3.0


def _book() -> DeliveryBook:
    book = DeliveryBook(sensors=3)
    book.timers = {"A": (0.0, INTERVAL), "B": (0.002, INTERVAL), "C": (0.004, INTERVAL)}
    return book


def _sense(book: DeliveryBook, sensor: str, k: int, lag: float = 0.0) -> str:
    epoch, interval = book.timers[sensor]
    sample_id = f"{sensor}{k}"
    due = epoch + k * interval
    book.on_sample(
        TraceRecord(due + lag, sensor, "sensor.sample", {"sample_id": sample_id, "sensed_at": due + lag})
    )
    return sample_id


def test_latency_runs_from_the_earliest_due_time():
    book = _book()
    ids = [_sense(book, "A", 1), _sense(book, "B", 1, lag=0.001), _sense(book, "C", 1)]
    book.window_start = 0.0
    book.on_result("train", ids, now=0.030)
    # A1 was due at 0.010: 20 ms, although B1 fired late.
    assert book.latencies_ms == [pytest.approx(20.0)]
    assert not book.problems


def test_error_rate_counts_lost_samples_but_not_the_cut_round():
    book = _book()
    early = [_sense(book, s, 1) for s in "ABC"]
    book.window_start = 0.015
    book.sampling = True
    a = {k: _sense(book, "A", k) for k in range(2, 6)}
    b = {k: _sense(book, "B", k) for k in range(2, 5)}
    c = {k: _sense(book, "C", k) for k in range(2, 4)}
    # B1 and C1 were due before the window opened.
    assert book.window_ids == {"A": list(a.values()), "B": list(b.values()), "C": list(c.values())}
    for sink in ("train", "predict"):
        book.on_result(sink, early, now=0.02)
    book.on_result("train", [a[2], b[2], c[2]], now=0.03)
    # A3 was overwritten in the align window: A4 went out with B3 and C3.
    book.on_result("predict", [a[4], b[3], c[3]], now=0.05)
    # A5 and B4 still wait for partners the stop never produced.
    attempted, failed = book.account()
    assert (attempted, failed) == (3 + 2 + 2, 1)
    assert len(book.latencies_ms) == 4
    assert not book.problems


def test_only_the_last_undelivered_sample_is_excused():
    book = _book()
    book.window_start = 0.0
    book.sampling = True
    for k in (1, 2, 3):
        ids = [_sense(book, s, k) for s in "ABC"]
        if k == 1:
            book.on_result("train", ids, now=0.05)
    # Rounds 2 and 3 never arrived: round 2 is lost, round 3 was cut.
    assert book.account() == (6, 3)


def test_malformed_and_repeated_batches_are_problems():
    book = _book()
    book.window_start = 0.0
    ids = [_sense(book, s, 1) for s in "ABC"]
    book.on_result("train", ids[:2], now=0.05)
    book.on_result("train", ids, now=0.05)
    book.on_result("train", ids, now=0.06)
    assert len(book.problems) == 2
    assert "not one sample per sensor" in book.problems[0]
    assert "repeats a delivered sample" in book.problems[1]

