import pytest

from repro.errors import ClockError
from repro.sim.kernel import SimKernel


def test_run_advances_clock_to_last_event():
    k = SimKernel()
    fired = []
    k.schedule(5.0, fired.append, "a")
    k.schedule(2.0, fired.append, "b")
    k.run()
    assert fired == ["b", "a"]
    assert k.now == 5.0


def test_run_until_advances_clock_even_without_events():
    k = SimKernel()
    k.run(until=10.0)
    assert k.now == 10.0


def test_run_until_does_not_execute_later_events():
    k = SimKernel()
    fired = []
    k.schedule(5.0, fired.append, "late")
    k.run(until=3.0)
    assert fired == []
    assert k.now == 3.0
    k.run(until=6.0)
    assert fired == ["late"]


def test_schedule_in_past_rejected():
    k = SimKernel()
    with pytest.raises(ClockError):
        k.schedule(-1.0, lambda: None)
    k.run(until=5.0)
    with pytest.raises(ClockError):
        k.schedule_at(4.0, lambda: None)


def test_call_soon_runs_at_current_time_in_order():
    k = SimKernel()
    order = []
    k.schedule(1.0, lambda: (order.append("t1"), k.call_soon(order.append, "soon")))
    k.schedule(1.0, order.append, "t1b")
    k.run()
    assert order == ["t1", "t1b", "soon"]
    assert k.now == 1.0


def test_step_returns_false_when_drained():
    k = SimKernel()
    k.schedule(1.0, lambda: None)
    assert k.step() is True
    assert k.step() is False


def test_capped_run_does_not_advance_clock_past_pending_events():
    k = SimKernel()
    seen = []
    k.schedule(1.0, lambda: seen.append(k.now))
    k.schedule(2.0, lambda: seen.append(k.now))
    k.run(until=10.0, max_events=1)
    assert seen == [1.0]
    assert k.now == 1.0  # the t=2 event is still pending
    k.run()
    assert seen == [1.0, 2.0]  # the clock never ran backwards
    assert k.now == 2.0


def test_capped_run_advances_clock_when_nothing_is_left_before_until():
    k = SimKernel()
    k.schedule(1.0, lambda: None)
    k.schedule(20.0, lambda: None)
    k.run(until=10.0, max_events=1)
    assert k.now == 10.0


def test_events_scheduled_during_run_execute():
    k = SimKernel()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            k.schedule(1.0, chain, n + 1)

    k.schedule(0.0, chain, 0)
    k.run()
    assert fired == [0, 1, 2, 3]
    assert k.now == 3.0


def test_max_events_guard():
    k = SimKernel()

    def forever():
        k.schedule(0.0, forever)

    k.schedule(0.0, forever)
    with pytest.raises(ClockError):
        k.run_until_idle(max_events=100)


def test_reset():
    k = SimKernel()
    k.schedule(1.0, lambda: None)
    k.run()
    k.reset()
    assert k.now == 0.0
    assert k.events_processed == 0
    assert k.pending == 0


def test_reentrant_run_rejected():
    k = SimKernel()

    def nested():
        k.run()

    k.schedule(0.0, nested)
    with pytest.raises(ClockError):
        k.run()


def test_events_processed_counter():
    k = SimKernel()
    for i in range(4):
        k.schedule(float(i), lambda: None)
    k.run()
    assert k.events_processed == 4


def test_reentrant_step_rejected():
    k = SimKernel()
    k.schedule(0.0, k.step)
    with pytest.raises(ClockError):
        k.run()
