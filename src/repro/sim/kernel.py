"""The discrete-event kernel: a virtual clock and its pending-event set.

The kernel is single-threaded and deterministic. Time only advances inside
:meth:`SimKernel.run` / :meth:`SimKernel.step`, by jumping to the timestamp of
the next scheduled event. All higher layers (network medium, CPU resources,
MQTT broker, middleware classes) are plain callbacks scheduled here.

Hot path
--------
``run`` drives an inlined pop/fire loop over the queue's tuple heap, and
:meth:`SimKernel.step` is ``run(max_events=1)``.  There are exactly two
loops: a hook-free one when no monitor is attached, and a hooked one that
brackets each handler in ``try``/``finally`` and tracks the current
event.  Monitor hooks follow the one-attribute-load gate pattern used
throughout the runtime (``repro.runtime.state``): the ``monitor`` setter
caches one bound method per hook, or ``None`` when the monitor does not
define it, and the kernel calls a hook only if the monitor defines it —
the profiler, for example, defines only ``event_begin``.
"""

from __future__ import annotations

import random
from heapq import heappop
from typing import Any, Callable, Protocol

from repro.errors import ClockError
from repro.sim.events import EventHandle, EventQueue

__all__ = ["CompositeMonitor", "KernelMonitor", "SimKernel"]


class KernelMonitor(Protocol):
    """Observer of the kernel's schedule, attached via ``kernel.monitor``.

    The schedule sanitizer (:mod:`repro.san`) implements this to build a
    happens-before graph: ``event_scheduled`` links every new event to the
    event during whose execution it was created (its *schedule parent*),
    and ``event_begin``/``event_end`` bracket handler execution so state
    accesses can be attributed to the running event.  ``kernel.monitor``
    is ``None`` in normal operation and every hook site guards on that, so
    the monitoring cost when disabled is one attribute load per event.

    Every hook is optional: the kernel calls a hook only if the monitor
    defines it.
    """

    def event_scheduled(
        self, handle: EventHandle, parent: EventHandle | None
    ) -> None: ...

    def event_begin(self, handle: EventHandle) -> None: ...

    def event_end(self, handle: EventHandle) -> None: ...


class CompositeMonitor:
    """Fan-out :class:`KernelMonitor`: forwards every hook to each child.

    ``kernel.monitor`` is a single slot; when two observers need the
    schedule at once (the sanitizer and the profiler), they are chained
    through one of these. Children are invoked in attachment order for
    ``event_scheduled``/``event_begin`` and in reverse order for
    ``event_end``, so brackets nest.  A child is called only for the
    hooks it defines, and the composite defines a hook only if some child
    does — so the absent-hook rule composes through the chain.
    """

    def __init__(self, monitors: tuple[KernelMonitor, ...]) -> None:
        self.monitors = monitors
        for name, order in (
            ("event_scheduled", monitors),
            ("event_begin", monitors),
            ("event_end", monitors[::-1]),
        ):
            hooks = tuple(
                hook
                for hook in (getattr(m, name, None) for m in order)
                if hook is not None
            )
            if hooks:
                setattr(self, name, _fan_out(hooks))


def _fan_out(hooks: tuple[Callable[..., None], ...]) -> Callable[..., None]:
    """One hook that calls each of ``hooks`` in order."""

    def fan_out(*args: Any) -> None:
        for hook in hooks:
            hook(*args)

    return fan_out


class SimKernel:
    """Deterministic discrete-event scheduler with a virtual clock.

    >>> k = SimKernel()
    >>> fired = []
    >>> _ = k.schedule(5.0, fired.append, "a")
    >>> _ = k.schedule(2.0, fired.append, "b")
    >>> k.run()
    >>> (fired, k.now)
    (['b', 'a'], 5.0)
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self._events_processed = 0
        self._monitor: KernelMonitor | None = None
        #: Cached bound hooks (None when detached or not defined).
        self._hook_scheduled: Callable[..., None] | None = None
        self._hook_begin: Callable[..., None] | None = None
        self._hook_end: Callable[..., None] | None = None
        self._current: EventHandle | None = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for tests and sanity checks)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still scheduled (including cancelled husks)."""
        return len(self._queue)

    @property
    def current_event(self) -> EventHandle | None:
        """The event whose handler is executing right now, if any."""
        return self._current

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------

    @property
    def monitor(self) -> KernelMonitor | None:
        """The attached :class:`KernelMonitor`; ``None`` disables all hooks."""
        return self._monitor

    @monitor.setter
    def monitor(self, monitor: KernelMonitor | None) -> None:
        self._monitor = monitor
        self._hook_scheduled = getattr(monitor, "event_scheduled", None)
        self._hook_begin = getattr(monitor, "event_begin", None)
        self._hook_end = getattr(monitor, "event_end", None)

    # ------------------------------------------------------------------
    # Schedule perturbation (see repro.san)
    # ------------------------------------------------------------------

    def perturb_ties(self, seed: int | None) -> None:
        """Install seeded permutation of equal-timestamp tie-breaking.

        With a seed, events scheduled from now on pop in a seeded
        pseudo-random order among equal timestamps instead of FIFO (the
        timestamps themselves are untouched, and the permuted schedule is
        itself exactly reproducible from the seed — see the ordering
        contract in :mod:`repro.sim.events`).  ``None`` restores FIFO.
        Only the sanitizer's perturbation replay uses this; it must be
        called before the events of interest are scheduled.
        """
        self._queue.set_perturbation(
            None if seed is None else random.Random(seed)
        )

    @property
    def perturbed(self) -> bool:
        """Whether equal-timestamp perturbation is currently installed."""
        return self._queue.perturbed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ClockError(f"cannot schedule in the past (delay={delay})")
        handle = self._queue.push(self._now + delay, callback, args)
        hook = self._hook_scheduled
        if hook is not None:
            hook(handle, self._current)
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise ClockError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        handle = self._queue.push(time, callback, args)
        hook = self._hook_scheduled
        if hook is not None:
            hook(handle, self._current)
        return handle

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at the current instant, after pending
        same-instant events already queued."""
        handle = self._queue.push(self._now, callback, args)
        hook = self._hook_scheduled
        if hook is not None:
            hook(handle, self._current)
        return handle

    def schedule_epilogue(
        self,
        callback: Callable[..., None],
        *args: Any,
        delay: float = 0.0,
        priority: int = 0,
    ) -> EventHandle:
        """Run ``callback(*args)`` at ``now + delay``, after **every**
        normal event scheduled for that instant — including ones not queued
        yet, and regardless of tie-break perturbation.  Epilogues at one
        instant run in ``priority`` order (then FIFO within a priority).

        This is the flush half of the buffer-then-flush pattern (e.g. the
        WLAN medium collects same-instant transmits and flushes them onto
        the channel in canonical order, at priority 0), which makes
        same-instant fan-in schedule-invariant by construction.  Higher
        priorities are for work that must deterministically follow those
        flushes — e.g. chaos fault application (priority 1), so a fault at
        *t* lands after the instant's normal traffic under every schedule.
        """
        if delay < 0:
            raise ClockError(f"cannot schedule in the past (delay={delay})")
        handle = self._queue.push(
            self._now + delay, callback, args, epilogue=True, priority=priority
        )
        hook = self._hook_scheduled
        if hook is not None:
            hook(handle, self._current)
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the single next event. Returns False when drained."""
        before = self._events_processed
        self.run(max_events=1)
        return self._events_processed != before

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        When ``until`` is given and no live event remains at or before it,
        the clock is advanced to exactly ``until`` even if the last event
        fired earlier, so repeated ``run(until=...)`` calls behave like
        wall-clock epochs.  A run cut short by ``max_events`` leaves the
        clock at the last event it fired.
        """
        if self._running:
            raise ClockError("kernel is already running (re-entrant run call)")
        self._running = True
        queue = self._queue
        heap = queue._heap
        pop = heappop
        executed = 0
        try:
            if self._monitor is None:
                while max_events is None or executed < max_events:
                    while heap and heap[0][3].cancelled:
                        pop(heap)
                    if not heap or (until is not None and heap[0][0] > until):
                        break
                    handle = pop(heap)[3]
                    self._now = handle.time
                    self._events_processed += 1
                    handle.callback(*handle.args)
                    executed += 1
            else:
                hook_begin = self._hook_begin
                hook_end = self._hook_end
                while max_events is None or executed < max_events:
                    while heap and heap[0][3].cancelled:
                        pop(heap)
                    if not heap or (until is not None and heap[0][0] > until):
                        break
                    handle = pop(heap)[3]
                    self._now = handle.time
                    self._events_processed += 1
                    self._current = handle
                    if hook_begin is not None:
                        hook_begin(handle)
                    try:
                        handle.callback(*handle.args)
                    finally:
                        if hook_end is not None:
                            hook_end(handle)
                        self._current = None
                    executed += 1
        finally:
            self._running = False
        if until is not None and until > self._now:
            next_time = queue.peek_time()
            if next_time is None or next_time > until:
                self._now = until

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain; guard against runaway loops."""
        self.run(max_events=max_events)
        if self._queue.peek_time() is not None:
            raise ClockError(
                f"kernel still busy after {max_events} events — runaway schedule?"
            )

    def reset(self, start_time: float = 0.0) -> None:
        """Drop all pending events and rewind the clock."""
        if self._running:
            raise ClockError("cannot reset a running kernel")
        self._queue.clear()
        self._now = float(start_time)
        self._events_processed = 0
