"""Discrete-event simulation substrate.

The paper evaluates the middleware on six Raspberry Pis and a wireless LAN;
we do not have that hardware, so benchmarks run on this deterministic
discrete-event kernel instead (see DESIGN.md §2). The kernel is deliberately
small and classical:

* :class:`~repro.sim.kernel.SimKernel` — virtual clock + one pending-event
  queue (:class:`~repro.sim.events.EventQueue`), observed through at most
  one monitor.
* :class:`~repro.sim.resources.CpuResource` — single-server FIFO queue used
  to model a Pi-class CPU; queueing delay under load is what produces the
  paper's latency blow-up between 20 and 40 Hz.
* :class:`~repro.sim.trace.Tracer` — structured event trace for debugging
  and assertions in tests.
"""

from repro.sim.events import EventHandle, EventQueue
from repro.sim.kernel import SimKernel
from repro.sim.resources import CpuResource, ResourceStats
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "CpuResource",
    "EventHandle",
    "EventQueue",
    "ResourceStats",
    "SimKernel",
    "TraceRecord",
    "Tracer",
]
