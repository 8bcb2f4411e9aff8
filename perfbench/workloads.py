"""The benchmark's workloads, one repetition ("rep") at a time.

* ``fig5`` — the Fig. 5 "start watching" recipe on the simulator with the
  Pi cost model, observability off.
* ``knee`` — the Fig. 7/9 paper testbed at 40 Hz (past the Table II/III
  knee) with the online SLO engine on.
* ``asyncio`` — the same paper recipe on the real ``AsyncioRuntime``:
  three 200 Hz sensors, an open loop timed in wall-clock.

Each rep builds the system through the public entry points, measures one
window, and checks the outputs. The simulator reps observe the window by
wrapping ``SimRuntime.run`` for the length of the rep: the measured window
is the one call that advances the clock by exactly the workload's
duration; everything before it (build, deploy, settle) is set-up. The
window runs as :data:`WINDOW_CHUNKS` consecutive ``run(until=...)`` calls
(the kernel advances in epochs, so this fires the same events), each timed
by a :class:`~perfbench.measure.HostClock` that converts it to seconds at
a nominal host speed.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from perfbench.layers import LayerTracer
from perfbench.measure import HostClock, percentile

__all__ = [
    "Rep",
    "SimWorkload",
    "AsyncioWorkload",
    "WORKLOADS",
    "PINNED_SEEDS",
    "REFERENCE_PATH",
    "DeliveryBook",
    "pin_reference",
]

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Simulator seeds with pinned outputs per workload: ``--seed n`` runs
#: simulator seed ``base_seed + n % PINNED_SEEDS``.
PINNED_SEEDS = 10

#: Simulator calls the measured window is split into; short enough that
#: the host speed is nearly constant across one.
WINDOW_CHUNKS = 60


@dataclass
class Rep:
    """One repetition: set-up, one measured window, checked outputs.

    ``setup_s``, ``nominal_busy_s`` and ``nominal_cpu_s`` are in seconds
    at the nominal host speed (:class:`~perfbench.measure.HostClock`);
    the other times are as measured.
    """

    setup_s: float
    raw_setup_s: float
    wall_s: float
    cpu_s: float
    #: Process time the workload is judged by: wall for the simulator
    #: (it runs flat out), process CPU for asyncio (its wall is fixed).
    busy_s: float
    nominal_busy_s: float
    nominal_cpu_s: float
    #: Workload-clock seconds the window covered (simulated or runtime).
    modelled_s: float
    #: Samples sensed inside the window.
    samples: int
    latencies_ms: list[float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    lags_ms: list[float] = field(default_factory=list)
    #: Window-level layer counters (``sim.events``, ``sim.jobs_dropped``).
    layer: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, Any] = field(default_factory=dict)

    @property
    def speed(self) -> float:
        """Workload-clock seconds per nominal busy second (``sim_speed``)."""
        return self.modelled_s / self.nominal_busy_s

    @property
    def raw_speed(self) -> float:
        """Workload-clock seconds per busy second as measured."""
        return self.modelled_s / self.busy_s

    @property
    def cpu_ms_per_sample(self) -> float:
        return self.nominal_cpu_s * 1000.0 / self.samples


def _latency_percentiles(latencies_ms: list[float]) -> dict[str, float]:
    if not latencies_ms:
        return {"latency_p50_ms": 0.0, "latency_p99_ms": 0.0}
    return {
        "latency_p50_ms": round(percentile(latencies_ms, 50.0), 6),
        "latency_p99_ms": round(percentile(latencies_ms, 99.0), 6),
    }


# ---------------------------------------------------------------------------
# Simulator workloads
# ---------------------------------------------------------------------------


class _SimProbe:
    """Wrap ``SimRuntime.run`` for one rep: tap the outputs and time the
    measured window (activating ``tracer`` for exactly that window)."""

    def __init__(self, duration_s: float, tracer: LayerTracer | None) -> None:
        self.duration_s = duration_s
        self.tracer = tracer
        #: Samples host speed during set-up; stopped when the window opens.
        self.setup_clock = HostClock()
        self.runtime: Any = None
        self.counts = {"samples": 0, "trained": 0, "judged": 0, "alerts": 0}
        self.latencies_ms: list[float] = []
        self.window: dict[str, float] | None = None

    def _tap(self, key: str, latency: bool) -> Callable[[Any], None]:
        counts, latencies = self.counts, self.latencies_ms

        def tap(record: Any) -> None:
            counts[key] += 1
            if latency:
                latencies.append(record["latency_s"] * 1000.0)

        return tap

    def _see(self, runtime: Any) -> None:
        if self.runtime is runtime:
            return
        if self.runtime is not None:
            raise RuntimeError("one rep drove two simulated runtimes")
        self.runtime = runtime
        tracer = runtime.tracer
        tracer.tap("sensor.sample", self._tap("samples", latency=False))
        tracer.tap("actuator.applied", self._tap("alerts", latency=False))
        tracer.tap("ml.trained", self._tap("trained", latency=True))
        tracer.tap("ml.judged", self._tap("judged", latency=True))

    def dropped(self) -> int:
        return sum(
            node.cpu.stats.jobs_dropped
            for node in self.runtime.nodes.values()
            if node.cpu is not None
        )

    def __enter__(self) -> "_SimProbe":
        from repro.runtime.sim import SimRuntime

        original = SimRuntime.__dict__["run"]
        self._original = original
        probe = self

        def run(runtime: Any, until: float | None = None, max_events: int | None = None) -> None:
            probe._see(runtime)
            is_window = (
                probe.window is None
                and until is not None
                and max_events is None
                and abs(until - runtime.now - probe.duration_s) < 1e-6
            )
            if not is_window:
                original(runtime, until, max_events)
                return
            kernel = runtime.kernel
            events0, dropped0 = kernel.events_processed, probe.dropped()
            samples0 = probe.counts["samples"]
            sim0 = runtime.now
            tracer = probe.tracer
            probe.setup_clock.stop_sampling()
            clock = HostClock()
            if tracer is not None:
                tracer.active = True
            try:
                for k in range(1, WINDOW_CHUNKS):
                    clock.call(original, runtime, sim0 + probe.duration_s * k / WINDOW_CHUNKS)
                clock.call(original, runtime, until)
            finally:
                if tracer is not None:
                    tracer.active = False
            probe.window = {
                "clock": clock,
                "sim_s": runtime.now - sim0,
                "samples": probe.counts["samples"] - samples0,
                "sim.events": kernel.events_processed - events0,
                "sim.jobs_dropped": probe.dropped() - dropped0,
            }

        SimRuntime.run = run  # type: ignore[method-assign]
        return self

    def __exit__(self, *_exc: Any) -> None:
        from repro.runtime.sim import SimRuntime

        SimRuntime.run = self._original  # type: ignore[method-assign]

    def outputs(self) -> dict[str, Any]:
        """What the pinned reference fixes for this seed."""
        return {
            "events": self.runtime.kernel.events_processed,
            **self.counts,
            "jobs_dropped": self.dropped(),
            **_latency_percentiles(self.latencies_ms),
        }


def _load_reference() -> dict[str, Any]:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _compare(expected: dict[str, Any] | None, actual: dict[str, Any]) -> list[str]:
    if expected is None:
        return ["no pinned reference for this seed"]
    return [
        f"{key}: expected {value!r}, got {actual.get(key)!r}"
        for key, value in expected.items()
        if actual.get(key) != value
    ]


@dataclass(frozen=True)
class SimWorkload:
    """A workload on the simulator: ``call(sim_seed, duration_s)`` runs one
    public entry point; its ``run`` call that advances the clock by
    ``duration_s`` is the measured window."""

    name: str
    base_seed: int
    duration_s: float
    call: Callable[[int, float], Any]
    kind = "sim"

    def sim_seed(self, seed: int) -> int:
        return self.base_seed + seed % PINNED_SEEDS

    def rep(self, seed: int, tracer: LayerTracer | None = None) -> Rep:
        sim_seed = self.sim_seed(seed)
        gc.collect()
        with _SimProbe(self.duration_s, tracer) as probe:
            probe.setup_clock.start_sampling()
            try:
                self.call(sim_seed, self.duration_s)
            finally:
                probe.setup_clock.stop_sampling()
        window = probe.window
        if window is None:
            raise RuntimeError(f"{self.name}: no run call advanced the clock by {self.duration_s}s")
        outputs = probe.outputs()
        problems = _compare(_load_reference().get(self.name, {}).get(str(sim_seed)), outputs)
        clock, setup = window["clock"], probe.setup_clock
        return Rep(
            setup_s=setup.nominal_wall_s,
            raw_setup_s=setup.wall_s,
            wall_s=clock.wall_s,
            cpu_s=clock.cpu_s,
            busy_s=clock.wall_s,
            nominal_busy_s=clock.nominal_wall_s,
            nominal_cpu_s=clock.nominal_cpu_s,
            modelled_s=window["sim_s"],
            samples=int(window["samples"]),
            latencies_ms=probe.latencies_ms,
            attempted=1,
            failed=1 if problems else 0,
            problems=problems,
            layer={key: window[key] for key in ("sim.events", "sim.jobs_dropped")},
            outputs=outputs,
        )


FIG5_SEED = 55
FIG5_DURATION_S = 60.0


def _fig5(sim_seed: int, duration_s: float) -> Any:
    from repro.bench.calibration import pi_cost_model
    from repro.bench.scenarios import run_fig5_experiment

    return run_fig5_experiment(
        seed=sim_seed, duration_s=duration_s, observe=False, cost_model=pi_cost_model()
    )


KNEE_SEED = 1
KNEE_RATE_HZ = 40.0
KNEE_DURATION_S = 30.0


def _knee(sim_seed: int, duration_s: float) -> Any:
    from repro.bench.harness import run_paper_experiment

    return run_paper_experiment(KNEE_RATE_HZ, duration_s=duration_s, seed=sim_seed, slo=True)


# ---------------------------------------------------------------------------
# asyncio workload
# ---------------------------------------------------------------------------

ASYNC_RATE_HZ = 200.0
ASYNC_WINDOW_S = 5.0
#: Runtime seconds the loop runs after the sensors pause, so in-flight
#: batches complete before delivery is counted.
ASYNC_DRAIN_S = 0.25
#: Runtime seconds between full deployment and the measured window.
ASYNC_WARMUP_S = 0.3
ASYNC_DEPLOY_TIMEOUT_S = 10.0
SENSOR_TASKS = ("sense-a", "sense-b", "sense-c")
SINK_TASKS = ("train", "predict")


class DeliveryBook:
    """Open-loop bookkeeping for the asyncio workload.

    Each sensor's ``PeriodicTimer`` is drift-free, so its k-th sample was
    due at ``epoch + k * interval``. The book taps ``sensor.sample`` to
    give every sample its due time, sees every batch reaching a sink, and
    times each batch from the due time of its earliest contributor.
    """

    def __init__(self, sensors: int = len(SENSOR_TASKS)) -> None:
        self.sensors = sensors
        #: Sensor component name -> (epoch, interval) of its timer.
        self.timers: dict[str, tuple[float, float]] = {}
        self._fired: dict[str, int] = {}
        self.due: dict[str, float] = {}
        self.sensor_of: dict[str, str] = {}
        #: Runtime time the measured window opened (None before).
        self.window_start: float | None = None
        self.sampling = False
        #: Sensor -> ids of its samples due inside the window, in order.
        self.window_ids: dict[str, list[str]] = {}
        self.lags_ms: list[float] = []
        self.latencies_ms: list[float] = []
        self.delivered: dict[str, set[str]] = {}
        self.problems: list[str] = []

    def on_sample(self, record: Any) -> None:
        """``sensor.sample`` tap."""
        name = record.source
        timer = self.timers.get(name)
        if timer is None:
            self.problems.append(f"sample from {name} before its timer was seen")
            return
        k = self._fired.get(name, 0) + 1
        self._fired[name] = k
        epoch, interval = timer
        due = epoch + k * interval
        sample_id = record["sample_id"]
        self.due[sample_id] = due
        self.sensor_of[sample_id] = name
        if self.sampling and due >= self.window_start:  # type: ignore[operator]
            self.window_ids.setdefault(name, []).append(sample_id)
            self.lags_ms.append((record["sensed_at"] - due) * 1000.0)

    def on_result(self, sink: str, sample_ids: list[str], now: float) -> None:
        """A batch of ``sample_ids`` finished at ``sink`` at time ``now``."""
        sources = {self.sensor_of.get(sample_id) for sample_id in sample_ids}
        if None in sources or len(sources) != self.sensors or len(sample_ids) != self.sensors:
            self.problems.append(f"{sink}: batch {sample_ids} is not one sample per sensor")
            return
        seen = self.delivered.setdefault(sink, set())
        if seen.intersection(sample_ids):
            self.problems.append(f"{sink}: batch {sample_ids} repeats a delivered sample")
        seen.update(sample_ids)
        if self.window_start is not None and now >= self.window_start:
            due = min(self.due[sample_id] for sample_id in sample_ids)
            self.latencies_ms.append((now - due) * 1000.0)

    def watch_sink(self, sink: str, operator: Any, runtime: Any) -> None:
        """Report every record ``operator`` finishes (instance-level hook)."""
        on_record = operator.on_record
        book = self

        def watched(stream: str, record: Any) -> None:
            sample_ids = list(record.merged_ids or [record.sample_id])
            on_record(stream, record)
            book.on_result(sink, sample_ids, runtime.now)

        operator.on_record = watched

    def account(self) -> tuple[int, int]:
        """``(attempted, failed)``: window samples, and those that reached
        neither sink. A sensor's last sample may still wait in an align
        window whose round the stop cut short; it is left out unless a
        sink got it."""
        delivered: set[str] = set().union(*self.delivered.values())
        if len(self.window_ids) != self.sensors:
            self.problems.append(f"window saw samples from {sorted(self.window_ids)} only")
        attempted = failed = 0
        for ids in self.window_ids.values():
            if ids and ids[-1] not in delivered:
                ids = ids[:-1]
            attempted += len(ids)
            failed += sum(1 for sample_id in ids if sample_id not in delivered)
        return attempted, failed


@contextmanager
def _sensor_timers(book: DeliveryBook) -> Iterator[None]:
    """Record each sensor timer's epoch and interval as sensors deploy."""
    from repro.core.integration import SensorClass
    from repro.runtime.component import Component

    original = Component.__dict__["every"]

    def every(
        component: Any, interval: float, callback: Any, start_delay: float = 0.0
    ) -> Any:
        if isinstance(component, SensorClass):
            book.timers[component.name] = (component.runtime.now + start_delay, interval)
        return original(component, interval, callback, start_delay)

    Component.every = every  # type: ignore[method-assign]
    try:
        yield
    finally:
        Component.every = original  # type: ignore[method-assign]


def asyncio_rep(
    seed: int, tracer: LayerTracer | None = None, window_s: float = ASYNC_WINDOW_S
) -> Rep:
    from repro.bench.scenarios import (
        PREDICT_MODULE,
        SENSOR_MODULES,
        TRAIN_MODULE,
        build_paper_recipe,
    )
    from repro.core.middleware import IFoTCluster
    from repro.errors import DeploymentError
    from repro.runtime.real import AsyncioRuntime
    from repro.sensors.devices import FixedPayloadModel

    gc.collect()
    start = time.perf_counter()
    runtime = AsyncioRuntime(seed=seed)
    book = DeliveryBook()
    try:
        runtime.loop.set_exception_handler(
            lambda _loop, context: book.problems.append(
                f"event loop: {context.get('message')} {context.get('exception')!r}"
            )
        )
        runtime.tracer.enabled = False
        runtime.tracer.tap("sensor.sample", book.on_sample)
        cluster = IFoTCluster(runtime)
        for name in SENSOR_MODULES:
            cluster.add_module(name).attach_sensor("sample", FixedPayloadModel(values=3))
        cluster.add_module(TRAIN_MODULE)
        cluster.add_module(PREDICT_MODULE)
        runtime.run_for(0.1)
        deadline = start + ASYNC_DEPLOY_TIMEOUT_S
        with _sensor_timers(book):
            app = cluster.submit(build_paper_recipe(ASYNC_RATE_HZ))
            while True:
                try:
                    operators = {
                        task: app.operator(task) for task in SENSOR_TASKS + SINK_TASKS
                    }
                    break
                except DeploymentError:
                    if time.perf_counter() > deadline:
                        raise
                    runtime.run_for(0.01)
        for task in SINK_TASKS:
            book.watch_sink(task, operators[task], runtime)
        runtime.run_for(ASYNC_WARMUP_S)

        book.window_start = runtime.now
        book.sampling = True
        setup_s = time.perf_counter() - start
        if tracer is not None:
            tracer.active = True
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            runtime.run_for(window_s)
        finally:
            wall1, cpu1 = time.perf_counter(), time.process_time()
            if tracer is not None:
                tracer.active = False
        modelled_s = runtime.now - book.window_start
        book.sampling = False
        for task in SENSOR_TASKS:
            operators[task].pause()
        runtime.run_for(ASYNC_DRAIN_S)
        attempted, failed = book.account()
    finally:
        runtime.close()
    # Not host-calibrated: the window is a fixed wall time, and its
    # latencies are wall-clock by definition.
    return Rep(
        setup_s=setup_s,
        raw_setup_s=setup_s,
        wall_s=wall1 - wall0,
        cpu_s=cpu1 - cpu0,
        busy_s=cpu1 - cpu0,
        nominal_busy_s=cpu1 - cpu0,
        nominal_cpu_s=cpu1 - cpu0,
        modelled_s=modelled_s,
        samples=sum(len(ids) for ids in book.window_ids.values()),
        latencies_ms=book.latencies_ms,
        attempted=attempted,
        failed=failed,
        problems=book.problems,
        lags_ms=book.lags_ms,
        layer={"sim.events": 0, "sim.jobs_dropped": 0},
    )


@dataclass(frozen=True)
class AsyncioWorkload:
    """The paper recipe on ``AsyncioRuntime``; reps measure ``window_s``."""

    name = "asyncio"
    kind = "asyncio"

    def rep(
        self, seed: int, tracer: LayerTracer | None = None, window_s: float = ASYNC_WINDOW_S
    ) -> Rep:
        return asyncio_rep(seed, tracer, window_s)


WORKLOADS: dict[str, Any] = {
    "fig5": SimWorkload("fig5", FIG5_SEED, FIG5_DURATION_S, _fig5),
    "knee": SimWorkload("knee", KNEE_SEED, KNEE_DURATION_S, _knee),
    "asyncio": AsyncioWorkload(),
}


def pin_reference(names: list[str]) -> dict[str, Any]:
    """Recompute the pinned outputs of the simulator workloads ``names``
    for every pinned seed and write them to :data:`REFERENCE_PATH`.

    Only for a change that is meant to alter simulated behaviour; a
    performance change must leave these outputs untouched.
    """
    reference = _load_reference()
    for name in names:
        workload = WORKLOADS[name]
        if workload.kind != "sim":
            raise ValueError(f"{name}: only simulator workloads have pinned outputs")
        reference[name] = {
            str(workload.sim_seed(seed)): workload.rep(seed).outputs
            for seed in range(PINNED_SEEDS)
        }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return reference
