"""Differential equivalence suite for the kernel hot-path optimizations.

The speed campaign (event pooling, monitor-hook fast paths, the MQTT wire
fast path, broker fan-out caching) must be *invisible* to the simulation:
the schedule, the trace, and the profile are functions of (scenario,
seed) only, never of which optimizations happen to be enabled. These
tests run the same scenario under each toggle and require byte-identical
digests:

* ``REPRO_EVENT_POOL=0``  — event-handle pooling disabled;
* ``packets.WIRE_FASTPATH = False`` — every packet round-trips through
  canonical JSON bytes instead of the in-process decode bypass;
* profiler attached / detached — the kernel's hooked vs hook-free run
  loops (and the begin-only specialization between them).

A wire audit also checks every packet those runs encode against the
canonical encoding of its whole body: a PUBLISH envelope is written by
hand around payload bytes shared between copies, and must never differ
from ``encode_payload`` of the body by a single byte.
"""

from __future__ import annotations

import pytest

from repro.chaos import SCENARIOS, run_scenario, trace_digest
from repro.mqtt import packets
from repro.mqtt.client import MqttClient
from repro.prof import enable_profiling, profile_digest
from repro.util.serialization import encode_payload

CHAOS_SCENARIOS = sorted(SCENARIOS)


def _digest_excluding_prof(tracer) -> str:
    """The trace digest minus profiler-emitted sampling records.

    Attaching the profiler adds periodic ``prof``-source utilization
    records (and the sampler events that produce them) — legitimately.
    Hooks ON/OFF equivalence therefore compares the *application* trace:
    everything except what the observer itself wrote.
    """
    import hashlib

    digest = hashlib.sha256()
    for record in tracer:
        if record.source == "prof":
            continue
        line = (
            f"{record.time!r}|{record.source}|{record.event}"
            f"|{sorted(record.fields.items())!r}\n"
        )
        digest.update(line.encode())
    return digest.hexdigest()

#: Short fig5 run — equivalence is about digests matching across
#: configurations, not about the full 30 s workload.
FIG5_DURATION_S = 8.0


# ----------------------------------------------------------------------
# Chaos scenarios: all 7, every toggle
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def chaos_baseline():
    """Every scenario once under default toggles (pooling on, wire fast
    path on, no monitor hooks) — the reference digests."""
    return {name: run_scenario(name, seed=0) for name in CHAOS_SCENARIOS}


@pytest.mark.parametrize("name", CHAOS_SCENARIOS)
def test_pooling_off_equivalence(name, chaos_baseline, monkeypatch):
    monkeypatch.setenv("REPRO_EVENT_POOL", "0")
    unpooled = run_scenario(name, seed=0)
    base = chaos_baseline[name]
    assert unpooled.trace_records == base.trace_records
    assert unpooled.trace_digest == base.trace_digest
    assert unpooled.report.ok == base.report.ok


@pytest.mark.parametrize("name", CHAOS_SCENARIOS)
def test_hooks_on_equivalence(name, chaos_baseline):
    """Attaching the profiler adds only its own ``prof`` sampling records;
    the application trace is untouched."""
    profiled = run_scenario(name, seed=0, profile=True)
    base = chaos_baseline[name]
    assert profiled.tracer is not None and base.tracer is not None
    assert _digest_excluding_prof(profiled.tracer) == _digest_excluding_prof(
        base.tracer
    )
    assert profiled.profiler is not None
    assert profiled.profiler.events_profiled > 0


@pytest.mark.parametrize("name", CHAOS_SCENARIOS)
def test_wire_fastpath_off_equivalence(name, chaos_baseline, monkeypatch):
    monkeypatch.setattr(packets, "WIRE_FASTPATH", False)
    slow = run_scenario(name, seed=0)
    base = chaos_baseline[name]
    assert slow.trace_records == base.trace_records
    assert slow.trace_digest == base.trace_digest


@pytest.mark.parametrize("name", CHAOS_SCENARIOS)
def test_profile_digest_pool_invariance(name, monkeypatch):
    """The profile (busy-time attribution, event counts) is identical
    whether or not handles are recycled through the pool."""
    pooled = run_scenario(name, seed=0, profile=True)
    monkeypatch.setenv("REPRO_EVENT_POOL", "0")
    unpooled = run_scenario(name, seed=0, profile=True)
    assert pooled.profiler is not None and unpooled.profiler is not None
    assert (
        unpooled.profiler.events_profiled == pooled.profiler.events_profiled
    )
    assert profile_digest(unpooled.profiler) == profile_digest(pooled.profiler)
    assert unpooled.trace_digest == pooled.trace_digest


# ----------------------------------------------------------------------
# Fig. 5: the benchmark workload itself
# ----------------------------------------------------------------------


def _run_fig5(profiled: bool = True):
    from repro.bench.calibration import pi_cost_model
    from repro.bench.scenarios import run_fig5_experiment

    runtime = run_fig5_experiment(
        seed=55,
        duration_s=FIG5_DURATION_S,
        observe=False,
        prepare=(lambda rt: enable_profiling(rt)) if profiled else None,
        cost_model=pi_cost_model(),
    )
    return runtime


@pytest.fixture(scope="module")
def fig5_baseline():
    runtime = _run_fig5(profiled=True)
    assert runtime.prof is not None
    return {
        "trace_digest": trace_digest(runtime.tracer),
        "app_trace_digest": _digest_excluding_prof(runtime.tracer),
        "trace_records": len(runtime.tracer),
        "events": runtime.prof.events_profiled,
        "profile_digest": profile_digest(runtime.prof),
    }


def test_fig5_pooling_off_equivalence(fig5_baseline, monkeypatch):
    monkeypatch.setenv("REPRO_EVENT_POOL", "0")
    runtime = _run_fig5(profiled=True)
    assert trace_digest(runtime.tracer) == fig5_baseline["trace_digest"]
    assert len(runtime.tracer) == fig5_baseline["trace_records"]
    assert runtime.prof.events_profiled == fig5_baseline["events"]
    assert profile_digest(runtime.prof) == fig5_baseline["profile_digest"]


def test_fig5_wire_fastpath_off_equivalence(fig5_baseline, monkeypatch):
    monkeypatch.setattr(packets, "WIRE_FASTPATH", False)
    runtime = _run_fig5(profiled=True)
    assert trace_digest(runtime.tracer) == fig5_baseline["trace_digest"]
    assert len(runtime.tracer) == fig5_baseline["trace_records"]
    assert runtime.prof.events_profiled == fig5_baseline["events"]
    assert profile_digest(runtime.prof) == fig5_baseline["profile_digest"]


def test_fig5_hooks_off_equivalence(fig5_baseline):
    """With no monitor attached the kernel takes its hook-free loop; the
    application trace must not notice."""
    runtime = _run_fig5(profiled=False)
    assert runtime.prof is None
    assert trace_digest(runtime.tracer) == fig5_baseline["app_trace_digest"]


def test_fig5_all_toggles_off_equivalence(fig5_baseline, monkeypatch):
    """Belt and braces: every optimization off at once, hooks on."""
    monkeypatch.setenv("REPRO_EVENT_POOL", "0")
    monkeypatch.setattr(packets, "WIRE_FASTPATH", False)
    runtime = _run_fig5(profiled=True)
    assert trace_digest(runtime.tracer) == fig5_baseline["trace_digest"]
    assert profile_digest(runtime.prof) == fig5_baseline["profile_digest"]


# ----------------------------------------------------------------------
# SLO engine: off = byte-identical, on = app-trace invisible
# ----------------------------------------------------------------------


def _digest_excluding(tracer, sources: frozenset) -> str:
    """Trace digest minus records the given observer sources wrote.

    The SLO engine registers extra gauges in the shared metrics registry,
    so ``obs.metrics`` scrape records legitimately differ with it on; the
    *application* trace (everything not written by an observer) must not.
    """
    import hashlib

    digest = hashlib.sha256()
    for record in tracer:
        if record.source in sources:
            continue
        line = (
            f"{record.time!r}|{record.source}|{record.event}"
            f"|{sorted(record.fields.items())!r}\n"
        )
        digest.update(line.encode())
    return digest.hexdigest()


_OBSERVER_SOURCES = frozenset({"slo", "obs", "prof"})


def _suppress_status_publisher(monkeypatch):
    """Install enable_slo without the retained-status MQTT publisher.

    The engine's *computation* (taps, timers, sketches) must be invisible
    to the application trace; the retained ``ifot/ctl/status/slo``
    publication is deliberate control-plane traffic that shares the
    simulated WLAN and therefore legitimately perturbs frame timing.
    Equivalence is asserted on the former.
    """
    import repro.obs.slo as slo_module

    real_enable = slo_module.enable_slo

    def quiet_enable(runtime, recipe=None, flows=None, cluster=None, **kwargs):
        return real_enable(
            runtime, recipe=recipe, flows=flows, cluster=None, **kwargs
        )

    monkeypatch.setattr(slo_module, "enable_slo", quiet_enable)


def _run_fig5_observed(slo: bool):
    from repro.bench.scenarios import run_fig5_experiment

    return run_fig5_experiment(
        seed=55, duration_s=FIG5_DURATION_S, observe=True, slo=slo
    )


def test_fig5_slo_disabled_is_byte_identical(monkeypatch):
    """``slo=True`` with REPRO_SLO=0 must not move a single byte relative
    to the plain observed run — the kill switch is a true no-op."""
    base = _run_fig5_observed(slo=False)
    monkeypatch.setenv("REPRO_SLO", "0")
    gated = _run_fig5_observed(slo=True)
    assert gated.slo is None
    assert trace_digest(gated.tracer) == trace_digest(base.tracer)
    assert len(gated.tracer) == len(base.tracer)


def test_fig5_slo_on_leaves_app_trace_unchanged(monkeypatch):
    _suppress_status_publisher(monkeypatch)
    base = _run_fig5_observed(slo=False)
    slo_run = _run_fig5_observed(slo=True)
    assert slo_run.slo is not None
    assert _digest_excluding(
        slo_run.tracer, _OBSERVER_SOURCES
    ) == _digest_excluding(base.tracer, _OBSERVER_SOURCES)


def test_failover_slo_disabled_is_byte_identical(monkeypatch):
    base = run_scenario("failover", seed=0, observe=True)
    monkeypatch.setenv("REPRO_SLO", "0")
    gated = run_scenario("failover", seed=0, slo=True)
    assert gated.slo_engine is None
    assert gated.trace_digest == base.trace_digest
    assert gated.trace_records == base.trace_records


def test_failover_slo_on_leaves_app_trace_unchanged(monkeypatch):
    _suppress_status_publisher(monkeypatch)
    base = run_scenario("failover", seed=0, observe=True)
    slo_run = run_scenario("failover", seed=0, slo=True)
    assert slo_run.slo_engine is not None
    # The engine wrote its own records (the crash window pages)...
    assert any(r.source == "slo" for r in slo_run.tracer)
    # ...but the application's records are untouched.
    assert _digest_excluding(
        slo_run.tracer, _OBSERVER_SOURCES
    ) == _digest_excluding(base.tracer, _OBSERVER_SOURCES)


# ----------------------------------------------------------------------
# Wire audit: every encoded packet is its body's canonical encoding
# ----------------------------------------------------------------------


class _WireAudit:
    """Wraps ``Packet.encode``; compares each result with
    ``encode_payload`` of the packet's whole body."""

    def __init__(self, monkeypatch) -> None:
        self.checked = 0
        self.publishes = 0
        self.mismatches: list[tuple[bytes, bytes]] = []
        real = packets.Packet.encode

        def encode(packet):
            data = real(packet)
            expected = encode_payload({**packet.fields, "_t": packet.type.value})
            self.checked += 1
            self.publishes += packet.type is packets.PacketType.PUBLISH
            if bytes(data) != expected:
                self.mismatches.append((bytes(data), expected))
            return data

        monkeypatch.setattr(packets.Packet, "encode", encode)


@pytest.mark.parametrize("fastpath", [True, False], ids=["wire-on", "wire-off"])
@pytest.mark.parametrize("name", CHAOS_SCENARIOS)
def test_chaos_wire_bytes_are_canonical(name, fastpath, monkeypatch):
    monkeypatch.setattr(packets, "WIRE_FASTPATH", fastpath)
    audit = _WireAudit(monkeypatch)
    run_scenario(name, seed=0, observe=True)
    assert audit.publishes > 0
    assert audit.mismatches == []


@pytest.mark.parametrize("observe", [False, True], ids=["obs-off", "obs-on"])
def test_fig5_wire_bytes_are_canonical(observe, monkeypatch):
    from repro.bench.calibration import pi_cost_model
    from repro.bench.scenarios import run_fig5_experiment

    audit = _WireAudit(monkeypatch)
    run_fig5_experiment(
        seed=55,
        duration_s=FIG5_DURATION_S,
        observe=observe,
        cost_model=pi_cost_model(),
    )
    assert audit.publishes > 1000
    assert audit.mismatches == []


def test_fig5_serializes_each_published_payload_once(monkeypatch):
    """Forwards, dup resends and retained deliveries reuse the
    publisher's payload bytes: payload serializations on the packet path
    equal client publishes (each forward used to serialize it again)."""
    counts = {"payload": 0, "publishes": 0}

    def counting_encode(value):
        # A bare payload, or a whole PUBLISH body (payload inside).
        if type(value) is not dict or value.get("_t", "publish") == "publish":
            counts["payload"] += 1
        return encode_payload(value)

    real_publish = MqttClient._do_publish

    def counting_publish(self, *args):
        counts["publishes"] += 1
        return real_publish(self, *args)

    monkeypatch.setattr(packets, "encode_payload", counting_encode)
    monkeypatch.setattr(MqttClient, "_do_publish", counting_publish)
    runtime = _run_fig5(profiled=False)
    forwards = len(runtime.tracer.select(event="mqtt.broker.forward"))
    assert forwards > 1000
    assert counts["publishes"] > 1000
    assert counts["payload"] == counts["publishes"]
