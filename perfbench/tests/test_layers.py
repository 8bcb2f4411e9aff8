"""LayerTracer: self-time subtraction, spans, and wrapper removal."""

import itertools

import pytest

import repro.mqtt.packets as packets
import repro.util.serialization as serialization
from perfbench.layers import SELF_KEYS, LayerTracer, _subclasses
from repro.core.operators import StreamOperator
from repro.mqtt.packets import Packet, PacketType
from repro.runtime.node import Node


def _originals():
    operators = {cls: cls.__dict__.get("on_record") for cls in _subclasses(StreamOperator)}
    return {
        "encode": Packet.__dict__["encode"],
        "decode": Packet.__dict__["decode"],
        "bind": Node.__dict__["bind"],
        "encode_payload": serialization.encode_payload,
        "packets.encode_payload": packets.encode_payload,
        "on_record": operators,
    }


def _publish() -> Packet:
    return Packet(PacketType.PUBLISH, {"topic": "t", "payload": {"v": 1}, "qos": 0})


def test_nested_call_self_time_is_subtracted():
    # One clock tick per reading: Packet.encode enters at 0, the nested
    # encode_payload runs 1..2, Packet.encode leaves at 3.
    ticks = itertools.count()
    with LayerTracer(clock=lambda: float(next(ticks))) as tracer:
        tracer.active = True
        _publish().encode()
        tracer.active = False
    assert tracer.counts["mqtt.encodes"] == 1
    assert tracer.counts["util.payload_encodes"] == 1
    assert tracer.self_s["mqtt.encode_self_s"] == 2.0
    assert tracer.self_s["util.payload_encode_self_s"] == 1.0
    assert tracer.covered_s() == 3.0
    assert tracer.span_count == 2
    names = [tracer.span_names[i] for i in tracer.span_name]
    assert names == ["Packet.encode", "repro.util.serialization.encode_payload"]
    assert list(tracer.span_parent) == [-1, 0]
    assert list(tracer.span_start) == [0.0, 1.0]
    assert list(tracer.span_end) == [3.0, 2.0]


def test_inactive_tracer_counts_nothing():
    with LayerTracer() as tracer:
        _publish().encode()
    assert all(value == 0 for value in tracer.counts.values())
    assert tracer.covered_s() == 0.0
    assert tracer.span_count == 0


def test_wrappers_are_removed_on_exit_and_on_error():
    before = _originals()
    with LayerTracer() as tracer:
        assert tracer.installed > len(SELF_KEYS)
        assert Packet.__dict__["encode"] is not before["encode"]
        assert packets.encode_payload is not before["packets.encode_payload"]
    assert tracer.installed == 0
    assert _originals() == before
    with pytest.raises(RuntimeError):
        with LayerTracer():
            raise RuntimeError("boom")
    assert _originals() == before
    # The restored classmethod still decodes.
    wire = bytes(_publish().encode())
    assert Packet.decode(wire).type is PacketType.PUBLISH


def test_traced_run_accounts_every_second_and_cleans_up():
    from perfbench.run import per_layer_metrics, traced_run
    from perfbench.workloads import WORKLOADS

    before = _originals()
    baseline, rep, tracer = traced_run(WORKLOADS["asyncio"], seed=3, seconds=0.6)
    assert _originals() == before
    assert not rep.problems
    values = per_layer_metrics(baseline, rep, tracer)
    self_total = sum(values[key] for key in SELF_KEYS)
    assert self_total + values["trace.uncovered_s"] == pytest.approx(values["trace.wall_s"])
    assert values["trace.uncovered_s"] >= 0.0
    assert values["sim.dispatch_self_s"] == 0.0
    assert values["obs.span_self_s"] == 0.0
    assert values["sensors.samples"] > 0
    assert values["mqtt.broker_in"] > 0 and values["mqtt.client_in"] > 0
