"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public functions of each ``repro`` package
(the *layers*: sim, runtime, net, mqtt, util, core, ml, sensors, obs) for
the length of a ``with`` block, and restores the originals on exit. While
:attr:`LayerTracer.active` is true, every wrapped call

* counts toward its layer's counters, and
* for timed wrappers, records a span (name, start, end, parent) and adds
  its *self time* — wall time in the call minus the time spent in nested
  wrapped calls — to its ``<layer>.<name>_self_s`` total.

Self time of a wrapped call includes any unwrapped code it calls, so the
layer self times plus the time outside every wrapped call add up to the
traced window's wall time exactly. Nothing is instrumented inside
``src/``: the wrappers live here and are installed by attribute
replacement on classes and modules.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, NamedTuple

__all__ = ["LayerTracer", "SPECS", "SELF_KEYS", "COUNT_KEYS"]

#: Spans kept in memory per tracer; later spans are counted, not stored.
MAX_SPANS = 2_000_000


def _frame_wire_size(args: tuple[Any, ...]) -> int:
    return args[1].wire_size


def _queue_length(args: tuple[Any, ...]) -> int:
    return args[0].queue_length


Probe = Callable[[tuple[Any, ...]], float]


class Spec(NamedTuple):
    """One wrapped function and the metrics it feeds."""

    module: str
    owner: str | None  # class name; None for a module-level function
    attr: str
    self_key: str | None  # None: counted only, time stays with the caller
    count_key: str | None
    #: Counters summing ``probe(args)`` per call.
    sums: tuple[tuple[str, Probe], ...] = ()
    #: Counters keeping the largest ``probe(args)`` seen.
    peaks: tuple[tuple[str, Probe], ...] = ()
    #: Also wrap the attribute in every subclass that defines its own.
    subclasses: bool = False


_WIRE_BYTES = (("net.bytes", _frame_wire_size),)

SPECS = (
    Spec("repro.sim.kernel", "SimKernel", "run", "sim.dispatch_self_s", None),
    Spec("repro.sim.resources", "CpuResource", "submit", "sim.cpu_submit_self_s",
         "sim.cpu_submits", peaks=(("sim.cpu_backlog_peak", _queue_length),)),
    Spec("repro.sim.trace", "Tracer", "emit", "sim.trace_emit_self_s", "sim.trace_emits"),
    Spec("repro.runtime.node", "Node", "execute", "runtime.execute_self_s",
         "runtime.executes"),
    Spec("repro.runtime.node", "Node", "send", "runtime.send_self_s", "runtime.sends"),
    Spec("repro.runtime.sim", "SimRuntime", "call_later", None, "runtime.timers"),
    Spec("repro.runtime.real", "AsyncioRuntime", "call_later", None, "runtime.timers"),
    Spec("repro.net.wlan", "WlanMedium", "transmit", "net.transmit_self_s", "net.frames",
         sums=_WIRE_BYTES),
    Spec("repro.net.inproc", "InprocNetwork", "transmit", "net.transmit_self_s",
         "net.frames", sums=_WIRE_BYTES),
    Spec("repro.net.medium", "NetworkInterface", "deliver", "net.deliver_self_s",
         "net.delivers"),
    Spec("repro.mqtt.client", "MqttClient", "publish", None, "mqtt.publishes"),
    Spec("repro.mqtt.packets", "Packet", "encode", "mqtt.encode_self_s", "mqtt.encodes"),
    Spec("repro.mqtt.packets", "Packet", "decode", "mqtt.decode_self_s", "mqtt.decodes"),
    Spec("repro.mqtt.topics", "TopicTree", "match", None, "mqtt.topic_matches"),
    Spec("repro.util.serialization", None, "encode_payload", "util.payload_encode_self_s",
         "util.payload_encodes"),
    Spec("repro.util.serialization", None, "decode_payload", "util.payload_decode_self_s",
         "util.payload_decodes"),
    Spec("repro.core.operators", "StreamOperator", "on_record", "core.on_record_self_s",
         "core.records_in", subclasses=True),
    Spec("repro.core.operators", "StreamOperator", "emit", "core.emit_self_s",
         "core.records_out"),
    Spec("repro.core.distribution", "PublishClass", "publish_record",
         "core.publish_self_s", None),
    Spec("repro.core.flow", "FlowRecord", "to_payload", "core.codec_self_s", None),
    Spec("repro.core.flow", "FlowRecord", "from_payload", "core.codec_self_s", None),
    Spec("repro.ml.classifier", "OnlineClassifier", "train", "ml.train_self_s",
         "ml.trains"),
    Spec("repro.ml.anomaly", "RobustZScore", "add", "ml.train_self_s", "ml.trains"),
    Spec("repro.ml.classifier", "OnlineClassifier", "classify", "ml.judge_self_s",
         "ml.judges"),
    Spec("repro.ml.anomaly", "RobustZScore", "calc_score", "ml.judge_self_s",
         "ml.judges"),
    Spec("repro.sensors.base", "SensorModel", "sample", "sensors.sample_self_s",
         "sensors.samples", subclasses=True),
    Spec("repro.obs.state", "ObsState", "start_span", "obs.span_self_s", "obs.spans"),
    Spec("repro.obs.state", "ObsState", "finish", "obs.span_self_s", None),
    Spec("repro.obs.sketch", "LatencySketch", "add", "obs.sketch_self_s",
         "obs.sketch_adds"),
    Spec("repro.obs.metrics", "MetricsRegistry", "snapshot", "obs.scrape_self_s",
         "obs.scrapes"),
)

#: ``(self_key, count_key, span name)`` of the broker and client datagram
#: receivers that ``Node.bind`` registers (wrapped by ``_wrap_bind``).
BIND_KEYS = (
    ("mqtt.broker_self_s", "mqtt.broker_in", "Broker.receive"),
    ("mqtt.client_self_s", "mqtt.client_in", "MqttClient.receive"),
)

#: Every ``*_self_s`` key a traced window reports.
SELF_KEYS = tuple(dict.fromkeys(
    [spec.self_key for spec in SPECS if spec.self_key] + [key for key, _, _ in BIND_KEYS]
))

#: Counters the wrappers maintain (window-level counters such as
#: ``sim.events`` are added by the workload).
COUNT_KEYS = tuple(dict.fromkeys(
    [spec.count_key for spec in SPECS if spec.count_key]
    + [key for spec in SPECS for key, _ in spec.sums + spec.peaks]
    + [key for _, key, _ in BIND_KEYS]
))


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


class LayerTracer:
    """Wrap the layers' public functions; collect counts, self times and
    spans while :attr:`active`.

    Use as a context manager: entering installs every wrapper, leaving
    restores every original (also on error). Components built inside the
    block keep wrapped bound methods, so build the system under test
    inside it and discard it afterwards.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.active = False
        self.counts: dict[str, float] = dict.fromkeys(COUNT_KEYS, 0)
        self.self_s: dict[str, float] = dict.fromkeys(SELF_KEYS, 0.0)
        # Open timed calls: [start, time in nested wrapped calls, span index].
        self._stack: list[list[Any]] = []
        self.span_names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.spans_dropped = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def timed(
        self,
        fn: Callable[..., Any],
        self_key: str,
        count_key: str | None = None,
        sums: tuple[tuple[str, Probe], ...] = (),
        peaks: tuple[tuple[str, Probe], ...] = (),
        name: str | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped: counted, and its self time added to ``self_key``."""
        tracer = self
        counts = self.counts
        self_s = self.self_s
        stack = self._stack
        span_id = self._span_name_id(name or getattr(fn, "__qualname__", self_key))
        clock = self.clock

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            if count_key is not None:
                counts[count_key] += 1
            for key, amount in sums:
                counts[key] += amount(args)
            for key, level in peaks:
                value = level(args)
                if value > counts[key]:
                    counts[key] = value
            frame = [clock(), 0.0, tracer._open_span(span_id)]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[0]
                self_s[self_key] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                tracer._close_span(frame[2], frame[0], end)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def counted(
        self,
        fn: Callable[..., Any],
        count_key: str,
        sums: tuple[tuple[str, Probe], ...] = (),
    ) -> Callable[..., Any]:
        """``fn`` wrapped: counted only; its time stays with the caller."""
        tracer = self
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.active:
                counts[count_key] += 1
                for key, amount in sums:
                    counts[key] += amount(args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _span_name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.span_names)
            self.span_names.append(name)
        return index

    def _open_span(self, name_id: int) -> int:
        index = len(self.span_start)
        if index >= MAX_SPANS:
            self.spans_dropped += 1
            return -1
        stack = self._stack
        self.span_name.append(name_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(stack[-1][2] if stack else -1)
        return index

    def _close_span(self, index: int, start: float, end: float) -> None:
        if index >= 0:
            self.span_start[index] = start
            self.span_end[index] = end

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def write_spans(self, path: Path) -> int:
        """Write the kept spans as gzip'd tab-separated lines
        ``index, name, start_s, end_s, parent`` (``parent`` is -1 for a
        root); returns the number written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.span_names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name_id, start, end, parent) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            ):
                out.write(f"{i}\t{names[name_id]}\t{start:.9f}\t{end:.9f}\t{parent}\n")
        return self.span_count

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn: Callable[..., Any], spec: Spec, name: str) -> Callable[..., Any]:
        if spec.self_key is None:
            return self.counted(fn, spec.count_key, spec.sums)  # type: ignore[arg-type]
        return self.timed(fn, spec.self_key, spec.count_key, spec.sums, spec.peaks, name=name)

    def _wrap_method(self, cls: type, spec: Spec) -> None:
        raw = cls.__dict__[spec.attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, spec, f"{cls.__name__}.{spec.attr}"))
        else:
            wrapped = self._wrap(raw, spec, f"{cls.__name__}.{spec.attr}")
        self._replace(cls, spec.attr, wrapped)

    def _wrap_function(self, module: Any, spec: Spec) -> None:
        original = getattr(module, spec.attr)
        wrapped = self._wrap(original, spec, f"{module.__name__}.{spec.attr}")
        # Modules that imported the function by name hold their own
        # reference; replace it everywhere in the package.
        for name, loaded in list(sys.modules.items()):
            if (
                (name == "repro" or name.startswith("repro."))
                and loaded is not None
                and loaded.__dict__.get(spec.attr) is original
            ):
                self._replace(loaded, spec.attr, wrapped)

    def _wrap_bind(self) -> None:
        """``Node.bind``: wrap broker and client datagram receivers."""
        from repro.mqtt.broker import Broker
        from repro.mqtt.client import MqttClient
        from repro.runtime.node import Node

        original = Node.__dict__["bind"]
        tracer = self

        def bind(node: Any, service: str, receiver: Any) -> None:
            owner = getattr(receiver, "__self__", None)
            for kind, (self_key, count_key, name) in zip((Broker, MqttClient), BIND_KEYS):
                if isinstance(owner, kind):
                    receiver = tracer.timed(receiver, self_key, count_key, name=name)
                    break
            original(node, service, receiver)

        self._replace(Node, "bind", bind)

    def __enter__(self) -> "LayerTracer":
        import importlib

        # Every operator class must exist before its on_record is wrapped.
        importlib.import_module("repro.core")
        try:
            for spec in SPECS:
                module = importlib.import_module(spec.module)
                if spec.owner is None:
                    self._wrap_function(module, spec)
                    continue
                cls = getattr(module, spec.owner)
                for target in [cls] + (_subclasses(cls) if spec.subclasses else []):
                    if spec.attr in target.__dict__:
                        self._wrap_method(target, spec)
            self._wrap_bind()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        """Put every replaced attribute back (idempotent)."""
        self.active = False
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        """Number of attributes currently replaced."""
        return len(self._restore)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def covered_s(self) -> float:
        """Sum of all layer self times."""
        return sum(self.self_s.values())
