"""MQTT client.

The middleware's *Publish class* and *Subscribe class* (Fig. 4) are thin
wrappers over this client. It provides:

* ``connect`` / ``disconnect`` with CONNACK tracking and op queueing —
  operations issued before the CONNACK are buffered and flushed in order;
* ``publish`` at QoS 0/1, with client-side retransmission (dup flag) until
  the broker's PUBACK arrives;
* ``subscribe(filter, callback)`` with client-side wildcard dispatch and
  automatic PUBACK for QoS 1 inbound messages;
* periodic PINGREQ keep-alives;
* optional auto-reconnect: broker silence beyond two keep-alive periods
  triggers a fresh CONNECT, and if the broker lost the session (restart,
  clean takeover) the client replays all of its subscriptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import NotConnectedError, ProtocolError
from repro.mqtt.packets import Packet, PacketType
from repro.mqtt.topics import TopicTree, validate_filter, validate_topic
from repro.net.address import Address
from repro.runtime.base import TimerHandle
from repro.runtime.component import Component
from repro.runtime.node import Node
from repro.runtime.state import tracked_state

__all__ = ["MqttClient", "Subscription"]

#: Callback signature for inbound messages: (topic, payload, packet).
MessageCallback = Callable[[str, Any, Packet], None]


@dataclass
class Subscription:
    """One client-side subscription entry."""

    topic_filter: str
    callback: MessageCallback
    qos: int


@dataclass
class _PendingPublish:
    packet: Packet
    retries_left: int
    timer: TimerHandle | None = None


class MqttClient(Component):
    """A client session against one broker."""

    def __init__(
        self,
        node: Node,
        broker: Address,
        client_id: str | None = None,
        clean_session: bool = True,
        keepalive_s: float = 30.0,
        retry_interval_s: float = 2.0,
        max_retries: int = 5,
        will: dict[str, Any] | None = None,
        auto_reconnect: bool = False,
        reconnect_initial_s: float | None = None,
        reconnect_max_s: float | None = None,
    ) -> None:
        client_id = client_id or node.runtime.ids.next(f"{node.name}.mqtt")
        super().__init__(node, f"mqtt.client.{client_id}")
        self.client_id = client_id
        self.broker = broker
        self.clean_session = clean_session
        self.keepalive_s = keepalive_s
        self.retry_interval_s = retry_interval_s
        self.max_retries = max_retries
        #: Exponential reconnect backoff bounds. ``None`` derives them from
        #: the keep-alive at attempt time (½× initial, 4× cap) so they stay
        #: sensible when ``keepalive_s`` is tuned after construction.
        self.reconnect_initial_s = reconnect_initial_s
        self.reconnect_max_s = reconnect_max_s
        #: Last-will testament: {"topic", "payload", "qos", "retain"},
        #: published by the broker if this session dies without DISCONNECT.
        #: May be (re)set before connect().
        self.will = dict(will) if will else None

        # Tracked: "is the session up" is exactly the kind of state a
        # publish path reads while a watchdog writes it at the same instant
        # — the sanitizer must see those accesses.
        self._connected = tracked_state(
            node.runtime, f"mqtt.client.{client_id}", "connected", False
        )
        self._connecting = False
        self._service = f"mqttc.{client_id}"
        self._subscriptions: list[Subscription] = []
        self._dispatch: TopicTree[Subscription] = TopicTree()
        self._pending_ops: list[Callable[[], None]] = []
        #: Bound on ops buffered while disconnected with auto-reconnect
        #: armed; beyond it the oldest buffered op is dropped (counted).
        self.max_pending_ops = 1024
        self.ops_dropped_disconnected = 0
        self._inflight: dict[int, _PendingPublish] = {}
        self._next_packet_id = 1
        self._ping_timer = None
        self._on_connected: list[Callable[[], None]] = []
        #: Fired after every CONNACK that re-establishes a session (i.e.
        #: not the first connect). Orchestration layers use this to
        #: re-announce/re-subscribe without polling.
        self.reconnect_listeners: list[Callable[[], None]] = []
        self.messages_received = 0
        self.messages_published = 0
        self.reconnects = 0
        self.connect_attempts = 0
        self.pubacks_received = 0
        self.publishes_abandoned = 0
        self.callback_errors = 0
        self._last_inbound = self.runtime.now
        self._ever_connected = False
        self._watchdog = None
        self._backoff_s: float | None = None
        self._reconnect_timer: TimerHandle | None = None
        self._backoff_rng = node.runtime.rng.stream(f"mqtt.backoff.{client_id}")
        self._retry_rng = node.runtime.rng.stream(f"mqtt.retry.{client_id}")
        if auto_reconnect:
            self.enable_auto_reconnect()
        node.bind(self._service, self._on_datagram)

    @property
    def address(self) -> Address:
        return self.node.address(self._service)

    @property
    def connected(self) -> bool:
        return bool(self._connected.value)

    @connected.setter
    def connected(self, up: bool) -> None:
        self._connected.value = up

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    def connect(self, on_connected: Callable[[], None] | None = None) -> None:
        """Send CONNECT; buffered operations flush after the CONNACK."""
        if on_connected is not None:
            self._on_connected.append(on_connected)
        if self.connected or self._connecting:
            return
        self._connecting = True
        self._send(
            Packet.connect(
                client_id=self.client_id,
                clean_session=self.clean_session,
                keepalive_s=self.keepalive_s,
                will=self.will,
            )
        )

    def enable_auto_reconnect(self) -> None:
        """Arm the silence watchdog (idempotent).

        While connected, the broker answers PINGREQs at least every
        ``keepalive_s / 2``; inbound silence for more than two keep-alive
        periods therefore means the session (or broker) is gone. The
        watchdog then starts exponential-backoff reconnect attempts
        (jittered, capped); once a CONNACK reporting no prior session
        state arrives, all subscriptions are replayed.
        """
        if self._watchdog is not None:
            return
        # Seeded phase offset: a check loop synchronized to the keep-alive
        # period would tick at the exact instants application timers of the
        # same period fire, making "did the publish beat the session-lost
        # verdict" an accident of event ordering.
        phase = self._retry_rng.uniform(0.05, 0.95) * self.keepalive_s
        self._watchdog = self.every(
            self.keepalive_s, self._check_liveness, start_delay=phase
        )

    def _check_liveness(self) -> None:
        if not self.connected:
            # Either a CONNECT is outstanding and unanswered, or an earlier
            # backoff attempt failed: schedule the next attempt (no-op when
            # one is already pending).
            self._begin_reconnect()
            return
        silence = self.runtime.now - self._last_inbound
        if silence > 2.0 * self.keepalive_s:
            self.trace("mqtt.client.session_lost", silence_s=silence)
            self.connected = False
            self._connecting = False
            if self._ping_timer is not None:
                self._ping_timer.cancel()
                self._ping_timer = None
            self.reconnects += 1
            self._begin_reconnect()

    # ------------------------------------------------------------------
    # Exponential-backoff reconnect
    # ------------------------------------------------------------------

    def _begin_reconnect(self) -> None:
        """Schedule the next reconnect attempt (idempotent while pending)."""
        if self._reconnect_timer is not None or self.connected:
            return
        delay = self._next_backoff()
        self.trace("mqtt.client.backoff", delay_s=round(delay, 6))
        self._reconnect_timer = self.after(delay, self._attempt_reconnect)

    def _next_backoff(self) -> float:
        initial = self.reconnect_initial_s
        if initial is None:
            initial = max(self.keepalive_s / 2.0, 1e-3)
        cap = self.reconnect_max_s
        if cap is None:
            cap = max(4.0 * self.keepalive_s, initial)
        if self._backoff_s is None:
            self._backoff_s = initial
        else:
            self._backoff_s = min(self._backoff_s * 2.0, cap)
        # ±15% jitter (seeded stream) de-synchronizes a fleet of clients
        # reconnecting after a broker restart.
        return self._backoff_s * self._backoff_rng.uniform(0.85, 1.15)

    def _attempt_reconnect(self) -> None:
        self._reconnect_timer = None
        if self.connected:
            return
        self.connect_attempts += 1
        self._connecting = False  # resend even if an old CONNECT is pending
        self.connect()

    def refresh_session(self) -> None:
        """Re-send CONNECT with the current ``will``/``keepalive_s``.

        The broker treats a CONNECT on a live session as a takeover and
        adopts the new parameters. Used by components that decide on a will
        after the session was first opened (e.g. the module agent, which is
        constructed after its module's client).
        """
        self._send(
            Packet.connect(
                client_id=self.client_id,
                clean_session=False,  # keep subscriptions across the refresh
                keepalive_s=self.keepalive_s,
                will=self.will,
            )
        )

    def disconnect(self) -> None:
        if not self.connected:
            return
        self._send(Packet.disconnect())
        self.connected = False
        if self._ping_timer is not None:
            self._ping_timer.cancel()
            self._ping_timer = None

    # ------------------------------------------------------------------
    # Publish / subscribe API
    # ------------------------------------------------------------------

    def publish(
        self,
        topic: str,
        payload: Any,
        qos: int = 0,
        retain: bool = False,
        headers: dict[str, Any] | None = None,
    ) -> None:
        """Publish ``payload`` on ``topic``.

        ``headers`` ride along with the message; the middleware stamps
        sensing timestamps and sample ids there, which is how the benchmark
        harness measures sensing-to-X latency exactly as the paper does.
        """
        validate_topic(topic)
        if qos not in (0, 1):
            raise ProtocolError(f"unsupported QoS {qos}")
        self._when_connected(lambda: self._do_publish(topic, payload, qos, retain, headers))

    def _do_publish(
        self,
        topic: str,
        payload: Any,
        qos: int,
        retain: bool,
        headers: dict[str, Any] | None,
    ) -> None:
        packet_id = self._allocate_packet_id() if qos == 1 else None
        packet = Packet.publish(
            topic=topic,
            payload=payload,
            qos=qos,
            retain=retain,
            packet_id=packet_id,
            headers=headers,
        )
        self.messages_published += 1
        if qos == 1 and packet_id is not None:
            pending = _PendingPublish(packet=packet, retries_left=self.max_retries)
            self._inflight[packet_id] = pending
            self._arm_retry(packet_id, pending)
        self._send(packet)

    def subscribe(
        self, topic_filter: str, callback: MessageCallback, qos: int = 0
    ) -> Subscription:
        """Register ``callback`` for messages matching ``topic_filter``."""
        validate_filter(topic_filter)
        subscription = Subscription(topic_filter, callback, min(qos, 1))
        self._subscriptions.append(subscription)
        self._dispatch.insert(topic_filter, subscription)
        self._when_connected(
            lambda: self._send(
                Packet.subscribe(
                    self._allocate_packet_id(), [(topic_filter, subscription.qos)]
                )
            )
        )
        return subscription

    def subscribe_many(
        self, entries: "list[tuple[str, MessageCallback]]", qos: int = 0
    ) -> list[Subscription]:
        """Register several filters, announced in a single SUBSCRIBE.

        Functionally equivalent to calling :meth:`subscribe` once per
        entry, but the broker sees one packet instead of N — a joining
        module registers its whole control plane without multiplying
        the connect storm on the shared medium.
        """
        subscriptions: list[Subscription] = []
        for topic_filter, callback in entries:
            validate_filter(topic_filter)
            subscription = Subscription(topic_filter, callback, min(qos, 1))
            self._subscriptions.append(subscription)
            self._dispatch.insert(topic_filter, subscription)
            subscriptions.append(subscription)
        filters = [(s.topic_filter, s.qos) for s in subscriptions]
        self._when_connected(
            lambda: self._send(
                Packet.subscribe(self._allocate_packet_id(), filters)
            )
        )
        return subscriptions

    def unsubscribe(self, subscription: Subscription) -> None:
        if subscription not in self._subscriptions:
            return
        self._subscriptions.remove(subscription)
        self._dispatch.remove(subscription.topic_filter, subscription)
        still_used = any(
            s.topic_filter == subscription.topic_filter for s in self._subscriptions
        )
        if not still_used:
            self._when_connected(
                lambda: self._send(
                    Packet.unsubscribe(
                        self._allocate_packet_id(), [subscription.topic_filter]
                    )
                )
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _when_connected(self, op: Callable[[], None]) -> None:
        if self.connected:
            op()
        elif self._connecting or self._watchdog is not None:
            # Connecting, or auto-reconnect is armed and will re-establish
            # the session: buffer the operation (bounded, oldest dropped —
            # fresh sensor data beats stale during an outage).
            if len(self._pending_ops) >= self.max_pending_ops:
                self._pending_ops.pop(0)
                self.ops_dropped_disconnected += 1
            self._pending_ops.append(op)
        else:
            raise NotConnectedError(
                f"client {self.client_id!r}: call connect() first"
            )

    def _allocate_packet_id(self) -> int:
        pid = self._next_packet_id
        self._next_packet_id = pid % 65535 + 1
        return pid

    def _send(self, packet: Packet) -> None:
        data = packet.encode()
        self.node.execute(
            "mqtt.send",
            self.node.send,
            self._service,
            self.broker,
            data,
            nbytes=len(data),
        )

    def _arm_retry(self, packet_id: int, pending: _PendingPublish) -> None:
        # ±10% jitter (seeded stream) keeps retransmissions from phase-
        # locking with the publish cadence: a fixed interval that is a
        # multiple of the sample period fires dup resends at the exact
        # instant of a fresh publish, a classic synchronized-retry artifact.
        interval = self.retry_interval_s * self._retry_rng.uniform(0.9, 1.1)
        pending.timer = self.after(interval, self._retry, packet_id)

    def _retry(self, packet_id: int) -> None:
        pending = self._inflight.get(packet_id)
        if pending is None:
            return
        if pending.retries_left <= 0:
            del self._inflight[packet_id]
            self.publishes_abandoned += 1
            self.trace("mqtt.client.give_up", packet_id=packet_id)
            return
        pending.retries_left -= 1
        dup = pending.packet.as_dup()
        pending.packet = dup
        self._send(dup)
        self._arm_retry(packet_id, pending)

    def _on_datagram(self, _source: Address, data: bytes) -> None:
        self._last_inbound = self.runtime.now
        try:
            packet = Packet.decode(data)
        except ProtocolError:
            self.trace("mqtt.client.garbage")
            return
        self.node.execute("mqtt.recv", self._handle, packet, nbytes=len(data))

    def _handle(self, packet: Packet) -> None:
        if packet.type is PacketType.CONNACK:
            self._on_connack(packet)
        elif packet.type is PacketType.PUBLISH:
            self._on_publish(packet)
        elif packet.type is PacketType.PUBACK:
            self.pubacks_received += 1
            pending = self._inflight.pop(packet["packet_id"], None)
            if pending is not None and pending.timer is not None:
                pending.timer.cancel()
        elif packet.type in (
            PacketType.SUBACK,
            PacketType.UNSUBACK,
            PacketType.PINGRESP,
        ):
            pass  # acknowledgements with no client-side state to update
        else:
            self.trace("mqtt.client.unexpected", type=packet.type.value)

    def _on_connack(self, packet: Packet) -> None:
        if int(packet.get("return_code", 0)) != 0:
            self.trace("mqtt.client.refused", code=packet.get("return_code"))
            self._connecting = False
            return
        session_present = bool(packet.get("session_present", False))
        was_reconnect = self._ever_connected
        self._ever_connected = True
        self.connected = True
        self._connecting = False
        self._backoff_s = None  # healthy again: next outage starts small
        if self._reconnect_timer is not None:
            self._reconnect_timer.cancel()
            self._reconnect_timer = None
        if self.keepalive_s > 0 and self._ping_timer is None:
            self._ping_timer = self.every(
                self.keepalive_s / 2.0,
                lambda: self._send(
                    Packet.pingreq(incarnation=self.node.incarnation)
                ),
            )
        if not session_present and self._subscriptions and was_reconnect:
            # The broker holds no state for us: replay every subscription
            # in one SUBSCRIBE so recovery doesn't flood the medium.
            self._send(
                Packet.subscribe(
                    self._allocate_packet_id(),
                    [(s.topic_filter, s.qos) for s in self._subscriptions],
                )
            )
            self.trace(
                "mqtt.client.resubscribed", count=len(self._subscriptions)
            )
        ops, self._pending_ops = self._pending_ops, []
        for op in ops:
            op()
        callbacks, self._on_connected = self._on_connected, []
        for callback in callbacks:
            callback()
        if was_reconnect:
            for listener in list(self.reconnect_listeners):
                listener()

    def _on_publish(self, packet: Packet) -> None:
        topic = packet["topic"]
        if int(packet.get("qos", 0)) == 1:
            self._send(Packet.puback(packet["packet_id"]))
        obs = self.runtime.obs
        if (
            obs is not None
            and obs.metrics is not None
            and bool(packet.get("dup", False))
        ):
            obs.metrics.counter("mqtt.redeliveries", node=self.node.name).inc()
        fwd_id = packet.get("fwd_id")
        if fwd_id is not None:
            # End-to-end QoS 1 accounting: this delivery attempt reached
            # the subscriber (possibly as a dup-flagged retransmission).
            self.trace(
                "mqtt.client.deliver",
                topic=topic,
                fwd_id=fwd_id,
                dup=bool(packet.get("dup", False)),
            )
        self.messages_received += 1
        for subscription in self._dispatch.match(topic):
            try:
                subscription.callback(topic, packet.get("payload"), packet)
            except Exception as exc:  # noqa: BLE001 - fault isolation
                # A broken handler must not block other subscriptions or
                # crash the delivery path.
                self.callback_errors += 1
                self.trace(
                    "mqtt.client.callback_error",
                    topic=topic,
                    error=f"{type(exc).__name__}: {exc}",
                )

    def on_stop(self) -> None:
        self.disconnect()
        if self._reconnect_timer is not None:
            self._reconnect_timer.cancel()
            self._reconnect_timer = None
        for pending in self._inflight.values():
            if pending.timer is not None:
                pending.timer.cancel()
        self._inflight.clear()
        self.node.unbind(self._service)
