"""MQTT control packets.

Packets travel as canonical-JSON datagrams (see
:mod:`repro.util.serialization`). The encoding is not MQTT's binary wire
format — the middleware never interoperates with a real broker — but the
packet *vocabulary* and state machines mirror MQTT 3.1.1, and every byte is
charged to the network model, so timing behaviour is faithful.

A PUBLISH payload is serialized once. The first :meth:`Packet.encode` of
a PUBLISH keeps the payload's canonical JSON bytes on the packet, and
every copy made from it — the broker's forwarded copies, QoS 1 dup
resends, retained deliveries — shares that one ``bytes`` object. The
envelope around it (``_t``, ``dup``, ``fwd_id``, ``headers``,
``packet_id``, ``qos``, ``retain``, ``topic``) is written per copy, in
``sort_keys`` order, so the result is byte-identical to
``encode_payload`` of the whole body. Two mechanisms therefore rest on
packets (payloads included) never being mutated after publish: these
shared payload bytes and :class:`_Wire`'s decode bypass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any

from repro.errors import ProtocolError, SerializationError
from repro.util.flags import flag_enabled
from repro.util.serialization import decode_payload, encode_payload

__all__ = ["PacketType", "Packet", "wire_fastpath_default"]


def wire_fastpath_default() -> bool:
    """Whether encoded wire bytes carry their packet for decode bypass.

    ``REPRO_WIRE_FASTPATH=0`` disables it for differential testing.
    """
    return flag_enabled("REPRO_WIRE_FASTPATH")


#: Module-level switch read on every encode/decode so tests can flip it.
WIRE_FASTPATH = wire_fastpath_default()


class _Wire(bytes):
    """Wire bytes that remember the :class:`Packet` they encode.

    Byte-for-byte identical to a plain ``bytes`` payload — same length,
    hash, equality, slicing — so every airtime/cost computation is
    unchanged. :meth:`Packet.decode` recognizes the exact type and returns
    the remembered packet, skipping the JSON round trip. Safe because
    packets are frozen, the network layer never mutates or reslices
    payload bytes (frames are dropped whole), and every receiver copies
    field contents it mutates. The same no-mutation-after-publish rule
    lets the broker's forwarded copies share the publisher's payload
    bytes (see the module docstring).
    """

    _packet: "Packet"


_float_repr = float.__repr__
_int_repr = int.__repr__

#: Deepest dict nesting the envelope writer handles itself (``headers``
#: holding the ``obs`` context is 2); deeper values take the fallback.
_MAX_DEPTH = 3


def _json_text(value: Any, depth: int = 0) -> str | None:
    """Canonical JSON text of a small envelope value, or None.

    Writes exact-type ``str``/``bool``/``int``/``None``, finite floats and
    dicts of these with ``str`` keys exactly as ``encode_payload`` would.
    Anything else — other types, subclasses, NaN/Inf, non-``str`` keys,
    deeper nesting — returns None, and the caller falls back to
    ``encode_payload`` of the whole body, which raises the usual error.
    """
    t = type(value)
    if t is str:
        return encode_basestring_ascii(value)
    if t is bool:
        return "true" if value else "false"
    if t is int:
        return _int_repr(value)
    if t is float:
        # x - x is 0.0 exactly when x is finite (NaN for NaN and ±Inf).
        return _float_repr(value) if value - value == 0.0 else None
    if value is None:
        return "null"
    if t is not dict or depth >= _MAX_DEPTH:
        return None
    try:
        keys = sorted(value)
    except TypeError:  # keys of mixed, unorderable types
        return None
    parts = []
    for key in keys:
        text = _json_text(value[key], depth + 1)
        if text is None or type(key) is not str:
            return None
        parts.append(encode_basestring_ascii(key) + ":" + text)
    return "{" + ",".join(parts) + "}"


#: PUBLISH fields in ``sort_keys`` order around the payload, with the text
#: that introduces each (``_t`` sorts before every lowercase key).
_BEFORE_PAYLOAD = tuple(
    (key, f',"{key}":') for key in ("dup", "fwd_id", "headers", "packet_id")
)
_AFTER_PAYLOAD = tuple((key, f',"{key}":') for key in ("qos", "retain", "topic"))


class PacketType(str, enum.Enum):
    """Subset of MQTT 3.1.1 control packet types used by the middleware."""

    CONNECT = "connect"
    CONNACK = "connack"
    PUBLISH = "publish"
    PUBACK = "puback"
    SUBSCRIBE = "subscribe"
    SUBACK = "suback"
    UNSUBSCRIBE = "unsubscribe"
    UNSUBACK = "unsuback"
    PINGREQ = "pingreq"
    PINGRESP = "pingresp"
    DISCONNECT = "disconnect"


@dataclass(frozen=True)
class Packet:
    """One MQTT control packet.

    ``fields`` carries the per-type variable header and payload:

    =========== ================================================================
    Type        Fields
    =========== ================================================================
    CONNECT     ``client_id``, ``clean_session``, ``keepalive_s``,
                optional ``will`` ({topic, payload, qos, retain})
    CONNACK     ``session_present``, ``return_code`` (0 = accepted)
    PUBLISH     ``topic``, ``payload`` (JSON value), ``qos``, ``retain``,
                ``dup``, ``packet_id`` (QoS 1 only), ``headers`` (dict the
                middleware uses for timestamps/ids)
    PUBACK      ``packet_id``
    SUBSCRIBE   ``packet_id``, ``filters`` ([[filter, qos], ...])
    SUBACK      ``packet_id``, ``granted`` ([qos, ...])
    UNSUBSCRIBE ``packet_id``, ``filters`` ([filter, ...])
    UNSUBACK    ``packet_id``
    =========== ================================================================
    """

    type: PacketType
    fields: dict[str, Any] = field(default_factory=dict)

    #: Canonical JSON of ``fields["payload"]`` (PUBLISH only), set by the
    #: first encode or handed over by :meth:`publish`/:meth:`as_dup` from
    #: the packet it copies. A plain class attribute, not a dataclass
    #: field: it takes no part in equality, and packets without it pay
    #: nothing.
    payload_bytes = None

    def encode(self) -> bytes:
        """Serialize to wire bytes."""
        data = None
        if self.type is PacketType.PUBLISH:
            data = self._encode_publish()
        if data is None:
            body = dict(self.fields)
            body["_t"] = self.type.value
            data = encode_payload(body)
        if WIRE_FASTPATH:
            wire = _Wire(data)
            wire._packet = self
            return wire
        return data

    def _encode_publish(self) -> bytes | None:
        """This PUBLISH's wire bytes, built around the payload bytes.

        Returns None when a field is outside what :func:`_json_text`
        writes, a field is unknown or missing the payload, or the payload
        does not encode; the caller then encodes the whole body,
        byte-identically or raising.
        """
        fields = self.fields
        head = '{"_t":"publish"'
        written = 0
        for key, label in _BEFORE_PAYLOAD:
            if key in fields:
                text = _json_text(fields[key])
                if text is None:
                    return None
                head += label + text
                written += 1
        tail = ""
        for key, label in _AFTER_PAYLOAD:
            if key in fields:
                text = _json_text(fields[key])
                if text is None:
                    return None
                tail += label + text
                written += 1
        tail += "}"
        if written + 1 != len(fields) or "payload" not in fields:
            return None
        payload_bytes = self.payload_bytes
        if payload_bytes is None:
            try:
                payload_bytes = encode_payload(fields["payload"])
            except SerializationError:
                return None
            object.__setattr__(self, "payload_bytes", payload_bytes)
        return b"".join(
            ((head + ',"payload":').encode(), payload_bytes, tail.encode())
        )

    def as_dup(self) -> "Packet":
        """This PUBLISH as a dup-flagged resend, sharing its payload bytes."""
        dup = Packet(self.type, {**self.fields, "dup": True})
        if self.payload_bytes is not None:
            object.__setattr__(dup, "payload_bytes", self.payload_bytes)
        return dup

    @classmethod
    def decode(cls, data: bytes) -> "Packet":
        """Parse wire bytes; raises ProtocolError on malformed packets."""
        if type(data) is _Wire:
            return data._packet
        body = decode_payload(data)
        if not isinstance(body, dict) or "_t" not in body:
            raise ProtocolError(f"not an MQTT packet: {body!r}")
        type_tag = body.pop("_t")
        try:
            packet_type = PacketType(type_tag)
        except ValueError:
            raise ProtocolError(f"unknown packet type {type_tag!r}") from None
        return cls(packet_type, body)

    def __getitem__(self, key: str) -> Any:
        try:
            return self.fields[key]
        except KeyError:
            raise ProtocolError(
                f"{self.type.value} packet missing field {key!r}"
            ) from None

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    # ------------------------------------------------------------------
    # Constructors for each packet type, so call sites read like protocol
    # ------------------------------------------------------------------

    @classmethod
    def connect(
        cls,
        client_id: str,
        clean_session: bool = True,
        keepalive_s: float = 60.0,
        will: dict[str, Any] | None = None,
    ) -> "Packet":
        fields: dict[str, Any] = {
            "client_id": client_id,
            "clean_session": clean_session,
            "keepalive_s": keepalive_s,
        }
        if will is not None:
            fields["will"] = will
        return cls(PacketType.CONNECT, fields)

    @classmethod
    def connack(cls, session_present: bool, return_code: int = 0) -> "Packet":
        return cls(
            PacketType.CONNACK,
            {"session_present": session_present, "return_code": return_code},
        )

    @classmethod
    def publish(
        cls,
        topic: str,
        payload: Any,
        qos: int = 0,
        retain: bool = False,
        dup: bool = False,
        packet_id: int | None = None,
        headers: dict[str, Any] | None = None,
        payload_bytes: bytes | None = None,
    ) -> "Packet":
        """A PUBLISH. ``payload_bytes``, when given, is the canonical
        encoding an earlier packet made of this same ``payload`` object;
        the new packet shares it instead of serializing again."""
        if qos not in (0, 1):
            raise ProtocolError(f"unsupported QoS {qos} (QoS 2 not implemented)")
        if qos == 1 and packet_id is None:
            raise ProtocolError("QoS 1 publish requires a packet_id")
        fields: dict[str, Any] = {
            "topic": topic,
            "payload": payload,
            "qos": qos,
            "retain": retain,
            "dup": dup,
            "headers": headers or {},
        }
        if packet_id is not None:
            fields["packet_id"] = packet_id
        packet = cls(PacketType.PUBLISH, fields)
        if payload_bytes is not None:
            object.__setattr__(packet, "payload_bytes", payload_bytes)
        return packet

    @classmethod
    def puback(cls, packet_id: int) -> "Packet":
        return cls(PacketType.PUBACK, {"packet_id": packet_id})

    @classmethod
    def subscribe(cls, packet_id: int, filters: list[tuple[str, int]]) -> "Packet":
        return cls(
            PacketType.SUBSCRIBE,
            {"packet_id": packet_id, "filters": [[f, q] for f, q in filters]},
        )

    @classmethod
    def suback(cls, packet_id: int, granted: list[int]) -> "Packet":
        return cls(PacketType.SUBACK, {"packet_id": packet_id, "granted": granted})

    @classmethod
    def unsubscribe(cls, packet_id: int, filters: list[str]) -> "Packet":
        return cls(
            PacketType.UNSUBSCRIBE, {"packet_id": packet_id, "filters": filters}
        )

    @classmethod
    def unsuback(cls, packet_id: int) -> "Packet":
        return cls(PacketType.UNSUBACK, {"packet_id": packet_id})

    @classmethod
    def pingreq(cls, incarnation: int | None = None) -> "Packet":
        # Keep-alives stamp the sender's boot count (announcements already
        # do), so liveness consumers can discard heartbeats a dead
        # incarnation left queued in the network.
        if incarnation is None:
            return cls(PacketType.PINGREQ)
        return cls(PacketType.PINGREQ, {"incarnation": incarnation})

    @classmethod
    def pingresp(cls) -> "Packet":
        return cls(PacketType.PINGRESP)

    @classmethod
    def disconnect(cls) -> "Packet":
        return cls(PacketType.DISCONNECT)
