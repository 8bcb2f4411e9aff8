"""Property tests: a PUBLISH encodes to the canonical bytes of its body.

``Packet.encode`` writes a PUBLISH envelope itself and splices in the
payload's canonical JSON, which forwarded copies and dup resends share
with the packet they were made from. Whatever the fields hold, the wire
bytes must equal ``encode_payload`` of the whole body, and anything that
body encoding rejects must still be rejected with ``SerializationError``.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.mqtt.packets import Packet, PacketType
from repro.util.serialization import encode_payload

#: Quotes, backslashes, control characters and non-ASCII (surrogates
#: excluded: MQTT topics are UTF-8 strings).
text = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\n\t\x00\x1f\x7f é€😀'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)
finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-(2**70), max_value=2**70),
    finite, text,
)
#: Headers nest dicts (the obs context is a dict inside headers) and may
#: hold lists, which the envelope writer leaves to the fallback.
header_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.dictionaries(text, children, max_size=3),
        st.lists(children, max_size=3),
    ),
    max_leaves=12,
)
headers = st.dictionaries(text, header_values, max_size=4)
payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(text, children, max_size=4),
    ),
    max_leaves=20,
)


@st.composite
def publish_packets(draw):
    qos = draw(st.sampled_from([0, 1]))
    packet_id = draw(st.integers(min_value=1, max_value=65535))
    if qos == 0:
        packet_id = draw(st.sampled_from([None, packet_id]))
    packet = Packet.publish(
        topic=draw(text),
        payload=draw(payloads),
        qos=qos,
        retain=draw(st.booleans()),
        dup=draw(st.booleans()),
        packet_id=packet_id,
        headers=draw(headers),
    )
    if draw(st.booleans()):
        packet.fields["fwd_id"] = draw(text)
    return packet


def canonical(packet: Packet) -> bytes:
    return encode_payload({**packet.fields, "_t": packet.type.value})


@given(packet=publish_packets())
def test_encode_is_the_canonical_body_encoding(packet):
    assert bytes(packet.encode()) == canonical(packet)


@given(packet=publish_packets(), hop_headers=headers, fwd_id=st.none() | text)
def test_forwarded_copy_with_shared_bytes_matches_cold_encode(
    packet, hop_headers, fwd_id
):
    packet.encode()  # the producer's encode caches the payload bytes
    warm = Packet.publish(
        topic=packet["topic"],
        payload=packet["payload"],
        qos=packet["qos"],
        retain=packet["retain"],
        packet_id=packet.get("packet_id"),
        headers=hop_headers,
        payload_bytes=packet.payload_bytes,
    )
    cold = Packet(PacketType.PUBLISH, dict(warm.fields))
    if fwd_id is not None:
        warm.fields["fwd_id"] = cold.fields["fwd_id"] = fwd_id
    assert bytes(warm.encode()) == bytes(cold.encode()) == canonical(cold)
    if packet.payload_bytes is not None:  # None: the body took the fallback
        assert packet.payload_bytes == encode_payload(packet["payload"])
        assert warm.payload_bytes is packet.payload_bytes
    dup = warm.as_dup()
    assert dup.payload_bytes is warm.payload_bytes
    assert bytes(dup.encode()) == canonical(dup)


BAD_HEADERS = [
    ({"x": math.nan}, r"non-finite float at \$\.headers\.x"),
    ({"x": math.inf}, r"non-finite float at \$\.headers\.x"),
    ({"obs": {"t": -math.inf}}, r"non-finite float at \$\.headers\.obs\.t"),
    ({1: "x"}, r"non-string key at \$\.headers"),
    ({"obs": {None: 1}}, r"non-string key at \$\.headers\.obs"),
    ({"x": object()}, r"unencodable type at \$\.headers\.x: object"),
    ({"x": b"raw"}, r"unencodable type at \$\.headers\.x: bytes"),
]


@pytest.mark.parametrize("bad, message", BAD_HEADERS)
def test_bad_headers_still_raise(bad, message):
    with pytest.raises(SerializationError, match=message):
        Packet.publish("t", {"v": 1}, headers=bad).encode()


def test_self_referential_headers_raise():
    looped: dict = {"ts": 1.0}
    looped["self"] = looped
    with pytest.raises(
        SerializationError, match=r"circular reference at \$\.headers\.self"
    ):
        Packet.publish("t", {"v": 1}, headers=looped).encode()


@given(bad=st.sampled_from([math.nan, math.inf, -math.inf, object(), {1: 2}]))
def test_bad_payload_and_topic_still_raise(bad):
    with pytest.raises(SerializationError):
        Packet.publish("t", {"v": [1, bad]}).encode()
    with pytest.raises(SerializationError):
        Packet(PacketType.PUBLISH, {"topic": bad, "payload": 1}).encode()
