import math

import pytest

from repro.errors import SerializationError
from repro.util.serialization import decode_payload, encode_payload, payload_size


def test_round_trip_scalars():
    for value in (None, True, False, 0, -17, 3.25, "hello", ""):
        assert decode_payload(encode_payload(value)) == value


def test_round_trip_nested():
    value = {"a": [1, 2, {"b": "x"}], "c": {"d": None}}
    assert decode_payload(encode_payload(value)) == value


def test_canonical_key_order():
    a = encode_payload({"b": 1, "a": 2})
    b = encode_payload({"a": 2, "b": 1})
    assert a == b


def test_tuple_becomes_list():
    assert decode_payload(encode_payload((1, 2))) == [1, 2]


def test_rejects_nan_and_inf():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(SerializationError):
            encode_payload({"x": bad})


def test_rejects_non_string_keys():
    with pytest.raises(SerializationError):
        encode_payload({1: "x"})


def test_rejects_unknown_types():
    with pytest.raises(SerializationError):
        encode_payload({"x": object()})
    with pytest.raises(SerializationError):
        encode_payload({"x": b"bytes"})


def test_error_mentions_path():
    with pytest.raises(SerializationError, match=r"\$\.outer\[1\]"):
        encode_payload({"outer": [1, object()]})


def test_decode_garbage():
    with pytest.raises(SerializationError):
        decode_payload(b"\xff\xfe")
    with pytest.raises(SerializationError):
        decode_payload(b"{not json")


def test_payload_size_matches_encoding():
    value = {"key": "value", "n": 1}
    assert payload_size(value) == len(encode_payload(value))


def test_dict_cycle_raises_naming_the_path():
    looped: dict = {"ok": 1}
    looped["self"] = looped
    with pytest.raises(SerializationError, match=r"circular reference at \$\.self"):
        encode_payload(looped)


def test_list_cycle_raises_naming_the_path():
    looped: list = [1]
    looped.append(looped)
    with pytest.raises(SerializationError, match=r"circular reference at \$\.a\[1\]"):
        encode_payload({"a": looped})


def test_shared_containers_are_not_cycles():
    shared = {"x": [1, 2]}
    assert encode_payload({"a": shared, "b": [shared, shared]}) == (
        b'{"a":{"x":[1,2]},"b":[{"x":[1,2]},{"x":[1,2]}]}'
    )
