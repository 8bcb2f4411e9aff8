"""Compact payload encoding for flow records.

The paper's experiment sends 32-byte sensor samples as MQTT payloads. We
encode payloads as canonical JSON (UTF-8) — dependency-free, deterministic,
and debuggable — and expose :func:`payload_size` so the network model charges
airtime for the *actual* wire size of every message.

Values survive a round trip exactly for: ``None``, ``bool``, ``int``,
``float``, ``str``, and (nested) ``list``/``dict`` of those. Tuples are
encoded as lists (the usual JSON lossy-ness) — callers that care use lists.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.errors import SerializationError

__all__ = ["encode_payload", "decode_payload", "payload_size"]

_ALLOWED_SCALARS = (type(None), bool, int, float, str)


def _check_encodable(
    value: Any, path: str = "$", _open: set[int] | None = None
) -> None:
    """Slow validation pass that names the offending path — error cases only.

    ``_open`` holds the ids of the containers on the path from the root
    to ``value``; meeting one of them again means ``value`` contains
    itself, which no JSON text can represent.
    """
    if isinstance(value, _ALLOWED_SCALARS):
        if isinstance(value, float) and not math.isfinite(value):
            raise SerializationError(f"non-finite float at {path}: {value!r}")
        return
    if not isinstance(value, (list, tuple, dict)):
        raise SerializationError(
            f"unencodable type at {path}: {type(value).__name__}"
        )
    if _open is None:
        _open = set()
    ident = id(value)  # repro: lint-ok[DET004] - identity test, never ordered
    if ident in _open:
        raise SerializationError(f"circular reference at {path}")
    _open.add(ident)
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError(f"non-string key at {path}: {key!r}")
            _check_encodable(item, f"{path}.{key}", _open)
    else:
        for i, item in enumerate(value):
            _check_encodable(item, f"{path}[{i}]", _open)
    _open.discard(ident)


def _keys_ok(value: Any) -> bool:
    """Iterative dict-key check, visiting each container node once.

    ``json.dumps`` itself rejects every other invalid input (unknown
    types raise ``TypeError``, NaN/Inf raise ``ValueError`` under
    ``allow_nan=False``, a container inside itself raises ``ValueError``)
    — but it silently *stringifies* int/float/bool/None dict keys instead
    of rejecting them, which would corrupt canonical wire bytes. This is
    the one check that must run up front. A container reached twice
    (shared, or part of a cycle) is walked once, so the walk ends.
    """
    stack = [value]
    pop = stack.pop
    push = stack.append
    seen = {id(value)}  # repro: lint-ok[DET004] - identity set
    add = seen.add
    while stack:
        node = pop()
        if type(node) is dict or isinstance(node, dict):
            for key, item in node.items():
                if type(key) is not str and not isinstance(key, str):
                    return False
                t = type(item)
                if t is dict or t is list or t is tuple:
                    ident = id(item)  # repro: lint-ok[DET004] - identity set
                    if ident not in seen:
                        add(ident)
                        push(item)
        else:
            for item in node:
                t = type(item)
                if t is dict or t is list or t is tuple:
                    ident = id(item)  # repro: lint-ok[DET004] - identity set
                    if ident not in seen:
                        add(ident)
                        push(item)
    return True


def encode_payload(value: Any) -> bytes:
    """Encode ``value`` to canonical UTF-8 JSON bytes.

    Raises :class:`~repro.errors.SerializationError` for unsupported types,
    non-finite floats (NaN/Inf are not valid JSON and would silently
    corrupt downstream analysis) and containers that contain themselves.
    """
    t = type(value)
    if (t is dict or t is list or t is tuple or isinstance(value, (dict, list, tuple))) and not _keys_ok(value):
        _check_encodable(value)  # raises with the offending path
        raise SerializationError(f"non-string dict key in {value!r}")  # pragma: no cover
    try:
        text = json.dumps(
            value, separators=(",", ":"), sort_keys=True, allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        _check_encodable(value)  # raises with the offending path
        raise SerializationError(str(exc)) from exc
    return text.encode("utf-8")


def decode_payload(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode_payload`."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"undecodable payload: {exc}") from exc


def payload_size(value: Any) -> int:
    """Wire size in bytes of ``value`` once encoded."""
    return len(encode_payload(value))
