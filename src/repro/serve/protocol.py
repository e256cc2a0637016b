"""Wire format of the detection server: newline-delimited JSON.

One request per line, one response per line, UTF-8. A request is a JSON
object with an ``op`` field (``ping``, ``load``, ``pin``, ``evict``,
``list``, ``info``, ``detect``, ``compare``, ``stats``, ``shutdown``) and
op-specific fields; a response carries ``ok`` plus either ``result`` or a
structured ``error`` (``type`` + ``message``). An optional client-chosen
``id`` is echoed back verbatim, so a pipelining client can match
responses to requests.

Labels travel as raw little-endian bytes in base64 plus their dtype —
not as a JSON number array — so a served partition decodes to an ndarray
**byte-identical** to the one a direct ``detect()`` call returns; equality
is exact, not approximate.
"""

from __future__ import annotations

import base64
import json
from typing import Any

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode_labels",
    "decode_labels",
    "dumps_line",
    "loads_line",
    "ok_response",
    "error_response",
    "cache_key",
]

PROTOCOL_VERSION = 1


class ProtocolError(ValueError):
    """A malformed request or response line."""


def encode_labels(labels: np.ndarray) -> dict[str, Any]:
    """Pack a label array as base64 bytes + dtype (byte-exact round trip)."""
    labels = np.ascontiguousarray(labels)
    return {
        "b64": base64.b64encode(labels.tobytes()).decode("ascii"),
        "dtype": labels.dtype.str,
        "n": int(labels.shape[0]),
    }


def decode_labels(payload: dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_labels`; returns a writable ndarray."""
    raw = base64.b64decode(payload["b64"])
    arr = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    if arr.shape[0] != payload["n"]:
        raise ProtocolError(
            f"label payload length {arr.shape[0]} != declared n {payload['n']}"
        )
    return arr.copy()


def dumps_line(message: dict[str, Any]) -> bytes:
    """Serialize one protocol message to a newline-terminated JSON line."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def loads_line(line: bytes | str) -> dict[str, Any]:
    """Parse one protocol line into a message dict."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("protocol messages must be JSON objects")
    return message


def ok_response(op: str, result: dict[str, Any], request_id: Any = None) -> dict:
    """A success response for ``op`` (echoing the request id if any)."""
    response: dict[str, Any] = {"ok": True, "op": op, "result": result}
    if request_id is not None:
        response["id"] = request_id
    return response


def error_response(
    error_type: str, message: str, op: str | None = None, request_id: Any = None
) -> dict:
    """A structured failure response.

    ``error_type`` is machine-readable: ``bad_request``, ``not_found``,
    ``busy`` (bounded-queue backpressure), ``timeout``, ``internal``.
    """
    response: dict[str, Any] = {
        "ok": False,
        "error": {"type": error_type, "message": message},
    }
    if op is not None:
        response["op"] = op
    if request_id is not None:
        response["id"] = request_id
    return response


def cache_key(
    graph_id: str, algorithm: str, params: dict[str, Any], seed: int
) -> str:
    """The result-cache / coalescing key of a detect request.

    ``params`` must already be canonical (defaults applied, host-only
    knobs stripped — see ``repro.community.canonical_params``), so two
    requests that must produce identical labels map to the same key.
    """
    return json.dumps(
        {"g": graph_id, "a": algorithm, "p": params, "s": int(seed)},
        sort_keys=True,
        separators=(",", ":"),
    )
