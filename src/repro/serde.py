"""Serialization of events to and from Scribe payload bytes.

Scribe carries opaque byte payloads; the processing systems serialize
events into them and deserialize on read. The paper's Figure 9 experiment
hinges on deserialization being the CPU bottleneck of the Scuba ingestion
processor, so the encoding here is deliberately a real (JSON-based) codec
whose cost scales with payload size, not a no-op.

Because deserialization dominates the hot loop, the module exposes batch
variants (:func:`encode_batch`, :func:`decode_batch`) that amortize the
per-call overhead — attribute lookups, try/except setup, type checks —
across a whole Scribe batch. The batched and per-message paths produce
byte-identical results (asserted by the property suite).
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping

from repro.errors import ReproError

__all__ = [
    "SerdeError",
    "encode",
    "decode",
    "encode_batch",
    "decode_batch",
    "encoded_size",
]

class SerdeError(ReproError):
    """A payload could not be encoded or decoded."""


def _encode_fallback(value: Any) -> Any:
    # Tuples arrive here only inside nested structures; keep them as lists.
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(f"unsupported type {type(value).__name__}")


#: The one encoder every call shares. ``json.dumps`` with non-default
#: arguments builds a fresh ``JSONEncoder`` per call; this is the same
#: configuration built once (the encoder keeps no state between calls),
#: so the output is byte-identical.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True,
                            default=_encode_fallback)


def encode(record: Mapping[str, Any]) -> bytes:
    """Serialize a flat record (a mapping of field name to value) to bytes."""
    try:
        return _ENCODER.encode(record).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise SerdeError(f"cannot encode record: {exc}") from exc


def decode(payload: bytes) -> dict[str, Any]:
    """Deserialize bytes produced by :func:`encode` back into a dict."""
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerdeError(f"cannot decode payload: {exc}") from exc
    if not isinstance(record, dict):
        raise SerdeError(f"payload is not a record: {type(record).__name__}")
    return record


def encode_batch(records: Iterable[Mapping[str, Any]]) -> list[bytes]:
    """Serialize many records in one pass (output matches :func:`encode`)."""
    encode_one = _ENCODER.encode
    try:
        return [encode_one(record).encode("utf-8") for record in records]
    except (TypeError, ValueError) as exc:
        raise SerdeError(f"cannot encode record: {exc}") from exc


def decode_batch(payloads: Iterable[bytes],
                 errors: str = "strict") -> list[dict[str, Any] | None]:
    """Deserialize many payloads in one pass (output matches :func:`decode`).

    ``errors`` selects the poison-message policy: ``"strict"`` raises
    :class:`SerdeError` on the first bad payload, ``"none"`` substitutes
    ``None`` for each bad payload so a consumer can count-and-skip
    without abandoning the rest of the batch.
    """
    if errors not in ("strict", "none"):
        raise ValueError(f"unknown errors policy {errors!r}")
    payloads = list(payloads)
    # Fast path: splice the payloads into one JSON array and parse it in
    # a single C-level call, instead of paying json.loads call overhead
    # per payload. The length check guards against a payload that is
    # itself "a,b" — it would smuggle extra array elements in, and the
    # element count would no longer match the payload count.
    try:
        records = (json.loads(b"[" + b",".join(payloads) + b"]")
                   if payloads else [])
    except (TypeError, ValueError):
        records = None
    if (records is not None and len(records) == len(payloads)
            and all(type(r) is dict for r in records)):
        return records
    # Slow path: at least one payload is malformed (or not a record);
    # re-decode one at a time so the error lands on the right payload.
    result: list[dict[str, Any] | None] = []
    for payload in payloads:
        try:
            result.append(decode(payload))
        except SerdeError:
            if errors == "strict":
                raise
            result.append(None)
    return result


def encoded_size(record: Mapping[str, Any]) -> int:
    """Size in bytes of the encoded record.

    The shared encoder keeps the default ``ensure_ascii=True`` and so
    emits pure ASCII: the UTF-8 byte length equals the string length — the
    str→bytes encode (the second encode the seed paid) is skipped.
    """
    try:
        return len(_ENCODER.encode(record))
    except (TypeError, ValueError) as exc:
        raise SerdeError(f"cannot encode record: {exc}") from exc

