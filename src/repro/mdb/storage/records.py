"""WAL record framing and value codecs.

A WAL is a sequence of self-delimiting frames::

    [u32 payload length][u32 crc32(payload)][payload bytes]

The payload is canonical JSON (sorted keys, no whitespace).  A frame is
valid only when its full length is present *and* the CRC matches, so a
torn append — a crash mid-write — yields an invalid tail that recovery
discards instead of half-applying.  Everything before the first invalid
frame is exactly the set of acknowledged records.

Cell values cross the JSON boundary with one tagged escape: a
``datetime`` becomes ``{"t": "<isoformat>"}``; numpy scalars are
unwrapped to their Python values.  JSON round-trips Python floats
exactly (``repr``-based), so decoded rows re-coerce bit-identically.
Object columns in snapshots and segments are stored as arrays of those
JSON texts (:func:`encode_object_column`).
"""

from __future__ import annotations

import json
import struct
import zlib
from datetime import datetime
from typing import Any, BinaryIO, Iterator, List, Sequence, Tuple

import numpy as np

from repro.mdb.errors import MDBError
from repro.mdb.types import ColumnType

_HEADER = struct.Struct("<II")

#: Refuse absurd frame lengths (corrupt header) instead of allocating.
MAX_RECORD_BYTES = 256 * 1024 * 1024


class StorageError(MDBError):
    """Raised for unrecoverable storage-layer conditions."""


def encode_value(value: Any) -> Any:
    """One cell value → its JSON-able form."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, datetime):
        return {"t": value.isoformat()}
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict) and "t" in value:
        return datetime.fromisoformat(value["t"])
    return value


def encode_object_column(values, valid) -> np.ndarray:
    """Object column → JSON-string array ("" for NULLs)."""
    out = np.empty(len(values), dtype=object)
    for i, (value, ok) in enumerate(zip(values, valid)):
        if not ok:
            out[i] = ""
            continue
        if isinstance(value, datetime):
            out[i] = json.dumps({"t": value.isoformat()})
        else:
            out[i] = json.dumps(value)
    return out.astype(str)


def decode_object_cell(text: str, ctype: ColumnType):
    """Inverse of :func:`encode_object_column` for one non-NULL cell."""
    doc = json.loads(text)
    if isinstance(doc, dict) and "t" in doc:
        return datetime.fromisoformat(doc["t"])
    return ctype.coerce(doc)


def encode_row(row: Sequence[Any]) -> List[Any]:
    return [encode_value(v) for v in row]


def decode_row(row: Sequence[Any]) -> List[Any]:
    return [decode_value(v) for v in row]


def pack_record(record: dict) -> bytes:
    """Serialise one record into a framed byte string."""
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def iter_records(handle: BinaryIO) -> Iterator[Tuple[int, dict]]:
    """Yield ``(end_offset, record)`` for every valid frame in ``handle``.

    Stops silently at EOF or at the first torn/corrupt frame; the last
    yielded ``end_offset`` is the byte position recovery should truncate
    the log to before appending.
    """
    offset = handle.tell()
    while True:
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            return
        length, crc = _HEADER.unpack(header)
        if length > MAX_RECORD_BYTES:
            return
        payload = handle.read(length)
        if len(payload) < length or zlib.crc32(payload) != crc:
            return
        try:
            record = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return
        if not isinstance(record, dict):
            return
        offset += _HEADER.size + length
        yield offset, record
