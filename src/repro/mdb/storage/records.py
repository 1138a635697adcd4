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

Object columns (STRING, TIMESTAMP) cross the disk everywhere else —
snapshot columns, bulk segments, object-typed array planes — through
one column codec, MonetDB-style: ``int32`` codes into a deduplicated
heap of the column's distinct values (:func:`encode_object_column`).
Decoding costs one ``json.loads`` per column and one gather, never a
parse per cell.
"""

from __future__ import annotations

import json
import struct
import zlib
from datetime import datetime
from typing import Any, BinaryIO, Dict, Iterator, List, Sequence, Tuple

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


def encode_object_column(
    values: Sequence[Any], valid: Sequence[bool], ctype: ColumnType
) -> Tuple[np.ndarray, np.ndarray]:
    """Object column → ``(codes, heap)`` in one dictionary pass.

    ``codes`` holds one ``int32`` per cell: the index of its value among
    the column's distinct non-NULL values in first-appearance order, or
    ``-1`` for NULL.  ``heap`` is the ASCII ``json.dumps`` of that
    distinct-value list as a ``uint8`` array, exact for every Python
    ``str`` (NULs and lone surrogates included), which a numpy ``U``
    array is not: it strips trailing NULs.  TIMESTAMP values are keyed
    and stored by ``isoformat()``, so equal instants with different UTC
    offsets stay distinct.
    """
    valid = np.asarray(valid, dtype=bool)
    present = np.asarray(values, dtype=object)[valid]
    if ctype.py_type is datetime:
        present = [ctype.coerce(v).isoformat() for v in present]
    index: Dict[Any, int] = {}
    codes = np.full(len(valid), -1, dtype=np.int32)
    codes[valid] = [index.setdefault(v, len(index)) for v in present]
    heap = np.frombuffer(
        json.dumps(list(index)).encode("ascii"), dtype=np.uint8
    )
    return codes, heap


def encode_object_plane(
    plane: np.ndarray, ctype: ColumnType
) -> Tuple[np.ndarray, np.ndarray]:
    """An object-typed array plane → ``(codes, heap)``; ``None`` cells
    are NULL and the codes keep the plane's shape."""
    flat = plane.reshape(-1)
    codes, heap = encode_object_column(
        flat, np.not_equal(flat, None), ctype
    )
    return codes.reshape(plane.shape), heap


def decode_object_column(
    codes: np.ndarray, heap: np.ndarray, ctype: ColumnType
) -> np.ndarray:
    """Inverse of :func:`encode_object_column` (any ``codes`` shape).

    One ``json.loads`` of the heap, one ``fromisoformat`` per distinct
    TIMESTAMP, then an object gather; code ``-1`` decodes to ``None``.
    """
    try:
        distinct = json.loads(
            np.asarray(heap, dtype=np.uint8).tobytes().decode("ascii")
        )
    except ValueError as exc:  # bad JSON or non-ASCII bytes
        raise StorageError(f"corrupt object-column heap: {exc}") from None
    if not isinstance(distinct, list):
        raise StorageError("corrupt object-column heap: not a list")
    if ctype.py_type is datetime:
        distinct = [datetime.fromisoformat(v) for v in distinct]
    codes = np.asarray(codes)
    if codes.size and (
        int(codes.min()) < -1 or int(codes.max()) >= len(distinct)
    ):
        raise StorageError(
            f"object-column codes out of range for a heap of "
            f"{len(distinct)} values"
        )
    # The extra last slot stays None: it is what the NULL code -1 reads.
    lookup = np.empty(len(distinct) + 1, dtype=object)
    lookup[:-1] = distinct
    return lookup[codes]


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
