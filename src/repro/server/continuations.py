"""Continuation tokens: opaque, self-contained suspension points.

A token carries everything needed to resume a preempted query — the
query text, the saved iterator-pipeline state, and the store version the
state was captured against — JSON-serialised and base64-encoded.  The
server is therefore stateless between quanta: any process holding the
same store (at the same version) can resume any token.

The pipeline state is positions, never rows: a block start and a cursor
per open join frame, the OFFSET/LIMIT counters, and for DISTINCT queries
the keys already emitted.  Only the last grows with the result, so
tokens are capped at :data:`MAX_TOKEN_BYTES` on both sides — the codec
refuses to mint a larger one and refuses to look inside a larger one.

Versioning makes staleness explicit instead of silently wrong: scan
cursors index into deterministically ordered match lists, which only
replay exactly while the store is unchanged, so resuming a token whose
embedded version differs from ``store.version`` raises
:class:`ContinuationError` (the serving tier surfaces it as a rejected
resumption; the client re-issues the query from the start).
"""

from __future__ import annotations

import base64
import binascii
import json
from typing import Any, Dict, Tuple

from repro.strabon.stsparql.iterators import ContinuationError

__all__ = [
    "ContinuationError",
    "MAX_TOKEN_BYTES",
    "decode_token",
    "encode_token",
]

#: Token format marker, bumped on incompatible state-layout changes so
#: an old token fails loudly instead of half-restoring.  3: a block start
#: and a cursor per join frame (2: a cursor per frame; 1: buffered rows).
_FORMAT = 3

#: Largest token the codec mints or decodes, in ASCII characters.
MAX_TOKEN_BYTES = 1 << 20


def encode_token(
    query: str, store_version: int, state: Dict[str, Any]
) -> str:
    """Pack a suspension point into an opaque ASCII token.

    Raises :class:`ContinuationError` when the token would exceed
    :data:`MAX_TOKEN_BYTES` — in practice a DISTINCT query whose set of
    emitted keys outgrew what a client can be asked to carry.
    """
    payload = {
        "f": _FORMAT,
        "q": query,
        "v": int(store_version),
        "s": state,
    }
    raw = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    token = base64.urlsafe_b64encode(raw).decode("ascii")
    if len(token) > MAX_TOKEN_BYTES:
        raise ContinuationError(
            f"continuation token would be {len(token)} bytes, over the "
            f"{MAX_TOKEN_BYTES}-byte cap (a DISTINCT query's set of "
            f"emitted keys is the only state that grows with the result); "
            f"narrow the query or add a LIMIT"
        )
    return token


def decode_token(token: str) -> Tuple[str, int, Dict[str, Any]]:
    """Unpack a token into ``(query, store_version, state)``.

    Raises :class:`ContinuationError` for anything that is not a token
    this codec produced (truncated, tampered with, oversized, or from a
    different format generation).
    """
    if not isinstance(token, str) or len(token) > MAX_TOKEN_BYTES:
        # Judged on the raw input: a hostile megabyte is never decoded.
        raise ContinuationError(
            f"continuation token is not a string of at most "
            f"{MAX_TOKEN_BYTES} bytes"
        )
    try:
        raw = base64.urlsafe_b64decode(token.encode("ascii"))
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, binascii.Error, UnicodeError, RecursionError) as exc:
        raise ContinuationError(f"malformed continuation token: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("f") != _FORMAT:
        raise ContinuationError(
            "continuation token has an unknown format marker"
        )
    query = payload.get("q")
    version = payload.get("v")
    state = payload.get("s")
    if (
        not isinstance(query, str)
        or not isinstance(version, int)
        or not isinstance(state, dict)
    ):
        raise ContinuationError("continuation token payload is incomplete")
    return query, version, state
