"""The preemptable query serving tier — the observatory's front door.

A TELEIOS deployment serves many concurrent scientists; a query engine
that runs every request to completion on the caller's thread lets one
adversarial scan starve everything queued behind it.  This package puts
a service layer in front of the stores:

* :mod:`repro.server.service` — :class:`QueryServer`, an asyncio tier
  executing stSPARQL requests under quantum-based preemption: a query
  runs for a time slice over the resumable iterator pipeline
  (:mod:`repro.strabon.stsparql.iterators`), suspends, returns the
  partial results plus an opaque continuation token, and resumes from
  exactly that point on the next request.
* :mod:`repro.server.scheduler` — per-tenant FIFO queues drained by a
  deficit round-robin scheduler with queue-depth admission control
  (reject with backpressure instead of queueing without bound).
* :mod:`repro.server.continuations` — the token codec: pipeline state
  (scan cursors and counters, never rows) is serialised to JSON, bound
  to the store version it was captured against, and base64-encoded into
  an opaque, self-contained, size-capped token.
"""

from repro.server.continuations import (
    ContinuationError,
    decode_token,
    encode_token,
)
from repro.server.scheduler import (
    AdmissionError,
    DeficitScheduler,
    ServerRequest,
)
from repro.server.service import QueryPage, QueryServer

__all__ = [
    "AdmissionError",
    "ContinuationError",
    "DeficitScheduler",
    "QueryPage",
    "QueryServer",
    "ServerRequest",
    "decode_token",
    "encode_token",
]
