"""The preemptable query server.

:class:`QueryServer` follows the Web-preemption model of sage-engine:
**one submit is one quantum is one page**.  A submitted query (or a
continuation token from an earlier page) passes admission control, waits
its turn under deficit round-robin, then runs on the server's single
cooperative executor for at most one time quantum.  Whatever solutions
it produced come back immediately as a :class:`QueryPage`; if the query
is not finished, the page carries an opaque continuation token and the
client re-submits it for the next slice.  Fairness needs no preemptive
threads: every quantum boundary sends the query back through admission,
so an adversarial full-scan costs its tenant one queue slot per slice
while everyone else's short queries interleave between its slices.

The executor is deliberately a *single* cooperative drain loop — the
quantum is the blocking unit.  Running a quantum blocks the loop for at
most ``quantum_ms``; with preemption disabled (``quantum_ms=None``, or
``REPRO_QUANTUM_MS=0``/``inf``/``off``) a query runs to completion in
one slice and concurrent tenants feel the full head-of-line blocking —
exactly the baseline benchmark A8 measures against.

Resilience wiring: each quantum fires the ``server.request`` fault
injection point under the store's retry policy (transient faults are
absorbed and retried, permanent ones fail the request), and a
per-request :class:`repro.resilience.Deadline` is checked at every
quantum boundary and installed as the ambient deadline while the
quantum runs.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Any, Dict, List, Optional

from repro import faults, obs, resilience
from repro.server.continuations import decode_token, encode_token
from repro.server.scheduler import DeficitScheduler, ServerRequest
from repro.strabon.stsparql import algebra as alg
from repro.strabon.stsparql.iterators import (
    ContinuationError,
    Solution,
    build_select_pipeline,
    pipeline_variables,
    restore_pipeline,
)
from repro.strabon.stsparql.parser import parse_query
from repro.strabon.stsparql.results import SelectResult

__all__ = [
    "QUANTUM_ENV",
    "QueryPage",
    "QueryServer",
    "env_quantum_ms",
]

#: Environment variable: quantum length in milliseconds.  ``0``, ``inf``
#: or ``off`` disable preemption (queries run to completion).
QUANTUM_ENV = "REPRO_QUANTUM_MS"

_DEFAULT_QUANTUM_MS = 25.0


def env_quantum_ms(
    default: Optional[float] = _DEFAULT_QUANTUM_MS,
) -> Optional[float]:
    """Quantum from ``REPRO_QUANTUM_MS``; None disables preemption."""
    raw = os.environ.get(QUANTUM_ENV, "").strip().lower()
    if not raw:
        return default
    if raw in ("off", "inf", "none"):
        return None
    try:
        value = float(raw)
    except ValueError:
        obs.counter("server.config.invalid").inc()
        return default
    if value <= 0:
        return None
    return value


class QueryPage:
    """One quantum's worth of results.

    ``rows`` holds the solutions produced during the slice (decoded
    bindings, same shape as :class:`SelectResult` rows).  ``token`` is
    the continuation to re-submit for the next slice, or None when
    ``done``.  Non-streamable queries (aggregates, ORDER BY, ASK,
    CONSTRUCT, ...) complete in a single page with the raw engine result
    in ``result``.
    """

    __slots__ = (
        "tenant", "query", "variables", "rows", "token", "done",
        "result", "quantum_ms", "elapsed_ms",
    )

    def __init__(
        self,
        tenant: str,
        query: str,
        variables: List[str],
        rows: List[Solution],
        token: Optional[str],
        result: Any = None,
        quantum_ms: Optional[float] = None,
        elapsed_ms: float = 0.0,
    ):
        self.tenant = tenant
        self.query = query
        self.variables = variables
        self.rows = rows
        self.token = token
        self.done = token is None
        self.result = result
        self.quantum_ms = quantum_ms
        self.elapsed_ms = elapsed_ms

    def __repr__(self) -> str:
        state = "done" if self.done else "suspended"
        return (
            f"<QueryPage {self.tenant} rows={len(self.rows)} {state} "
            f"elapsed={self.elapsed_ms:.1f}ms>"
        )


class QueryServer:
    """Asyncio serving tier over one :class:`StrabonStore`.

    Usage::

        server = QueryServer(store, quantum_ms=25)
        page = await server.submit("tenant-a", query=text)
        while not page.done:
            page = await server.submit("tenant-a", token=page.token)

    or, for callers that just want the complete answer while still
    yielding the executor at every quantum boundary::

        result = await server.fetch("tenant-a", text)
    """

    def __init__(
        self,
        store,
        quantum_ms: Optional[float] = -1.0,
        scheduler: Optional[DeficitScheduler] = None,
        max_pending: Optional[int] = None,
        max_total: Optional[int] = None,
        quotas: Optional[Dict[str, float]] = None,
    ):
        self.store = store
        # -1 (the default) means "consult the environment"; an explicit
        # None means preemption off.
        self.quantum_ms = (
            env_quantum_ms() if quantum_ms == -1.0 else quantum_ms
        )
        self.scheduler = scheduler or DeficitScheduler(
            max_pending=max_pending, max_total=max_total, quotas=quotas
        )
        self.retry_policy = getattr(
            store, "retry_policy", resilience.DEFAULT_RETRY
        )
        self._wake = asyncio.Event()
        self._drain_task: Optional[asyncio.Task] = None
        self._closed = False

    # -- public API ----------------------------------------------------------

    async def submit(
        self,
        tenant: str,
        query: Optional[str] = None,
        token: Optional[str] = None,
        deadline: Optional[resilience.Deadline] = None,
    ) -> QueryPage:
        """Admit one request (fresh query or continuation) and await its
        single quantum.  Raises :class:`AdmissionError` when the tenant's
        queue is full, :class:`ContinuationError` for stale or malformed
        tokens (raised when the quantum runs, not at admission)."""
        if self._closed:
            raise RuntimeError("server is closed")
        if (query is None) == (token is None):
            raise ValueError("provide exactly one of query= or token=")
        if token is not None:
            request = ServerRequest(tenant, "", deadline=deadline)
            request.payload = token
        else:
            request = ServerRequest(tenant, query, deadline=deadline)
        request.enqueued_at = time.monotonic()
        request.future = asyncio.get_running_loop().create_future()
        self.scheduler.admit(request)  # may raise AdmissionError
        obs.counter("server.requests").inc()
        self._ensure_drain()
        self._wake.set()
        return await request.future

    async def fetch(
        self,
        tenant: str,
        query: str,
        deadline: Optional[resilience.Deadline] = None,
    ) -> Any:
        """Run a query to completion, one quantum at a time.

        Returns the complete engine result: a :class:`SelectResult`
        assembled from the pages for streamed queries, or the one-shot
        result object otherwise.
        """
        page = await self.submit(tenant, query=query, deadline=deadline)
        if page.done and page.result is not None:
            return page.result
        rows = list(page.rows)
        while not page.done:
            page = await self.submit(tenant, token=page.token, deadline=deadline)
            rows.extend(page.rows)
        return SelectResult(page.variables, rows)

    async def close(self) -> None:
        """Stop the drain loop and drop queued requests."""
        self._closed = True
        dropped = self.scheduler.drain()
        if dropped:
            obs.counter("server.dropped_at_close").inc()
        self._wake.set()
        if self._drain_task is not None:
            task = self._drain_task
            self._drain_task = None
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    # -- drain loop ----------------------------------------------------------

    def _ensure_drain(self) -> None:
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain()
            )

    async def _drain(self) -> None:
        """The single cooperative executor: pop → run one quantum → repeat.

        Yields control between quanta (``sleep(0)``) so submitters admit
        new work and page futures resolve; blocks on the wake event when
        every queue is empty.
        """
        while not self._closed:
            request = self.scheduler.take()
            if request is None:
                self._wake.clear()
                await self._wake.wait()
                continue
            self._run_quantum(request)
            await asyncio.sleep(0)

    # -- quantum execution ---------------------------------------------------

    def _run_quantum(self, request: ServerRequest) -> None:
        """Execute one time slice of ``request`` and resolve its future."""
        future = request.future
        if future is None or future.cancelled():
            return
        started = time.monotonic()
        try:
            with obs.span("server.quantum", tenant=request.tenant):
                # The injection point models the request touching a flaky
                # transport/authn dependency once per slice: transient
                # faults are retried here, permanent ones fail the page.
                resilience.call_with_retry(
                    lambda: faults.maybe_fail("server.request"),
                    self.retry_policy,
                    label="server.request",
                )
                if request.deadline is not None:
                    # Cooperative deadline: enforced at the quantum
                    # boundary (a slice is the scheduling atom), ambient
                    # for any deadline-aware code inside the slice.
                    request.deadline.check("server.quantum")
                    with resilience.deadline_scope(request.deadline):
                        page = self._execute(request, started)
                else:
                    page = self._execute(request, started)
        except BaseException as exc:  # noqa: BLE001 — routed to the caller
            obs.counter("server.errors").inc()
            self._finish(request, started)
            if not future.done():
                future.set_exception(exc)
            return
        self._finish(request, started)
        if not future.done():
            future.set_result(page)

    def _finish(self, request: ServerRequest, started: float) -> None:
        now = time.monotonic()
        obs.histogram("server.latency").observe(now - request.enqueued_at)
        obs.histogram(f"server.latency.{request.tenant}").observe(
            now - request.enqueued_at
        )
        if self.quantum_ms:
            obs.histogram("server.quantum.utilization").observe(
                min(1.0, (now - started) / (self.quantum_ms / 1000.0))
            )

    def _execute(self, request: ServerRequest, started: float) -> QueryPage:
        """Build or restore the execution state, then run one slice."""
        if request.payload is not None:  # continuation token
            with obs.span("server.restore.seconds"):
                query_text, version, state = decode_token(request.payload)
                if version != self.store.version:
                    obs.counter("server.stale_tokens").inc()
                    raise ContinuationError(
                        f"continuation built against store version "
                        f"{version}, store is now at {self.store.version}"
                    )
                parsed = self._parse(query_text)
                pipeline = restore_pipeline(parsed, self.store, state)
            request.query = query_text
            return self._run_pipeline(request, parsed, pipeline, started)

        parsed = self._parse(request.query)
        pipeline = build_select_pipeline(parsed, self.store)
        if pipeline is not None:
            return self._run_pipeline(request, parsed, pipeline, started)
        # Non-streamable: one-shot evaluation, complete in this slice.
        obs.counter("server.oneshot").inc()
        result = self.store.query(request.query)
        rows = list(result.bindings) if isinstance(result, SelectResult) else []
        variables = (
            list(result.variables)
            if isinstance(result, SelectResult)
            else []
        )
        return QueryPage(
            request.tenant, request.query, variables, rows, None,
            result=result, quantum_ms=self.quantum_ms,
            elapsed_ms=(time.monotonic() - started) * 1000.0,
        )

    def _parse(self, text: str):
        return self.store.plan_cache.get_or_compute(
            ("query", text), lambda: parse_query(text)
        )

    def _run_pipeline(
        self,
        request: ServerRequest,
        parsed: alg.SelectQuery,
        pipeline,
        started: float,
    ) -> QueryPage:
        """Pull join blocks until the quantum expires or the stream ends.

        Each pull takes one row and drains the rest of the join's top
        block into the page; the clock is read only after that, so every
        page advances the query by at least one block however short the
        quantum or slow the restore, and the token holds positions only.
        """
        variables = pipeline_variables(parsed)
        budget = (
            None if self.quantum_ms is None else self.quantum_ms / 1000.0
        )
        rows: List[Solution] = []
        token: Optional[str] = None
        while True:
            sol = pipeline.next()
            if sol is None:
                break
            rows.append(sol)
            drained = pipeline.drain()
            rows.extend(drained)
            obs.counter("server.drained_rows").inc(len(drained))
            if budget is not None and time.monotonic() - started >= budget:
                token = encode_token(
                    request.query, self.store.version, pipeline.save()
                )
                obs.counter("server.suspends").inc()
                obs.histogram("server.token.bytes").observe(len(token))
                break
        obs.counter("server.pages").inc()
        return QueryPage(
            request.tenant, request.query, variables, rows, token,
            quantum_ms=self.quantum_ms,
            elapsed_ms=(time.monotonic() - started) * 1000.0,
        )
