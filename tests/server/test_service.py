"""QueryServer: paging, preemption, backpressure, resilience wiring."""

import asyncio
import math

import pytest

from repro import faults, obs, resilience
from repro.server import (
    AdmissionError,
    ContinuationError,
    QueryServer,
    continuations,
    decode_token,
    encode_token,
)
from repro.server.service import QUANTUM_ENV, env_quantum_ms
from repro.strabon import StrabonStore
from repro.strabon.stsparql.iterators import BLOCK_ROWS
from tests.server.hotspots import LONG_JOIN, make_hotspot_store

PREFIXES = (
    "PREFIX ex: <http://example.org/>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)

QUERY = PREFIXES + "SELECT ?s ?n WHERE { ?s ex:name ?n }"


def make_store(n: int = 12) -> StrabonStore:
    store = StrabonStore()
    lines = ["@prefix ex: <http://example.org/> ."]
    for i in range(n):
        lines.append(f'ex:s{i} ex:name "name-{i:03d}" .')
    store.load_turtle("\n".join(lines))
    return store


def run(coro):
    return asyncio.run(coro)


def _n3_rows(result):
    return sorted(
        tuple(t.n3() if t is not None else None for t in row)
        for row in result.rows()
    )


def test_fetch_matches_direct_query():
    store = make_store()
    expected = _n3_rows(store.query(QUERY))

    async def main():
        server = QueryServer(store, quantum_ms=None)
        try:
            return await server.fetch("alice", QUERY)
        finally:
            await server.close()

    assert _n3_rows(run(main())) == expected


def test_no_preemption_is_single_page():
    store = make_store()

    async def main():
        server = QueryServer(store, quantum_ms=None)
        try:
            return await server.submit("alice", query=QUERY)
        finally:
            await server.close()

    page = run(main())
    assert page.done and page.token is None
    assert len(page.rows) == 12


def test_tiny_quantum_forces_paging_without_loss():
    store = make_store(30)
    expected = _n3_rows(store.query(QUERY))

    async def main():
        server = QueryServer(store, quantum_ms=0.0001)
        try:
            pages = []
            page = await server.submit("alice", query=QUERY)
            pages.append(page)
            while not page.done:
                page = await server.submit("alice", token=page.token)
                pages.append(page)
            return pages
        finally:
            await server.close()

    pages = run(main())
    assert len(pages) > 1  # actually preempted
    rows = [
        tuple(
            sol[v].n3() if sol.get(v) is not None else None
            for v in pages[0].variables
        )
        for page in pages
        for sol in page.rows
    ]
    assert sorted(rows) == expected
    assert len(rows) == len(set(rows)) == len(expected)


async def _pages(server, tenant, text):
    pages = [await server.submit(tenant, query=text)]
    while not pages[-1].done:
        pages.append(await server.submit(tenant, token=pages[-1].token))
    return pages


def _page_rows(pages):
    return sorted(
        tuple(
            sol[v].n3() if sol.get(v) is not None else None
            for v in pages[0].variables
        )
        for page in pages
        for sol in page.rows
    )


def test_every_page_advances_by_a_filter_batch():
    """Progress guarantee: with a quantum no page can meet (1 µs, spent
    before the restore finishes) the join still completes, one join
    block per page — not one row per page, and not never."""
    store = make_hotspot_store(40)
    expected = _n3_rows(store.query(LONG_JOIN))
    assert len(expected) == 1600

    async def main():
        server = QueryServer(store, quantum_ms=0.001)
        try:
            return await _pages(server, "batch", LONG_JOIN)
        finally:
            await server.close()

    pages = run(main())
    assert _page_rows(pages) == expected
    # a block of ?b bindings (40 per parent, so under 2 * BLOCK_ROWS)
    # feeds at most two top blocks; the last page finds the join done
    assert 1 < len(pages) <= 2 * math.ceil(1600 / BLOCK_ROWS) + 1
    for page in pages[:-1]:
        assert page.rows and len(page.token) < 4096
    assert not pages[-1].rows
    # the top scan matches once per parent: the first block is full
    assert len(pages[0].rows) == BLOCK_ROWS


def test_tampered_cursor_fails_closed():
    store = make_hotspot_store(40)

    async def main():
        server = QueryServer(store, quantum_ms=0.001)
        try:
            page = await server.submit("batch", query=LONG_JOIN)
            text, version, state = decode_token(page.token)
            for bad in ([10**6] * 6, state["scan"] + [1], [1.5] * 6, "x"):
                forged = encode_token(text, version, {"scan": bad})
                with pytest.raises(ContinuationError):
                    await server.submit("batch", token=forged)
            with pytest.raises(ContinuationError):
                await server.submit("batch", token=page.token[:-8])
            # the untouched token still resumes
            assert (await server.submit("batch", token=page.token)).rows
        finally:
            await server.close()

    run(main())


def test_distinct_state_over_the_token_cap_ends_with_an_error(monkeypatch):
    """The one state that grows with the result is refused, with the
    reason, rather than minted into an unbounded token."""
    store = make_store(200)
    text = PREFIXES + "SELECT DISTINCT ?n WHERE { ?s ex:name ?n }"
    monkeypatch.setattr(continuations, "MAX_TOKEN_BYTES", 2048)

    async def main():
        server = QueryServer(store, quantum_ms=0.0001)
        try:
            with pytest.raises(ContinuationError, match="DISTINCT"):
                await _pages(server, "alice", text)
            # bounded queries are untouched by the cap
            pages = await _pages(server, "alice", text + " LIMIT 20")
            assert len(_page_rows(pages)) == 20
        finally:
            await server.close()

    run(main())


def test_suspension_metrics_reach_the_metrics_service():
    from repro.vo.services import MetricsService

    store = make_hotspot_store(40)
    registry = obs.get_registry()
    previous = registry.enabled
    registry.set_enabled(True)
    registry.reset()

    async def main():
        server = QueryServer(store, quantum_ms=0.001)
        try:
            return await _pages(server, "batch", LONG_JOIN)
        finally:
            await server.close()

    try:
        pages = run(main())
        snap = MetricsService().snapshot()
    finally:
        registry.reset()
        registry.set_enabled(previous)
    suspends = len(pages) - 1
    assert snap["counters"]["server.suspends"] == suspends
    # every suspended page pulled one row and drained the rest
    assert snap["counters"]["server.drained_rows"] == 1600 - suspends
    tokens = snap["histograms"]["server.token.bytes"]
    assert tokens["count"] == suspends and tokens["max"] < 4096
    restores = snap["histograms"]["server.restore.seconds"]
    assert restores["count"] == suspends and restores["sum"] > 0


def test_non_streamable_query_falls_back_to_one_shot():
    store = make_store(5)
    text = PREFIXES + (
        "SELECT (COUNT(?s) AS ?c) WHERE { ?s ex:name ?n }"
    )
    expected = _n3_rows(store.query(text))

    async def main():
        server = QueryServer(store, quantum_ms=0.0001)
        try:
            page = await server.submit("alice", query=text)
            assert page.done and page.result is not None
            return await server.fetch("alice", text)
        finally:
            await server.close()

    assert _n3_rows(run(main())) == expected


def test_ask_query_served():
    store = make_store(3)
    text = PREFIXES + 'ASK { ?s ex:name "name-001" }'

    async def main():
        server = QueryServer(store, quantum_ms=0.0001)
        try:
            return await server.fetch("alice", text)
        finally:
            await server.close()

    assert bool(run(main())) is True


def test_stale_token_rejected_after_store_mutation():
    store = make_store(30)

    async def main():
        server = QueryServer(store, quantum_ms=0.0001)
        try:
            page = await server.submit("alice", query=QUERY)
            assert not page.done
            store.update(
                PREFIXES
                + 'INSERT DATA { ex:new ex:name "intruder" }'
            )
            with pytest.raises(ContinuationError):
                await server.submit("alice", token=page.token)
        finally:
            await server.close()

    run(main())


def test_admission_backpressure():
    store = make_store()

    async def main():
        server = QueryServer(store, quantum_ms=None, max_pending=2)
        try:
            tasks = [
                asyncio.ensure_future(server.submit("alice", query=QUERY))
                for _ in range(5)
            ]
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            rejected = [
                o for o in outcomes if isinstance(o, AdmissionError)
            ]
            served = [o for o in outcomes if not isinstance(o, Exception)]
            assert len(rejected) == 3
            assert len(served) == 2
            # Backpressure is transient: the queue drained, so a retry
            # is admitted.
            page = await server.submit("alice", query=QUERY)
            assert page.done
        finally:
            await server.close()

    run(main())


def test_transient_fault_absorbed_by_retry():
    store = make_store(4)
    expected = _n3_rows(store.query(QUERY))

    async def main():
        server = QueryServer(store, quantum_ms=None)
        try:
            with faults.injected("server.request:nth=1;seed=7"):
                return await server.fetch("alice", QUERY)
        finally:
            await server.close()

    assert _n3_rows(run(main())) == expected


def test_permanent_fault_fails_the_request():
    store = make_store(4)

    async def main():
        server = QueryServer(store, quantum_ms=None)
        try:
            with faults.injected("server.request:nth=1,hard;seed=7"):
                with pytest.raises(faults.PermanentFault):
                    await server.submit("alice", query=QUERY)
            # The server survives: next request is served normally.
            page = await server.submit("alice", query=QUERY)
            assert page.done
        finally:
            await server.close()

    run(main())


def test_expired_deadline_fires_at_quantum_boundary():
    store = make_store()

    async def main():
        server = QueryServer(store, quantum_ms=None)
        try:
            deadline = resilience.Deadline(seconds=0.0)
            with pytest.raises(resilience.DeadlineExceeded):
                await server.submit("alice", query=QUERY, deadline=deadline)
        finally:
            await server.close()

    run(main())


def test_submit_argument_validation():
    store = make_store(1)

    async def main():
        server = QueryServer(store, quantum_ms=None)
        try:
            with pytest.raises(ValueError):
                await server.submit("alice")
            with pytest.raises(ValueError):
                await server.submit("alice", query=QUERY, token="x")
        finally:
            await server.close()

    run(main())


def test_closed_server_refuses_submits():
    store = make_store(1)

    async def main():
        server = QueryServer(store, quantum_ms=None)
        await server.close()
        with pytest.raises(RuntimeError):
            await server.submit("alice", query=QUERY)

    run(main())


def test_quantum_env_knob(monkeypatch):
    monkeypatch.setenv(QUANTUM_ENV, "40")
    assert env_quantum_ms() == 40.0
    assert QueryServer(make_store(1)).quantum_ms == 40.0
    monkeypatch.setenv(QUANTUM_ENV, "off")
    assert env_quantum_ms() is None
    monkeypatch.setenv(QUANTUM_ENV, "0")
    assert env_quantum_ms() is None
    monkeypatch.setenv(QUANTUM_ENV, "banana")
    assert env_quantum_ms() == 25.0
    monkeypatch.delenv(QUANTUM_ENV)
    assert env_quantum_ms() == 25.0
