"""``serve_mixed`` — two tenants on one ``QueryServer``.

Closed loop, because portal users wait for a page before asking for the
next: ``batch`` pages one long hotspot-product-geometry join to
completion by continuation token (one round = one long query) while
``analyst`` loops eight selective queries for as long as ``batch`` runs.
``repro.server`` (admission, quanta, token encode/restore) and
``iterators.py`` do the work; the evaluator that ``s2_refine_map``
stresses is bypassed for these streamable queries.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

from repro.eo.linkeddata import GN, GreeceLikeWorld
from repro.ingest.metadata import NOA_PREFIXES
from repro.noa.chain import ProcessingChain
from repro.rdf.namespace import NOA
from repro.server import AdmissionError, QueryServer
from repro.vo import VirtualEarthObservatory

from bench.workloads.inputs import BASE_TIME, CADENCE, write_archive

Digest = Tuple[int, int]
#: The long join stops here, below what any seed's product yields (about
#: 330 x 300 pairs), so its work does not swing with the hotspot count
#: squared.
LONG_ROWS = 100_000


def digest(variables: List[str], solutions) -> Digest:
    """Order-free fingerprint of a solution multiset: losing or
    duplicating a solution across a suspension changes it."""
    total = 0
    count = 0
    for sol in solutions:
        total += hash(tuple(sol.get(v) for v in variables))
        count += 1
    return count, total & 0xFFFFFFFFFFFFFFFF


def queries(product_id: str) -> Tuple[str, List[str]]:
    """The long join and the analyst's eight selective queries."""
    first = f'"{BASE_TIME.isoformat()}"^^xsd:dateTime'
    third = f'"{(BASE_TIME + 2 * CADENCE).isoformat()}"^^xsd:dateTime'
    product = f"<{NOA}product/{product_id}>"
    long_query = (
        "SELECT ?a ?b ?ga WHERE { "
        f"?p noa:hasAcquisitionTime {first} ; noa:isDerivedFrom ?src . "
        "?a noa:isProducedBy ?p ; noa:hasGeometry ?ga . "
        "?b noa:isProducedBy ?p ; noa:hasConfidence ?cb . "
        f"FILTER(?cb > 0.01) }} LIMIT {LONG_ROWS}"
    )
    analyst = [
        f"SELECT ?h ?c WHERE {{ ?h noa:isProducedBy {product} ; "
        "noa:hasConfidence ?c . FILTER(?c > 0.97) }",
        "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
        'FILTER(strdf:intersects(?g, "POLYGON((22 37, 22.4 37, 22.4 37.4,'
        ' 22 37.4, 22 37))"^^strdf:WKT)) }',
        "SELECT ?p ?f WHERE { ?p a noa:Product ; "
        f"noa:hasAcquisitionTime {third} ; noa:hasFile ?f }}",
        "SELECT ?p ?src WHERE { ?p noa:isDerivedFrom ?src ; "
        'noa:hasClassifier "static" }',
        f"SELECT ?h ?px WHERE {{ ?h noa:isProducedBy {product} ; "
        "noa:hasPixelCount ?px . FILTER(?px >= 12) }",
        f"SELECT ?h ?g WHERE {{ ?h noa:isProducedBy {product} ; "
        "noa:hasGeometry ?g . FILTER(strdf:within(?g, "
        '"POLYGON((22 37, 22.6 37, 22.6 37.6, 22 37.6, 22 37))"^^strdf:WKT)) }',
        f"SELECT ?h ?c WHERE {{ ?h noa:hasAcquisitionTime {third} ; "
        "noa:hasConfidence ?c . FILTER(?c < 0.3) }",
        f"SELECT ?t ?n WHERE {{ ?t a <{GN}PopulatedPlace> ; "
        f"<{GN}name> ?n ; <{GN}population> ?pop . "
        "FILTER(?pop > 100000) }",
    ]
    return NOA_PREFIXES + long_query, [NOA_PREFIXES + q for q in analyst]


class ServeMixed:
    def __init__(self, ctx):
        self.ctx = ctx
        self.acquisitions = ctx.scaled(6, 3)
        self.size = ctx.scaled(512, 64)
        self.fires = ctx.scaled(324, 40)
        self.world = GreeceLikeWorld()

    def setup(self) -> None:
        archive = self.ctx.fresh_dir("archive")
        paths, _ = write_archive(
            archive, self.ctx.seed, self.acquisitions, self.size, self.fires
        )
        vo = VirtualEarthObservatory(world=self.world)
        vo.ingestor.catalog_directory(archive)
        results = ProcessingChain(vo.ingestor, "static").run_batch(paths)
        if not all(r.ok for r in results):
            raise RuntimeError(f"preload chain failed: {results}")
        self.store = vo.store
        self.long, self.analyst = queries(
            results[2].derived_product.product_id
        )
        self.expected: Optional[Dict[str, Digest]] = None

    def _one_shot(self) -> Dict[str, Digest]:
        """What every served result is compared with: the same texts
        through ``store.query`` in one piece."""
        out = {}
        for text in [self.long] + self.analyst:
            result = self.store.query(text)
            out[text] = digest(result.variables, result.bindings)
        return out

    def round(self, rec) -> None:
        if self.expected is None:
            self.expected = self._one_shot()
        with rec.phase("loaded"):
            outcome = asyncio.run(self._serve(with_analyst=True))
        self._report(rec, outcome)
        rec.served(outcome["latencies"], outcome["elapsed"])
        if rec.tracing:
            # Same long query without the second tenant, and without
            # preemption: what sharing and what suspending cost.
            with rec.phase("solo", counted=False):
                solo = asyncio.run(self._serve(with_analyst=False))
            with rec.phase("unpreempted", counted=False):
                whole = asyncio.run(
                    self._serve(with_analyst=False, quantum_ms=None)
                )
            for other in (solo, whole):
                rec.check(other["long"] == self.expected[self.long],
                          "solo long query differs from one-shot")

    def _report(self, rec, outcome) -> None:
        rec.check(
            outcome["long"] == self.expected[self.long],
            f"paged long query {outcome['long']} differs from one-shot "
            f"{self.expected[self.long]}",
        )
        for text, got in outcome["answers"]:
            rec.check(got == self.expected[text],
                      "an analyst result differs from one-shot")
        for _ in range(outcome["rejected"]):
            rec.check(False, "a request was refused admission")
        rec.layer("server.suspends_n", outcome["pages"] - 1)
        rec.layer("server.rejects_n", outcome["rejected"])
        rec.layer("server.long_rows_n", outcome["long"][0])

    async def _serve(self, with_analyst: bool, quantum_ms=-1.0) -> dict:
        server = QueryServer(
            self.store, quantum_ms=quantum_ms, max_pending=64
        )
        finished = asyncio.Event()
        rejected = 0

        async def batch():
            started = time.perf_counter()
            page = await server.submit("batch", query=self.long)
            rows, pages = list(page.rows), 1
            while not page.done:
                page = await server.submit("batch", token=page.token)
                rows.extend(page.rows)
                pages += 1
            finished.set()
            return {
                "elapsed": time.perf_counter() - started,
                "pages": pages,
                "variables": page.variables,
                "rows": rows,
            }

        async def analyst():
            nonlocal rejected
            latencies, results = [], []
            turn = 0
            while not finished.is_set():
                text = self.analyst[turn % len(self.analyst)]
                turn += 1
                started = time.perf_counter()
                try:
                    result = await server.fetch("analyst", text)
                except AdmissionError:
                    rejected += 1
                    continue
                latencies.append(time.perf_counter() - started)
                results.append((text, result))
            return latencies, results

        try:
            if with_analyst:
                outcome, (latencies, results) = await asyncio.gather(
                    batch(), analyst()
                )
            else:
                outcome, latencies, results = await batch(), [], []
        finally:
            await server.close()
        # Fingerprinting after the loop keeps client think time out of
        # the single-threaded server's way.
        outcome["long"] = digest(
            outcome.pop("variables"), outcome.pop("rows")
        )
        outcome["answers"] = [
            (text, digest(result.variables, result.bindings))
            for text, result in results
        ]
        outcome["latencies"] = latencies
        outcome["rejected"] = rejected
        return outcome


WORKLOAD = ServeMixed
