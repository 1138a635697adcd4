"""``s1_chain`` — Scenario 1 in memory: run the NOA chains, discover
their products.

Array-heavy and emit-heavy: vault, ingest, SciQL kernels, the chain's
vectorisation and ``StrabonStore.bulk`` do nearly all the work of the
write phase; the read phase is short discovery queries.
"""

from __future__ import annotations

from repro.eo.linkeddata import GreeceLikeWorld
from repro.geometry import Envelope, Polygon
from repro.ingest.metadata import NOA_PREFIXES, product_to_rdf
from repro.noa.chain import ChainResult, ProcessingChain
from repro.rdf import Graph
from repro.vo import VirtualEarthObservatory
from repro.vo.catalog import CatalogQuery

from bench.workloads.inputs import (
    BASE_TIME,
    CADENCE,
    select_rows,
    write_archive,
)

CLASSIFIERS = ("static", "contextual")
STAGES = ("ingestion", "cropping", "georeference", "classification",
          "shapefile")
#: Pixel recall against the simulator's fire mask every chain must reach
#: (the fixed-threshold classifier sits near 0.89 on these scenes).
MIN_RECALL = 0.8


def discovery_queries(acquisitions: int) -> list:
    """The portal's discovery mix, sixteen queries a pass: classic
    catalog criteria, semantic criteria over linked data, and raw
    stSPARQL over hotspot attributes.

    The dashboard's per-product count is asked four times and the
    near-town search three times a pass, as popular queries are: the
    median then falls inside the first class and the 95th percentile
    inside the second, not on a boundary between two kinds of query,
    where a percentile jumps with every seed.
    """
    peloponnese = Polygon.from_envelope(
        Envelope(21.0, 36.4, 23.6, 38.1), srid=4326
    )
    last = BASE_TIME + (acquisitions - 1) * CADENCE
    near_patra = CatalogQuery().acquired_between(
        BASE_TIME, BASE_TIME
    ).near_town("Patra", 0.1)
    per_product = (
        "SELECT ?p (count(?h) AS ?n) WHERE { ?h noa:isProducedBy ?p } "
        "GROUP BY ?p"
    )
    catalog = [
        CatalogQuery().mission("MSG2"),
        CatalogQuery().sensor("SEVIRI").level(0),
        CatalogQuery().mission("MSG2").acquired_between(
            BASE_TIME, BASE_TIME + CADENCE
        ),
        CatalogQuery().mission("MSG2").acquired_between(last, last),
        CatalogQuery().covering(peloponnese),
        near_patra,
        near_patra,
        CatalogQuery().acquired_between(last, last)
        .near_town("Larissa", 0.1),
    ]
    raw = [
        "SELECT ?h ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . "
        "FILTER(?c > 0.99) }",
        "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
        'FILTER(strdf:intersects(?g, "POLYGON((22 37, 22.5 37, 22.5 37.5,'
        ' 22 37.5, 22 37))"^^strdf:WKT)) }',
        "SELECT ?p ?c WHERE { ?p noa:isDerivedFrom ?src ; "
        "noa:hasClassifier ?c }",
        "SELECT ?h ?px WHERE { ?h a noa:Hotspot ; noa:hasPixelCount ?px . "
        "FILTER(?px >= 12) }",
    ] + [per_product] * 4
    return [("catalog", q) for q in catalog] + [
        ("raw", NOA_PREFIXES + text) for text in raw
    ]


class S1Chain:
    def __init__(self, ctx):
        self.ctx = ctx
        self.acquisitions = ctx.scaled(6)
        self.size = ctx.scaled(1024, 64)
        self.fires = ctx.scaled(400, 8)
        self.passes = ctx.scaled(5)
        self.world = GreeceLikeWorld()
        self.queries = discovery_queries(self.acquisitions)

    def setup(self) -> None:
        self.archive = self.ctx.fresh_dir("archive")
        self.paths, self.truth = write_archive(
            self.archive, self.ctx.seed, self.acquisitions, self.size,
            self.fires,
        )

    def round(self, rec) -> None:
        out = self.ctx.fresh_dir("products")
        with rec.phase("write"):
            vo = VirtualEarthObservatory(world=self.world)
            vo.ingestor.catalog_directory(self.archive)
            before = len(vo.store)
            batches = [
                ProcessingChain(vo.ingestor, classifier=name).run_batch(
                    self.paths, output_dir=out
                )
                for name in CLASSIFIERS
            ]
        self._check_write(rec, vo, before, batches)
        with rec.phase("read"):
            counts = []
            for _ in range(self.passes):
                for kind, query in self.queries:
                    if kind == "catalog":
                        rows = rec.query(vo.catalog.search, query)
                    else:
                        rows = rec.query(select_rows, vo.store, query)
                    counts.append(len(rows))
        n = len(self.queries)
        rec.check(
            all(counts[i] == counts[i % n] for i in range(len(counts))),
            "discovery results differ between passes",
        )
        rec.check(
            counts[0] == 3 * self.acquisitions,
            f"mission search found {counts[0]} products",
        )
        stats = vo.store.plan_cache.stats
        rec.layer("store.plan_cache_hits_n", stats.hits)
        rec.layer("store.plan_cache_lookups_n", stats.lookups)
        rec.layer("vault.cache_hits_n", vo.vault.stats["cache_hits"])
        rec.layer("vault.ingests_n", vo.vault.stats["ingests"])

    def _check_write(self, rec, vo, before, batches) -> None:
        # Hotspot URIs are keyed by the *source* product, so the two
        # classifiers' detections of one scene share nodes: the store
        # must hold the union of the result graphs, not their sum.
        union = Graph()
        uris = set()
        for batch in batches:
            for result, truth in zip(batch, self.truth):
                ok = isinstance(result, ChainResult)
                rec.check(ok, f"chain failed: {result!r}")
                if not ok:
                    rec.layer("chain.failed_n", 1)
                    continue
                for graph in (
                    result.rdf, product_to_rdf(result.source_product)
                ):
                    for triple in graph:
                        union.add(triple)
                uris.update(h.uri for h in result.hotspots)
                rec.layer("chain.hotspots_n", len(result.hotspots))
                for stage in STAGES:
                    rec.layer(f"chain.{stage}_s", result.timings[stage])
                found = (result.hotspot_mask & truth).sum()
                rec.check(
                    found >= MIN_RECALL * truth.sum(),
                    f"{result.classifier} recall {found}/{truth.sum()}",
                )
        rec.check(
            len(vo.store) == before + len(union),
            f"store holds {len(vo.store)} triples, result graphs hold "
            f"{before + len(union)}",
        )
        rec.check(
            vo.catalog.count_products() == 3 * self.acquisitions,
            "product count is not source + one per classifier",
        )
        counted = vo.store.query(
            NOA_PREFIXES
            + "SELECT (count(*) AS ?n) WHERE { ?h a noa:Hotspot }"
        ).values()[0][0]
        rec.check(
            int(counted) == len(uris),
            f"store holds {counted} hotspots, results hold {len(uris)}",
        )


WORKLOAD = S1Chain
