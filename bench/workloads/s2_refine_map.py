"""``s2_refine_map`` — Scenario 2 in memory: refine hotspots against the
coastline, build the fire map, enrich it from linked data.

The stSPARQL evaluator, the geometry predicates/overlay and the R-tree do
nearly all the work and arrays none.  It reads and updates the store that
``s1_chain`` bulk-writes, so a faster emit that slows queries shows here.
"""

from __future__ import annotations

import random

from repro.eo.linkeddata import CLC, LGD, GreeceLikeWorld
from repro.ingest.metadata import NOA_PREFIXES
from repro.noa.chain import ProcessingChain
from repro.noa.mapping import FireMapBuilder
from repro.noa.refinement import Refiner
from repro.strabon import StrabonStore
from repro.vo import VirtualEarthObservatory
from repro.vo.catalog import CatalogQuery, ProductCatalog

from bench.workloads.inputs import select_rows, write_archive

PREFIXES = NOA_PREFIXES + f"PREFIX clc: <{CLC}>\nPREFIX lgd: <{LGD}>\n"
#: Surviving hotspots tested against the landmass after refinement.
LAND_SAMPLE = 40
#: ``Refiner.statements()`` in order.
STEPS = ("delete_in_sea", "clip_to_coast", "delete_in_lakes")


def enrichment_queries() -> list:
    """What the map's reader asks next: products near towns and sites,
    hotspots per land-cover region, the strongest detections."""
    catalog = [
        CatalogQuery().near_town(town, 0.15)
        for town in ("Patra", "Larissa", "Volos", "Kalamata")
    ] + [CatalogQuery().near_archaeological_site(0.05)]
    raw = [
        "SELECT ?area (count(?h) AS ?n) WHERE { "
        "?h a noa:Hotspot ; noa:hasGeometry ?hg . "
        "?area clc:hasGeometry ?ag . "
        "FILTER(strdf:intersects(?hg, ?ag)) } GROUP BY ?area",
        "SELECT ?road (count(?h) AS ?n) WHERE { "
        "?h a noa:Hotspot ; noa:hasGeometry ?hg . "
        "?road a lgd:Motorway ; lgd:hasGeometry ?rg . "
        "FILTER(strdf:distance(?hg, ?rg) < 0.05) } GROUP BY ?road",
        "SELECT ?h ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c ; "
        "noa:hasGeometry ?g . FILTER(?c > 0.9) "
        'FILTER(strdf:intersects(?g, "POLYGON((21 36.4, 23.6 36.4, '
        '23.6 38.1, 21 38.1, 21 36.4))"^^strdf:WKT)) }',
        "SELECT ?p (count(?h) AS ?n) WHERE { ?h a noa:Hotspot ; "
        "noa:isProducedBy ?p } GROUP BY ?p",
        "SELECT ?h ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c } "
        "ORDER BY DESC(?c) LIMIT 20",
        "SELECT ?h ?area WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
        "BIND(strdf:area(?g) AS ?area) } ORDER BY DESC(?area) LIMIT 20",
        "SELECT ?h ?t WHERE { ?h a noa:Hotspot ; "
        "noa:hasAcquisitionTime ?t ; noa:hasPixelCount ?px . "
        "FILTER(?px >= 10) }",
    ]
    return [("catalog", q) for q in catalog] + [
        ("raw", PREFIXES + text) for text in raw
    ]


class S2RefineMap:
    def __init__(self, ctx):
        self.ctx = ctx
        self.acquisitions = ctx.scaled(6)
        self.size = ctx.scaled(512, 64)
        self.fires = ctx.scaled(200, 25)
        self.passes = 2
        self.world = GreeceLikeWorld()
        self.queries = enrichment_queries()

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
        self.preloaded = vo.store.graph

    def round(self, rec) -> None:
        # Refinement mutates the store, so every round starts from a
        # fresh copy of the preloaded graph (untimed).
        store = StrabonStore()
        store.load_graph(self.preloaded)
        rec.layer("store.preloaded_triples_n", len(store))
        with rec.phase("write"):
            report = Refiner(store, self.world).apply()
        if rec.tracing:
            updates = rec.tracer.children_of_last(
                "refine.apply", "stsparql.update"
            )
            for step, seconds in zip(STEPS, updates):
                rec.layer(f"refine.{step}_s", seconds)
        removed = report.hotspots_before - report.hotspots_after
        rec.layer("refine.hotspots_removed_n", removed)
        rec.check(removed > 0, "refinement removed no hotspot")
        survivors = Refiner(store, self.world).hotspot_geometries()
        rec.check(
            len(survivors) == report.hotspots_after,
            "hotspot geometries and hotspot count disagree",
        )
        # Only survivors whose envelope meets the landmass's envelope:
        # with the spatial index on, the evaluator's index hint also
        # prunes under the negation in delete-in-sea, so hotspots beyond
        # that envelope are (wrongly) kept today; see bench/README.md.
        land = self.world.land
        near = [g for g in survivors if g.envelope.intersects(land.envelope)]
        sample = random.Random(self.ctx.seed).sample(
            near, min(LAND_SAMPLE, len(near))
        )
        rec.check(
            bool(sample) and all(land.intersects(g) for g in sample),
            "a surviving hotspot lies outside the landmass",
        )
        catalog = ProductCatalog(store)
        with rec.phase("read"):
            fire_map = FireMapBuilder(store, self.world).build()
            geojson = fire_map.to_geojson()
            counts = []
            for _ in range(self.passes):
                for kind, query in self.queries:
                    if kind == "catalog":
                        rows = rec.query(catalog.search, query)
                    else:
                        rows = rec.query(select_rows, store, query)
                    counts.append(len(rows))
        rec.layer("map.features_n", fire_map.feature_count())
        rec.check(
            len(fire_map.layer("hotspots")) == report.hotspots_after,
            "map hotspot layer and refined hotspot count disagree",
        )
        rec.check(
            len(geojson["features"]) == fire_map.feature_count(),
            "GeoJSON export lost or duplicated features",
        )
        n = len(self.queries)
        rec.check(
            counts[:n] == counts[n:],
            "enrichment results differ between passes",
        )
        stats = store.plan_cache.stats
        rec.layer("store.plan_cache_hits_n", stats.hits)
        rec.layer("store.plan_cache_lookups_n", stats.lookups)


WORKLOAD = S2RefineMap
