"""Experiment A4 — Strabon query latency vs store size, per query class.

Four query classes over synthetic hotspot catalogs of growing size:
BGP-only, numeric filter, spatial filter (R-tree assisted) and grouped
aggregation.  Expected shape: BGP and spatial stay near-flat thanks to
the permutation indexes/R-tree; filter and aggregate grow linearly with
the matching rows.
"""

import pytest

from repro.geometry import Point
from repro.rdf import Literal, Namespace, URIRef
from repro.rdf.namespace import RDF
from repro.strabon import StrabonStore, geometry_literal

EX = Namespace("http://example.org/")
PREFIXES = (
    "PREFIX ex: <http://example.org/>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)

QUERIES = {
    "bgp": (
        PREFIXES
        + "SELECT ?h WHERE { ?h a ex:Hotspot ; ex:sensor ex:seviri7 }"
    ),
    "filter": (
        PREFIXES
        + "SELECT ?h WHERE { ?h a ex:Hotspot ; ex:conf ?c . "
        "FILTER(?c > 0.97) }"
    ),
    "spatial": (
        PREFIXES
        + "SELECT ?h WHERE { ?h ex:geom ?g . "
        'FILTER(strdf:intersects(?g, '
        '"POLYGON ((40 40, 45 40, 45 45, 40 45, 40 40))"^^strdf:WKT)) }'
    ),
    "aggregate": (
        PREFIXES
        + "SELECT ?s (count(*) AS ?n) (avg(?c) AS ?m) WHERE "
        "{ ?h a ex:Hotspot ; ex:sensor ?s ; ex:conf ?c } GROUP BY ?s"
    ),
}


def build_store(n_hotspots: int) -> StrabonStore:
    triples = []
    type_iri = URIRef(str(RDF) + "type")
    state = 99
    for i in range(n_hotspots):
        node = EX[f"h{i}"]
        state = (state * 1103515245 + 12345) % (1 << 31)
        x = (state >> 8) % 10000 / 100.0
        state = (state * 1103515245 + 12345) % (1 << 31)
        y = (state >> 8) % 10000 / 100.0
        conf = ((i * 37) % 1000) / 1000.0
        triples += [
            (node, type_iri, EX.Hotspot),
            (node, EX.sensor, EX[f"seviri{i % 10}"]),
            (node, EX.conf, Literal(conf)),
            (node, EX.geom, geometry_literal(Point(x, y))),
        ]
    store = StrabonStore()
    store.load_graph(triples)
    return store


_STORES = {}


def store_of(size):
    if size not in _STORES:
        _STORES[size] = build_store(size)
    return _STORES[size]


@pytest.mark.parametrize("n_hotspots", [1000, 4000, 16000])
@pytest.mark.parametrize("query_class", sorted(QUERIES))
def test_query_class_scaling(benchmark, n_hotspots, query_class):
    store = store_of(n_hotspots)

    result = benchmark(store.query, QUERIES[query_class])
    assert len(result) > 0
    benchmark.extra_info["triples"] = len(store)
    benchmark.extra_info["rows"] = len(result)
    benchmark.group = f"strabon-{query_class}"
