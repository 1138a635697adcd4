"""Experiment A1 — ablation: the spatial index in Strabon.

Spatial selections with the R-tree candidate pre-filter vs the unindexed
evaluation, over growing store sizes.  Expected shape: the index wins
superlinearly as the store grows, because the selection touches a small
window of a large extent.
"""

import pytest

from repro.geometry import Point
from repro.rdf import Namespace
from repro.strabon import StrabonStore, geometry_literal

EX = Namespace("http://example.org/")

QUERY = (
    "PREFIX ex: <http://example.org/>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
    "SELECT ?s WHERE { ?s ex:geom ?g . "
    'FILTER(strdf:within(?g, '
    '"POLYGON ((10 10, 12 10, 12 12, 10 12, 10 10))"^^strdf:WKT)) }'
)


def build_store(n_points: int, use_spatial_index: bool) -> StrabonStore:
    """n geometry literals spread deterministically over a 100x100 extent."""
    triples = []
    state = 12345
    for i in range(n_points):
        state = (state * 1103515245 + 12345) % (1 << 31)
        x = (state >> 8) % 10000 / 100.0
        state = (state * 1103515245 + 12345) % (1 << 31)
        y = (state >> 8) % 10000 / 100.0
        triples.append((EX[f"p{i}"], EX.geom, geometry_literal(Point(x, y))))
    store = StrabonStore(use_spatial_index=use_spatial_index)
    store.load_graph(triples)
    return store


@pytest.mark.parametrize("n_points", [1000, 5000, 20000])
@pytest.mark.parametrize("indexed", [True, False])
def test_spatial_selection(benchmark, n_points, indexed):
    store = build_store(n_points, use_spatial_index=indexed)
    expected = len(store.query(QUERY))

    result = benchmark(store.query, QUERY)
    assert len(result) == expected  # both paths agree
    benchmark.extra_info["n_points"] = n_points
    benchmark.extra_info["indexed"] = indexed
    benchmark.extra_info["hits"] = len(result)
    benchmark.group = f"spatial-selection-{n_points}"


def test_index_build_cost(benchmark):
    """The price of the index: insertion throughput with indexing on."""

    def build():
        return build_store(2000, use_spatial_index=True)

    store = benchmark.pedantic(build, rounds=3, iterations=1)
    assert len(store) == 2000
