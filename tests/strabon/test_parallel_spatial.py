"""Vectorised spatial fast paths: spatial-index hints and batched probes."""

import random

import pytest

from repro.geometry import Envelope, Point
from repro.rdf import Namespace
from repro.strabon import StrabonStore, geometry_literal

EX = Namespace("http://example.org/")

PREFIXES = (
    "PREFIX ex: <http://example.org/>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)

REGION = '"POLYGON ((10 10, 40 10, 40 40, 10 40, 10 10))"^^strdf:WKT'


def build_store(n=120, seed=23, use_spatial_index=True):
    """Many point sites, with two bindings no geometry test can use."""
    rng = random.Random(seed)
    triples = []
    for k in range(n):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        triples.append((EX[f"site{k}"], EX.geom, geometry_literal(Point(x, y))))
    # A non-geometry binding and a malformed geometry literal: both
    # must reach the exact filter untouched.
    from repro.rdf.term import Literal
    from repro.strabon import strdf

    triples.append((EX.odd, EX.geom, Literal("not a geometry")))
    for k in range(0, n, 10):
        triples.append((EX[f"site{k}"], EX.kind, EX.Marked))
    triples.append(
        (
            EX.broken,
            EX.geom,
            Literal("POLYGON oops", datatype=strdf.WKT_DATATYPE),
        )
    )
    store = StrabonStore(use_spatial_index=use_spatial_index)
    store.load_graph(triples)
    return store


QUERIES = [
    (
        "within",
        PREFIXES
        + "SELECT ?s WHERE { ?s ex:geom ?g . "
        f"FILTER(strdf:within(?g, {REGION})) }}",
    ),
    (
        "intersects",
        PREFIXES
        + "SELECT ?s WHERE { ?s ex:geom ?g . "
        f"FILTER(strdf:intersects(?g, {REGION})) }}",
    ),
    (
        "contains-constant-first",
        PREFIXES
        + "SELECT ?s WHERE { ?s ex:geom ?g . "
        f"FILTER(strdf:contains({REGION}, ?g)) }}",
    ),
    # Neither FILTER below asserts the predicate of every kept row, so
    # neither may narrow ?g to the region's R-tree candidates.
    (
        "negated",
        PREFIXES
        + "SELECT ?s WHERE { ?s ex:geom ?g . "
        f"FILTER(!strdf:intersects(?g, {REGION})) }}",
    ),
    (
        "disjunction",
        PREFIXES
        + "SELECT ?s WHERE { ?s ex:geom ?g . "
        f"FILTER(strdf:intersects(?g, {REGION}) || "
        'strstarts(str(?s), "http://example.org/site1")) }',
    ),
    # Fewer marked sites than hint candidates: the join binds ?s first,
    # so the hinted ?g scan runs under a bound subject.
    (
        "bound-subject",
        PREFIXES
        + "SELECT ?s WHERE { ?s ex:kind ex:Marked . ?s ex:geom ?g . "
        'FILTER(strdf:intersects(?g, "POLYGON ((0 0, 60 0, 60 60, 0 60, '
        '0 0))"^^strdf:WKT)) }',
    ),
]


class TestEnvelopePrefilter:
    """The same spatial FILTER with the spatial index on and off."""

    @pytest.mark.parametrize("name,query", QUERIES)
    def test_indexed_equals_unindexed(self, name, query):
        # Index hints may reorder BGP candidates, so compare as sets.
        indexed = build_store(use_spatial_index=True).query(query)
        plain = build_store(use_spatial_index=False).query(query)
        assert set(indexed.column("s")) == set(plain.column("s"))
        assert len(indexed) == len(plain) > 0


class TestBatchCandidates:
    def test_matches_per_envelope_candidates(self):
        store = build_store()
        rng = random.Random(7)
        probes = [
            Envelope(x, y, x + 20, y + 20)
            for x, y in (
                (rng.uniform(0, 80), rng.uniform(0, 80)) for _ in range(12)
            )
        ]
        probes.append(Envelope(500, 500, 501, 501))
        batched = store.spatial_candidates_batch(probes)
        assert batched == [
            store.spatial_candidates(p) for p in probes
        ]

    def test_disabled_index_returns_none(self):
        store = build_store(n=20, use_spatial_index=False)
        assert (
            store.spatial_candidates_batch([Envelope(0, 0, 1, 1)]) is None
        )

    def test_multi_filter_query_uses_batch(self):
        # Two indexable filters in one query: results still exact.
        query = (
            PREFIXES
            + "SELECT ?s WHERE { ?s ex:geom ?g . "
            f"FILTER(strdf:intersects(?g, {REGION})) . "
            'FILTER(strdf:intersects(?g, "POLYGON ((0 0, 60 0, 60 60, '
            '0 60, 0 0))"^^strdf:WKT)) }'
        )
        indexed = build_store().query(query)
        plain = build_store(use_spatial_index=False).query(query)
        assert set(indexed.column("s")) == set(plain.column("s"))
        assert len(indexed) == len(plain) > 0


class TestGeometryLiteralsStillExact:
    def test_boundary_point_semantics_preserved(self):
        # Envelope decisions must not change OGC boundary semantics.
        store = StrabonStore()
        store.load_graph(
            (EX[f"p{k}"], EX.geom, geometry_literal(Point(float(k), 2.5)))
            for k in range(20)
        )
        store.load_graph([(EX.edge, EX.geom, geometry_literal(Point(5.0, 5.0)))])
        query = (
            PREFIXES
            + "SELECT ?s WHERE { ?s ex:geom ?g . "
            'FILTER(strdf:within(?g, "POLYGON ((0 0, 5 0, 5 5, 0 5, '
            '0 0))"^^strdf:WKT)) }'
        )
        names = {
            t.local_name for t in store.query(query).column("s")
        }
        # Points on the boundary (p0, p5, edge) are not OGC-within.
        assert names == {f"p{k}" for k in range(1, 5)}
