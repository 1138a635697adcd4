"""Spatial stSPARQL tests: strdf functions, index, spatial aggregates."""

import pytest

from repro.geometry import Point, Polygon
from repro.rdf import Namespace
from repro.strabon import StrabonStore, geometry_literal, literal_geometry

EX = Namespace("http://example.org/")

PREFIXES = (
    "PREFIX ex: <http://example.org/>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
    "PREFIX geof: <http://www.opengis.net/def/function/geosparql/>\n"
)


def build_store(use_spatial_index=True):
    store = StrabonStore(use_spatial_index=use_spatial_index)
    points = {
        "inside_a": Point(1.0, 1.0),
        "inside_b": Point(2.0, 2.0),
        "boundary": Point(0.0, 1.0),
        "outside": Point(10.0, 10.0),
        "far": Point(50.0, 50.0),
    }
    for name, geom in points.items():
        store.load_graph(
            [
                (EX[name], EX.geom, geometry_literal(geom)),
                (EX[name], EX.kind, EX.Site),
            ]
        )
    triple = (
        EX.region,
        EX.geom,
        geometry_literal(Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])),
    )
    store.load_graph([triple])
    return store


REGION = '"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"^^strdf:WKT'


class TestSpatialFilters:
    def test_within(self):
        store = build_store()
        r = store.query(
            PREFIXES
            + "SELECT ?s WHERE { ?s ex:geom ?g . "
            f"FILTER(strdf:within(?g, {REGION})) }}"
        )
        names = {t.local_name for t in r.column("s")}
        # OGC within: a point only on the boundary is NOT within.
        assert names == {"inside_a", "inside_b", "region"}

    def test_contains_from_constant(self):
        store = build_store()
        r = store.query(
            PREFIXES
            + "SELECT ?s WHERE { ?s ex:geom ?g . "
            f"FILTER(strdf:contains({REGION}, ?g)) }}"
        )
        names = {t.local_name for t in r.column("s")}
        # OGC contains: the boundary point is not contained.
        assert "inside_a" in names and "outside" not in names

    def test_intersects(self):
        store = build_store()
        r = store.query(
            PREFIXES
            + "SELECT (count(*) AS ?n) WHERE { ?s ex:geom ?g . "
            f"FILTER(strdf:intersects(?g, {REGION})) }}"
        )
        assert r.values() == [(4,)]

    def test_disjoint(self):
        store = build_store()
        r = store.query(
            PREFIXES
            + "SELECT ?s WHERE { ?s ex:geom ?g . ?s ex:kind ex:Site . "
            f"FILTER(strdf:disjoint(?g, {REGION})) }}"
        )
        names = {t.local_name for t in r.column("s")}
        assert names == {"outside", "far"}

    def test_distance_filter(self):
        store = build_store()
        r = store.query(
            PREFIXES
            + "SELECT ?s WHERE { ?s ex:kind ex:Site ; ex:geom ?g . "
            'FILTER(strdf:distance(?g, "POINT (1 1)"^^strdf:WKT) < 2) }'
        )
        names = {t.local_name for t in r.column("s")}
        assert names == {"inside_a", "inside_b", "boundary"}

    def test_dwithin(self):
        store = build_store()
        r = store.query(
            PREFIXES
            + "SELECT (count(*) AS ?n) WHERE { ?s ex:kind ex:Site ; ex:geom ?g ."
            ' FILTER(strdf:dwithin(?g, "POINT (1 1)"^^strdf:WKT, 2)) }'
        )
        assert r.values() == [(3,)]

    def test_geof_alias(self):
        store = build_store()
        r = store.query(
            PREFIXES
            + "SELECT (count(*) AS ?n) WHERE { ?s ex:geom ?g . "
            f"FILTER(geof:sfWithin(?g, {REGION})) }}"
        )
        assert r.values() == [(3,)]

    def test_spatial_join_between_variables(self):
        store = build_store()
        r = store.query(
            PREFIXES
            + "SELECT ?s WHERE { ex:region ex:geom ?rg . "
            "?s ex:kind ex:Site ; ex:geom ?g . "
            "FILTER(strdf:within(?g, ?rg)) }"
        )
        assert len(r) == 2


class TestSpatialExpressions:
    def test_area(self):
        store = build_store()
        r = store.query(
            PREFIXES
            + "SELECT (strdf:area(?g) AS ?a) WHERE { ex:region ex:geom ?g }"
        )
        assert r.values() == [(16.0,)]

    def test_buffer_and_within(self):
        store = build_store()
        r = store.query(
            PREFIXES
            + "SELECT ?s WHERE { ?s ex:kind ex:Site ; ex:geom ?g . "
            'FILTER(strdf:within(?g, strdf:buffer("POINT (1 1)"^^strdf:WKT, 3))) }'
        )
        names = {t.local_name for t in r.column("s")}
        assert "inside_a" in names and "outside" not in names

    def test_bind_intersection_area(self):
        store = build_store()
        r = store.query(
            PREFIXES
            + "SELECT ?a WHERE { ex:region ex:geom ?g . "
            'BIND(strdf:area(strdf:intersection(?g, '
            '"POLYGON ((2 2, 6 2, 6 6, 2 6, 2 2))"^^strdf:WKT)) AS ?a) }'
        )
        assert r.values()[0][0] == pytest.approx(4.0, rel=1e-3)

    def test_envelope_and_astext(self):
        store = build_store()
        r = store.query(
            PREFIXES
            + "SELECT (strdf:asText(strdf:envelope(?g)) AS ?e) "
            "WHERE { ex:region ex:geom ?g }"
        )
        wkt = r.values()[0][0]
        assert wkt.startswith("POLYGON")

    def test_transform(self):
        store = build_store()
        r = store.query(
            PREFIXES
            + "SELECT (strdf:srid(strdf:transform(?g, 3857)) AS ?srid) "
            "WHERE { ex:inside_a ex:geom ?g }"
        )
        assert r.values() == [(3857,)]

    def test_centroid(self):
        store = build_store()
        r = store.query(
            PREFIXES
            + "SELECT (strdf:asText(strdf:centroid(?g)) AS ?c) "
            "WHERE { ex:region ex:geom ?g }"
        )
        assert r.values() == [("POINT (2 2)",)]


class TestSpatialAggregates:
    def test_union_aggregate(self):
        store = build_store()
        r = store.query(
            PREFIXES
            + "SELECT (strdf:union(?g) AS ?u) WHERE "
            "{ ?s ex:kind ex:Site ; ex:geom ?g }"
        )
        geom = literal_geometry(r.rows()[0][0])
        assert geom.geom_type == "MultiPoint"
        assert len(list(geom.coords())) == 5

    def test_extent_aggregate(self):
        store = build_store()
        r = store.query(
            PREFIXES
            + "SELECT (strdf:extent(?g) AS ?e) WHERE "
            "{ ?s ex:kind ex:Site ; ex:geom ?g }"
        )
        geom = literal_geometry(r.rows()[0][0])
        assert geom.envelope.as_tuple() == (0.0, 1.0, 50.0, 50.0)

    def test_union_of_polygons_merges(self):
        store = StrabonStore()
        a = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        b = Polygon([(1, 1), (3, 1), (3, 3), (1, 3)])
        store.load_graph(
            [
                (EX.p1, EX.geom, geometry_literal(a)),
                (EX.p2, EX.geom, geometry_literal(b)),
            ]
        )
        r = store.query(
            PREFIXES
            + "SELECT (strdf:union(?g) AS ?u) WHERE { ?s ex:geom ?g }"
        )
        merged = literal_geometry(r.rows()[0][0])
        assert merged.area == pytest.approx(7.0, rel=1e-3)


class TestSpatialIndexEquivalence:
    def test_index_and_scan_agree(self):
        indexed = build_store(use_spatial_index=True)
        scanned = build_store(use_spatial_index=False)
        query = (
            PREFIXES
            + "SELECT ?s WHERE { ?s ex:geom ?g . "
            f"FILTER(strdf:intersects(?g, {REGION})) }}"
        )
        a = sorted(t.n3() for t in indexed.query(query).column("s"))
        b = sorted(t.n3() for t in scanned.query(query).column("s"))
        assert a == b

    def test_index_updates_on_remove(self):
        store = build_store()
        store.apply(deletes=store.triples((EX.inside_a, None, None)))
        r = store.query(
            PREFIXES
            + "SELECT ?s WHERE { ?s ex:geom ?g . "
            f"FILTER(strdf:within(?g, {REGION})) }}"
        )
        names = {t.local_name for t in r.column("s")}
        assert "inside_a" not in names

    def test_spatial_candidates(self):
        from repro.geometry import Envelope

        store = build_store()
        candidates = store.spatial_candidates(Envelope(0, 0, 4, 4))
        assert candidates is not None
        assert len(candidates) == 4
        assert store.spatial_candidates(Envelope(100, 100, 101, 101)) == set()

    def test_disabled_index_returns_none(self):
        from repro.geometry import Envelope

        store = build_store(use_spatial_index=False)
        assert store.spatial_candidates(Envelope(0, 0, 4, 4)) is None
