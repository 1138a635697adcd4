"""stRDF temporal and directional extension function tests."""

from datetime import datetime

import pytest

from repro.geometry import Point, Polygon
from repro.rdf import Literal, Namespace
from repro.strabon import StrabonStore, geometry_literal, period_literal

EX = Namespace("http://example.org/")
PREFIXES = (
    "PREFIX ex: <http://example.org/>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
    "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
)


@pytest.fixture
def temporal_store():
    """Hotspot observations with validity periods (stRDF valid time)."""
    store = StrabonStore()
    periods = {
        "morning": (datetime(2007, 8, 25, 8), datetime(2007, 8, 25, 12)),
        "afternoon": (datetime(2007, 8, 25, 12), datetime(2007, 8, 25, 18)),
        "nextday": (datetime(2007, 8, 26, 8), datetime(2007, 8, 26, 12)),
    }
    for name, (start, end) in periods.items():
        store.load_graph(
            [
                (EX[name], EX.validFor, period_literal(start, end)),
                (EX[name], EX.kind, EX.Observation),
            ]
        )
    return store


PERIOD_NOON = '"[2007-08-25T10:00:00, 2007-08-25T14:00:00)"^^strdf:period'
DAY_25 = '"[2007-08-25T00:00:00, 2007-08-26T00:00:00)"^^strdf:period'


class TestTemporalFunctions:
    def test_period_overlaps(self, temporal_store):
        r = temporal_store.query(
            PREFIXES
            + "SELECT ?o WHERE { ?o ex:validFor ?p . "
            f"FILTER(strdf:periodOverlaps(?p, {PERIOD_NOON})) }}"
        )
        names = {t.local_name for t in r.column("o")}
        assert names == {"morning", "afternoon"}

    def test_during(self, temporal_store):
        r = temporal_store.query(
            PREFIXES
            + "SELECT ?o WHERE { ?o ex:validFor ?p . "
            f"FILTER(strdf:during(?p, {DAY_25})) }}"
        )
        names = {t.local_name for t in r.column("o")}
        assert names == {"morning", "afternoon"}

    def test_instant_during_period(self, temporal_store):
        r = temporal_store.query(
            PREFIXES
            + "SELECT ?o WHERE { ?o ex:validFor ?p . "
            'FILTER(strdf:during("2007-08-25T09:30:00"^^xsd:dateTime, ?p)) }'
        )
        assert [t.local_name for t in r.column("o")] == ["morning"]

    def test_period_before_after(self, temporal_store):
        r = temporal_store.query(
            PREFIXES
            + "SELECT ?o WHERE { ?o ex:validFor ?p . "
            f"FILTER(strdf:periodBefore(?p, "
            '"[2007-08-26T00:00:00, 2007-08-27T00:00:00)"^^strdf:period)) }'
        )
        assert {t.local_name for t in r.column("o")} == {
            "morning",
            "afternoon",
        }
        r2 = temporal_store.query(
            PREFIXES
            + "SELECT ?o WHERE { ?o ex:validFor ?p . "
            f"FILTER(strdf:periodAfter(?p, {DAY_25})) }}"
        )
        assert [t.local_name for t in r2.column("o")] == ["nextday"]

    def test_period_start_end(self, temporal_store):
        r = temporal_store.query(
            PREFIXES
            + "SELECT (strdf:periodStart(?p) AS ?s) "
            "(strdf:periodEnd(?p) AS ?e) WHERE "
            "{ ex:morning ex:validFor ?p }"
        )
        start, end = r.values()[0]
        assert start == datetime(2007, 8, 25, 8)
        assert end == datetime(2007, 8, 25, 12)

    def test_half_open_semantics(self, temporal_store):
        # morning ends exactly when afternoon starts: they do NOT overlap.
        r = temporal_store.query(
            PREFIXES
            + "SELECT ?a ?b WHERE { ex:morning ex:validFor ?a . "
            "ex:afternoon ex:validFor ?b . "
            "FILTER(strdf:periodOverlaps(?a, ?b)) }"
        )
        assert len(r) == 0

    def test_bad_period_filters_out(self, temporal_store):
        temporal_store.load_graph([(EX.broken, EX.validFor, Literal("garbage"))])
        r = temporal_store.query(
            PREFIXES
            + "SELECT ?o WHERE { ?o ex:validFor ?p . "
            f"FILTER(strdf:periodOverlaps(?p, {DAY_25})) }}"
        )
        assert "broken" not in {t.local_name for t in r.column("o")}

    def test_datetime_comparison_still_works(self, temporal_store):
        triple = (
            EX.obs,
            EX.at,
            Literal(
                "2007-08-25T10:00:00",
                datatype="http://www.w3.org/2001/XMLSchema#dateTime",
            ),
        )
        temporal_store.load_graph([triple])
        r = temporal_store.query(
            PREFIXES
            + "SELECT ?o WHERE { ?o ex:at ?t . "
            'FILTER(?t < "2007-08-25T11:00:00"^^xsd:dateTime) }'
        )
        assert len(r) == 1


@pytest.fixture
def directional_store():
    store = StrabonStore()
    layout = {
        "center": Point(10, 10),
        "west": Point(5, 10),
        "east": Point(15, 10),
        "north": Point(10, 15),
        "south": Point(10, 5),
    }
    for name, geom in layout.items():
        store.load_graph([(EX[name], EX.geom, geometry_literal(geom))])
    return store


class TestDirectionalFunctions:
    CENTER = '"POINT (10 10)"^^strdf:WKT'

    @pytest.mark.parametrize(
        "fn,expected",
        [
            ("left", {"west"}),
            ("right", {"east"}),
            ("above", {"north"}),
            ("below", {"south"}),
        ],
    )
    def test_strict_directions(self, directional_store, fn, expected):
        r = directional_store.query(
            PREFIXES
            + "SELECT ?s WHERE { ?s ex:geom ?g . "
            f"FILTER(strdf:{fn}(?g, {self.CENTER}) && "
            f"!sameTerm(?s, ex:center)) }}"
        )
        names = {t.local_name for t in r.column("s")}
        # Points exactly aligned on the other axis still count (envelope
        # semantics); the strictly opposite point must never match.
        assert expected <= names
        opposite = {"left": "east", "right": "west",
                    "above": "south", "below": "north"}[fn]
        assert opposite not in names

    def test_polygon_directional(self, directional_store):
        triple = (
            EX.region,
            EX.geom,
            geometry_literal(
                Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
            ),
        )
        directional_store.load_graph([triple])
        r = directional_store.query(
            PREFIXES
            + "SELECT ?s WHERE { ?s ex:geom ?g . "
            'FILTER(strdf:left(?g, "POINT (10 10)"^^strdf:WKT)) }'
        )
        assert "region" in {t.local_name for t in r.column("s")}
