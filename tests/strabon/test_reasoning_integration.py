"""RDFS reasoning inside the Strabon store: concept-hierarchy queries."""

import pytest

from repro.mining.ontology import EM, combined_ontology
from repro.rdf import Namespace, URIRef
from repro.rdf.namespace import RDF
from repro.strabon import StrabonStore, geometry_literal
from repro.geometry import Point

EX = Namespace("http://example.org/")
P = (
    "PREFIX ex: <http://example.org/>\n"
    f"PREFIX em: <{EM}>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)


@pytest.fixture
def store():
    s = StrabonStore()
    type_iri = URIRef(str(RDF) + "type")
    s.load_graph(
        [
            (EX.fire1, type_iri, URIRef(str(EM) + "ForestFire")),
            (EX.fire2, type_iri, URIRef(str(EM) + "AgriculturalFire")),
            (EX.flood1, type_iri, URIRef(str(EM) + "Flood")),
            (EX.fire1, EX.geom, geometry_literal(Point(22, 38))),
        ]
    )
    return s


class TestReasoningIntegration:
    def test_no_reasoning_no_superclass_matches(self, store):
        r = store.query(P + "SELECT ?x WHERE { ?x a em:NaturalHazard }")
        assert len(r) == 0

    def test_materialized_hierarchy_queryable(self, store):
        added = store.apply_reasoning(combined_ontology())
        assert added > 0
        r = store.query(P + "SELECT ?x WHERE { ?x a em:NaturalHazard }")
        names = {str(t).rsplit("/", 1)[-1] for t in r.column("x")}
        assert names == {"fire1", "fire2", "flood1"}

    def test_intermediate_class(self, store):
        store.apply_reasoning(combined_ontology())
        r = store.query(P + "SELECT ?x WHERE { ?x a em:Fire }")
        assert len(r) == 2

    def test_reasoning_idempotent(self, store):
        store.apply_reasoning(combined_ontology())
        assert store.apply_reasoning(combined_ontology()) == 0

    def test_spatial_query_over_inferred_types(self, store):
        store.apply_reasoning(combined_ontology())
        r = store.query(
            P
            + "SELECT ?x WHERE { ?x a em:NaturalHazard ; ex:geom ?g . "
            'FILTER(strdf:intersects(?g, '
            '"POLYGON ((21 37, 23 37, 23 39, 21 39, 21 37))"^^strdf:WKT)) }'
        )
        assert [str(t).rsplit("/", 1)[-1] for t in r.column("x")] == [
            "fire1"
        ]

    def test_backend_rowcount_tracks_inferred(self, store):
        before = set(store.triples())
        added = store.apply_reasoning(combined_ontology())
        after = set(store.triples())
        assert before <= after
        assert len(store) == len(after) == len(before) + added
