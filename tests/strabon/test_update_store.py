"""stSPARQL update and store-backend tests."""

import pytest

from repro.rdf import Literal, Namespace, URIRef
from repro.strabon import StrabonStore
from repro.strabon.stsparql.errors import StSPARQLSyntaxError

EX = Namespace("http://example.org/")
PREFIXES = "PREFIX ex: <http://example.org/>\n"


@pytest.fixture
def store():
    s = StrabonStore()
    s.load_turtle(
        """
        @prefix ex: <http://example.org/> .
        @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
        ex:h1 a ex:Hotspot ; ex:conf "0.9"^^xsd:double .
        ex:h2 a ex:Hotspot ; ex:conf "0.3"^^xsd:double .
        """
    )
    return s


class TestInsertDeleteData:
    def test_insert_data(self, store):
        n = store.update(
            PREFIXES + "INSERT DATA { ex:h3 a ex:Hotspot . ex:h3 ex:conf 0.7 }"
        )
        assert n == 2
        assert bool(store.query(PREFIXES + "ASK { ex:h3 a ex:Hotspot }"))

    def test_insert_data_duplicate_not_counted(self, store):
        assert store.update(
            PREFIXES + "INSERT DATA { ex:h1 a ex:Hotspot }"
        ) == 0

    def test_delete_data(self, store):
        n = store.update(PREFIXES + "DELETE DATA { ex:h1 a ex:Hotspot }")
        assert n == 1
        assert not bool(store.query(PREFIXES + "ASK { ex:h1 a ex:Hotspot }"))

    def test_variables_rejected_in_data(self, store):
        with pytest.raises(StSPARQLSyntaxError):
            store.update(PREFIXES + "INSERT DATA { ?x a ex:Hotspot }")

    @pytest.mark.parametrize(
        "data",
        [
            'ex:s ex:p ex:o . "x" ex:p ex:o',
            "ex:s ex:p ex:o . 7 ex:p ex:o",
            'ex:s ex:p ex:o . ex:s "p" ex:o',
            "ex:s ex:p ex:o . ex:s _:b ex:o",
        ],
    )
    @pytest.mark.parametrize("verb", ["INSERT", "DELETE"])
    def test_ill_formed_data_rejected_before_any_write(self, store, verb, data):
        before = (len(store), store.version, set(store.triples()))
        with pytest.raises(StSPARQLSyntaxError):
            store.update(PREFIXES + f"{verb} DATA {{ {data} }}")
        assert (len(store), store.version, set(store.triples())) == before

    def test_multiple_operations(self, store):
        n = store.update(
            PREFIXES
            + "INSERT DATA { ex:a ex:p ex:b } ;\n"
            + PREFIXES
            + "DELETE DATA { ex:h2 a ex:Hotspot }"
        )
        assert n == 2


class TestModify:
    def test_delete_insert_where(self, store):
        store.update(
            PREFIXES
            + "DELETE { ?h a ex:Hotspot } INSERT { ?h a ex:Rejected } "
            "WHERE { ?h a ex:Hotspot ; ex:conf ?c . FILTER(?c < 0.5) }"
        )
        hot = store.query(PREFIXES + "SELECT ?h WHERE { ?h a ex:Hotspot }")
        rej = store.query(PREFIXES + "SELECT ?h WHERE { ?h a ex:Rejected }")
        assert hot.column("h") == [EX.h1]
        assert rej.column("h") == [EX.h2]

    def test_insert_where(self, store):
        store.update(
            PREFIXES
            + "INSERT { ?h ex:reviewed true } WHERE { ?h a ex:Hotspot }"
        )
        r = store.query(
            PREFIXES + "SELECT ?h WHERE { ?h ex:reviewed true }"
        )
        assert len(r) == 2

    def test_delete_where_shorthand(self, store):
        store.update(PREFIXES + "DELETE WHERE { ?h ex:conf ?c }")
        r = store.query(PREFIXES + "SELECT ?h WHERE { ?h ex:conf ?c }")
        assert len(r) == 0

    def test_ill_formed_instances_are_dropped(self):
        # SPARQL 1.1 Update §3.1.3: a template instance that is not a
        # valid RDF triple (here a literal subject) is not inserted.
        store = StrabonStore()
        store.load_turtle(
            "@prefix ex: <http://example.org/> .\n"
            'ex:a ex:p ex:b . ex:c ex:p "lit" . ex:d ex:p ex:e .'
        )
        version = store.version
        n = store.update(
            PREFIXES
            + "DELETE { ?s ex:p ?o } INSERT { ?o ex:r ?s } "
            "WHERE { ?s ex:p ?o }"
        )
        assert n == 3 + 2
        assert set(store.triples()) == {
            (EX.b, EX.r, EX.a),
            (EX.e, EX.r, EX.d),
        }
        assert store.version == version + 1

    def test_template_blank_nodes_are_fresh_per_update(self):
        # Each execution mints its own template blank nodes: three runs
        # of one update text give three note nodes, one value each.
        store = StrabonStore()
        for name, value in (("a", 1), ("b", 2), ("c", 3)):
            store.update(PREFIXES + f"INSERT DATA {{ ex:{name} ex:val {value} }}")
            store.update(
                PREFIXES
                + "INSERT { ?s ex:note _:n . _:n ex:v ?o } "
                "WHERE { ?s ex:val ?o . OPTIONAL { ?s ex:note ?m } "
                "FILTER(!bound(?m)) }"
            )
        notes = {s: o for s, _, o in store.triples((None, EX.note, None))}
        assert set(notes) == {EX.a, EX.b, EX.c}
        assert len(set(notes.values())) == 3
        for subject, value in ((EX.a, 1), (EX.b, 2), (EX.c, 3)):
            values = [o for _, _, o in store.triples((notes[subject], EX.v, None))]
            assert values == [Literal(value)]

    def test_modify_with_no_matches_is_noop(self, store):
        n = store.update(
            PREFIXES
            + "DELETE { ?h a ex:Hotspot } WHERE { ?h a ex:Missing }"
        )
        assert n == 0
        assert len(store) == 4

    def test_geometry_update_refreshes_index(self, store):
        store.update(
            PREFIXES
            + 'INSERT DATA { ex:h1 ex:geom '
            '"POINT (5 5)"^^<http://strdf.di.uoa.gr/ontology#WKT> }'
        )
        r = store.query(
            PREFIXES
            + "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
            "SELECT ?h WHERE { ?h ex:geom ?g . FILTER(strdf:intersects("
            '?g, "POLYGON ((4 4, 6 4, 6 6, 4 6, 4 4))"^^strdf:WKT)) }'
        )
        assert r.column("h") == [EX.h1]


class TestBackend:
    def test_terms_dictionary_grows(self, store):
        before = len(store)
        triple = (EX.new_subject, EX.new_pred, Literal("new"))
        assert store.apply(inserts=[triple]) == (0, 1)
        assert len(store) == before + 1
        assert list(store.triples((EX.new_subject, None, None))) == [triple]

    def test_triples_table_matches_graph(self, store):
        assert len(list(store.triples())) == len(store)

    def test_remove_updates_backend(self, store):
        before = len(store)
        removed, added = store.apply(deletes=store.triples((EX.h1, None, None)))
        assert removed > 0 and added == 0
        assert len(store) == before - removed
        assert list(store.triples((EX.h1, None, None))) == []

    def test_load_and_serialize_roundtrip(self, store):
        text = store.serialize_turtle(prefixes={"ex": str(EX)})
        other = StrabonStore()
        other.load_turtle(text)
        assert len(other) == len(store)

    def test_load_ntriples(self):
        store = StrabonStore()
        store.load_ntriples(
            "<http://example.org/a> <http://example.org/p> "
            "<http://example.org/b> ."
        )
        assert len(store) == 1

    def test_contains_and_triples(self, store):
        conf = Literal(
            "0.9", datatype="http://www.w3.org/2001/XMLSchema#double"
        )
        assert (EX.h1, URIRef(str(EX) + "conf"), conf) in store
        assert len(list(store.triples((None, None, None)))) == 4
