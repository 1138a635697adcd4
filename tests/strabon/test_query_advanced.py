"""Advanced stSPARQL coverage: CONSTRUCT templates, nested patterns,
builtins, projection/aggregation corners."""

import pytest

from repro.rdf import BNode, Literal, Namespace
from repro.strabon import StrabonStore
from repro.strabon.stsparql.errors import StSPARQLError

EX = Namespace("http://example.org/")
P = "PREFIX ex: <http://example.org/>\n"


@pytest.fixture
def store():
    s = StrabonStore()
    s.load_turtle(
        """
        @prefix ex: <http://example.org/> .
        @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
        ex:a a ex:Node ; ex:score "3"^^xsd:integer ; ex:next ex:b ;
             ex:label "alpha" .
        ex:b a ex:Node ; ex:score "5"^^xsd:integer ; ex:next ex:c .
        ex:c a ex:Node ; ex:score "8"^^xsd:integer .
        ex:d a ex:Other ; ex:score "100"^^xsd:integer .
        """
    )
    return s


class TestConstruct:
    def test_template_with_constants(self, store):
        g = store.query(
            P + "CONSTRUCT { ?n ex:isNode true } WHERE { ?n a ex:Node }"
        )
        assert len(g) == 3

    def test_template_with_bnodes_fresh_per_solution(self, store):
        g = store.query(
            P
            + "CONSTRUCT { ?n ex:wrapped [] } WHERE { ?n a ex:Node }"
        )
        objects = [o for _, _, o in g]
        assert len(objects) == 3
        assert len(set(objects)) == 3  # a fresh bnode per solution
        assert all(isinstance(o, BNode) for o in objects)

    def test_unbound_template_triples_skipped(self, store):
        g = store.query(
            P
            + "CONSTRUCT { ?n ex:hasLabel ?l } WHERE "
            "{ ?n a ex:Node . OPTIONAL { ?n ex:label ?l } }"
        )
        # Only ex:a has a label; the others produce no triple.
        assert len(g) == 1

    def test_ill_formed_instances_are_dropped(self):
        # SPARQL 1.1 §16.2: an instance with a literal subject is no RDF
        # triple; only the well-formed triples are returned.
        store = StrabonStore()
        store.load_turtle(
            '@prefix ex: <http://example.org/> . ex:a ex:p ex:b . ex:c ex:p "lit" .'
        )
        query = "CONSTRUCT { ?o ex:r ?s . ?s ex:seen true } WHERE { ?s ex:p ?o }"
        g = store.query(P + query)
        assert set(g) == {
            (EX.b, EX.r, EX.a),
            (EX.a, EX.seen, Literal(True)),
            (EX.c, EX.seen, Literal(True)),
        }

    def test_multi_pattern_template(self, store):
        g = store.query(
            P
            + "CONSTRUCT { ?x ex:hops ?y . ?y ex:from ?x } "
            "WHERE { ?x ex:next ?y }"
        )
        assert len(g) == 4


class TestNestedPatterns:
    def test_optional_inside_optional(self, store):
        r = store.query(
            P
            + "SELECT ?n ?next ?nextnext WHERE { ?n a ex:Node . "
            "OPTIONAL { ?n ex:next ?next . "
            "OPTIONAL { ?next ex:next ?nextnext } } } ORDER BY ?n"
        )
        rows = {str(row[0]).rsplit("/", 1)[-1]: row for row in r.rows()}
        assert rows["a"][1] == EX.b and rows["a"][2] == EX.c
        assert rows["b"][1] == EX.c and rows["b"][2] is None
        assert rows["c"][1] is None and rows["c"][2] is None

    def test_pattern_after_optional_joins_on_maybe_bound_variable(
        self, store
    ):
        # The OPTIONAL binds ?next for a and b only: the join after it
        # looks ?next up where a seed holds it and binds it where not.
        r = store.query(
            P
            + "SELECT ?n ?next WHERE { ?n a ex:Node . "
            "OPTIONAL { ?n ex:next ?next } ?next ex:score ?s . "
            "FILTER(?s > 4) }"
        )
        pairs = sorted(
            tuple(str(t).rsplit("/", 1)[-1] for t in row) for row in r.rows()
        )
        assert pairs == [
            ("a", "b"), ("b", "c"), ("c", "b"), ("c", "c"), ("c", "d"),
        ]

    def test_union_of_unions(self, store):
        r = store.query(
            P
            + "SELECT ?x WHERE { { ?x a ex:Node } UNION "
            "{ ?x a ex:Other } UNION { ?x ex:label ?l } }"
        )
        assert len(r) == 5  # 3 nodes + 1 other + 1 labelled

    def test_filter_scoped_to_group(self, store):
        r = store.query(
            P
            + "SELECT ?x WHERE { { ?x ex:score ?s . FILTER(?s > 4) } "
            "UNION { ?x ex:label ?l } }"
        )
        names = sorted(str(t).rsplit("/", 1)[-1] for t in r.column("x"))
        assert names == ["a", "b", "c", "d"]

    def test_bind_then_filter(self, store):
        r = store.query(
            P
            + "SELECT ?n WHERE { ?n ex:score ?s . "
            "BIND(?s * 2 AS ?double) FILTER(?double > 9) } ORDER BY ?n"
        )
        assert len(r) == 3  # b, c, d

    def test_values_restricts_join(self, store):
        r = store.query(
            P
            + "SELECT ?n ?s WHERE { VALUES ?n { ex:a ex:c } "
            "?n ex:score ?s } ORDER BY ?s"
        )
        assert [row[1] for row in r.values()] == [3, 8]


class TestBuiltins:
    def test_if(self, store):
        r = store.query(
            P
            + 'SELECT (if(?s > 4, "big", "small") AS ?size) '
            "WHERE { ?n ex:score ?s } ORDER BY ?s"
        )
        assert [row[0] for row in r.values()] == [
            "small", "big", "big", "big",
        ]

    def test_coalesce_with_optional(self, store):
        r = store.query(
            P
            + 'SELECT (coalesce(?l, "unnamed") AS ?name) WHERE '
            "{ ?n a ex:Node . OPTIONAL { ?n ex:label ?l } } ORDER BY ?name"
        )
        assert [row[0] for row in r.values()] == [
            "alpha", "unnamed", "unnamed",
        ]

    def test_string_builtins(self, store):
        r = store.query(
            P
            + "SELECT (ucase(?l) AS ?u) (strlen(?l) AS ?n) "
            "WHERE { ex:a ex:label ?l }"
        )
        assert r.values() == [("ALPHA", 5)]

    def test_numeric_builtins(self, store):
        r = store.query(
            P + "SELECT (abs(0 - ?s) AS ?a) WHERE { ex:a ex:score ?s }"
        )
        assert r.values() == [(3,)]

    def test_sameterm(self, store):
        r = store.query(
            P
            + "SELECT ?x WHERE { ?x a ex:Node . "
            "FILTER(!sameTerm(?x, ex:a)) }"
        )
        assert len(r) == 2

    def test_datatype_and_str(self, store):
        r = store.query(
            P
            + "SELECT (datatype(?s) AS ?dt) (str(?s) AS ?txt) "
            "WHERE { ex:a ex:score ?s }"
        )
        dt, txt = r.rows()[0]
        assert str(dt).endswith("integer")
        assert txt == Literal("3")


class TestProjectionCorners:
    def test_expression_only_projection(self, store):
        r = store.query(
            P + "SELECT (1 + 1 AS ?two) WHERE { ex:a a ex:Node }"
        )
        assert r.values() == [(2,)]

    def test_projection_of_unbound_variable(self, store):
        r = store.query(
            P + "SELECT ?n ?ghost WHERE { ?n a ex:Other }"
        )
        assert r.rows() == [(EX.d, None)]

    def test_aggregate_mixed_with_key_arithmetic(self, store):
        r = store.query(
            P
            + "SELECT ?t (max(?s) - min(?s) AS ?range) WHERE "
            "{ ?n a ?t ; ex:score ?s } GROUP BY ?t ORDER BY ?range"
        )
        values = [row[1] for row in r.values()]
        assert values == [0, 5]

    def test_group_by_expression(self, store):
        r = store.query(
            P
            + "SELECT (count(*) AS ?n) WHERE { ?x ex:score ?s } "
            "GROUP BY (?s > 4)"
        )
        counts = sorted(row[0] for row in r.values())
        assert counts == [1, 3]

    def test_projecting_ungrouped_var_rejected(self, store):
        with pytest.raises(StSPARQLError):
            store.query(
                P
                + "SELECT ?n (count(*) AS ?c) WHERE "
                "{ ?n ex:score ?s } GROUP BY ?s"
            )
