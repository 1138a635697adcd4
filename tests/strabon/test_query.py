"""stSPARQL query evaluation tests."""

import pytest

from repro.rdf import Literal, Namespace
from repro.strabon import StrabonStore
from repro.strabon.stsparql.errors import StSPARQLError, StSPARQLSyntaxError

EX = Namespace("http://example.org/")

DATA = """
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:alice a ex:Person ; ex:age "30"^^xsd:integer ; ex:knows ex:bob ;
    ex:city ex:athens .
ex:bob a ex:Person ; ex:age "25"^^xsd:integer ; ex:knows ex:carol ;
    ex:city ex:berlin .
ex:carol a ex:Person ; ex:age "35"^^xsd:integer ; ex:city ex:athens .
ex:athens ex:population "3000000"^^xsd:integer .
ex:berlin ex:population "3700000"^^xsd:integer .
ex:rex a ex:Dog .
"""

PREFIXES = "PREFIX ex: <http://example.org/>\n"

ILL_TYPED = """
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:a ex:v 1 . ex:b ex:v "hello"^^xsd:integer . ex:c ex:v 3 .
"""


@pytest.fixture
def store():
    s = StrabonStore()
    s.load_turtle(DATA)
    return s


class TestBasicSelect:
    def test_type_query(self, store):
        r = store.query(PREFIXES + "SELECT ?p WHERE { ?p a ex:Person }")
        assert len(r) == 3
        assert set(r.column("p")) == {EX.alice, EX.bob, EX.carol}

    def test_multiple_patterns_join(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?p ?q WHERE { ?p ex:knows ?q . ?q ex:city ex:athens }"
        )
        assert r.rows() == [(EX.bob, EX.carol)]

    def test_select_star(self, store):
        r = store.query(PREFIXES + "SELECT * WHERE { ?p ex:knows ?q }")
        assert set(r.variables) == {"p", "q"}
        assert len(r) == 2

    def test_bound_subject(self, store):
        r = store.query(
            PREFIXES + "SELECT ?age WHERE { ex:alice ex:age ?age }"
        )
        assert r.values() == [(30,)]

    def test_no_match_empty(self, store):
        r = store.query(PREFIXES + "SELECT ?x WHERE { ?x a ex:Cat }")
        assert len(r) == 0

    def test_shared_variable_across_patterns(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?c WHERE { ex:alice ex:city ?c . ex:carol ex:city ?c }"
        )
        assert r.rows() == [(EX.athens,)]

    def test_predicate_variable(self, store):
        r = store.query(
            PREFIXES + "SELECT DISTINCT ?prop WHERE { ex:alice ?prop ?o }"
        )
        assert len(r) == 4


class TestFilters:
    def test_numeric_comparison(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?p WHERE { ?p ex:age ?a . FILTER(?a > 28) }"
        )
        assert set(r.column("p")) == {EX.alice, EX.carol}

    def test_arithmetic_in_filter(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?p WHERE { ?p ex:age ?a . FILTER(?a * 2 = 50) }"
        )
        assert r.column("p") == [EX.bob]

    def test_arithmetic_result_equals_by_value(self, store):
        # A computed number equals a numeric literal by value, never a
        # plain literal with the same characters.
        numeric = store.query(
            PREFIXES + "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
            "SELECT ?p WHERE { ?p ex:age ?a . "
            'FILTER(?a * 1 = "25.0"^^xsd:double) }'
        )
        assert numeric.column("p") == [EX.bob]
        plain = store.query(
            PREFIXES
            + 'SELECT ?p WHERE { ?p ex:age ?a . FILTER(?a + 0 = "25") }'
        )
        assert plain.column("p") == []

    def test_if_evaluates_one_branch(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?p ?x WHERE { ?p ex:age ?a . "
            "BIND(IF(?a > 28, 1, 1/0) AS ?x) } ORDER BY ?a"
        )
        assert r.values() == [(EX.bob, None), (EX.alice, 1), (EX.carol, 1)]

    def test_builtin_sees_computed_value_as_literal(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?p WHERE { ex:bob ex:age ?a . ?p ex:age ?a . "
            "FILTER(isLiteral(?a * 2) && isNumeric(?a - 1)) }"
        )
        assert r.column("p") == [EX.bob]

    def test_logical_operators(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?p WHERE { ?p ex:age ?a . "
            "FILTER(?a < 28 || ?a > 33) }"
        )
        assert set(r.column("p")) == {EX.bob, EX.carol}

    def test_negation(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?p WHERE { ?p ex:age ?a . FILTER(!(?a = 30)) }"
        )
        assert set(r.column("p")) == {EX.bob, EX.carol}

    def test_in_operator(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?p WHERE { ?p ex:age ?a . FILTER(?a IN (25, 35)) }"
        )
        assert set(r.column("p")) == {EX.bob, EX.carol}

    def test_regex(self, store):
        r = store.query(
            PREFIXES
            + 'SELECT ?p WHERE { ?p a ex:Person . FILTER(regex(str(?p), "ali")) }'
        )
        assert r.column("p") == [EX.alice]

    def test_strstarts(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?p WHERE { ?p a ex:Person . "
            'FILTER(strstarts(str(?p), "http://example.org/c")) }'
        )
        assert r.column("p") == [EX.carol]

    def test_isiri(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?o WHERE { ex:alice ?p ?o . FILTER(isLiteral(?o)) }"
        )
        assert r.values() == [(30,)]

    def test_bound_with_optional(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?p WHERE { ?p a ex:Person . "
            "OPTIONAL { ?p ex:knows ?q } FILTER(!bound(?q)) }"
        )
        assert r.column("p") == [EX.carol]

    def test_filter_error_removes_solution(self, store):
        # ?o is sometimes an IRI: numeric comparison errors filter it out.
        r = store.query(
            PREFIXES + "SELECT ?o WHERE { ex:alice ?p ?o . FILTER(?o > 10) }"
        )
        assert r.values() == [(30,)]


class TestOptionalUnionBind:
    def test_optional_binds_when_present(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?p ?q WHERE { ?p a ex:Person . "
            "OPTIONAL { ?p ex:knows ?q } }"
        )
        by_p = {row[0]: row[1] for row in r.rows()}
        assert by_p[EX.alice] == EX.bob
        assert by_p[EX.carol] is None

    def test_union(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?x WHERE { { ?x a ex:Person } UNION { ?x a ex:Dog } }"
        )
        assert len(r) == 4
        assert EX.rex in r.column("x")

    def test_bind(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?p ?double WHERE { ?p ex:age ?a . "
            "BIND(?a * 2 AS ?double) } ORDER BY ?double"
        )
        assert [row[1] for row in r.values()] == [50, 60, 70]

    def test_values(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?p ?a WHERE { VALUES ?p { ex:alice ex:bob } "
            "?p ex:age ?a } ORDER BY ?a"
        )
        assert [row[0] for row in r.rows()] == [EX.bob, EX.alice]


class TestModifiers:
    def test_order_by(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?p WHERE { ?p ex:age ?a } ORDER BY ?a"
        )
        assert r.column("p") == [EX.bob, EX.alice, EX.carol]

    def test_order_by_desc(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?p WHERE { ?p ex:age ?a } ORDER BY DESC(?a)"
        )
        assert r.column("p") == [EX.carol, EX.alice, EX.bob]

    def test_order_by_ill_typed_sorts_as_unbound(self):
        store = StrabonStore()
        store.load_turtle(ILL_TYPED)
        r = store.query(
            PREFIXES + "SELECT ?s WHERE { ?s ex:v ?v } ORDER BY ?v"
        )
        assert r.column("s") == [EX.b, EX.a, EX.c]

    def test_limit_offset(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?p WHERE { ?p ex:age ?a } ORDER BY ?a LIMIT 1 OFFSET 1"
        )
        assert r.column("p") == [EX.alice]

    def test_distinct(self, store):
        r = store.query(
            PREFIXES + "SELECT DISTINCT ?c WHERE { ?p ex:city ?c }"
        )
        assert len(r) == 2

    def test_projection_expression(self, store):
        r = store.query(
            PREFIXES
            + "SELECT (?a + 1 AS ?next) WHERE { ex:bob ex:age ?a }"
        )
        assert r.values() == [(26,)]


class TestAggregates:
    def test_count_star(self, store):
        r = store.query(
            PREFIXES + "SELECT (count(*) AS ?n) WHERE { ?p a ex:Person }"
        )
        assert r.values() == [(3,)]

    def test_group_by(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?c (count(*) AS ?n) WHERE { ?p ex:city ?c } "
            "GROUP BY ?c ORDER BY DESC(?n)"
        )
        assert r.values()[0][1] == 2

    def test_sum_avg_min_max(self, store):
        r = store.query(
            PREFIXES
            + "SELECT (sum(?a) AS ?s) (avg(?a) AS ?m) (min(?a) AS ?lo) "
            "(max(?a) AS ?hi) WHERE { ?p ex:age ?a }"
        )
        assert r.values() == [(90, 30.0, 25, 35)]

    def test_having(self, store):
        r = store.query(
            PREFIXES
            + "SELECT ?c WHERE { ?p ex:city ?c } GROUP BY ?c "
            "HAVING (count(*) > 1)"
        )
        assert r.column("c") == [EX.athens]

    def test_count_distinct(self, store):
        r = store.query(
            PREFIXES
            + "SELECT (count(DISTINCT ?c) AS ?n) WHERE { ?p ex:city ?c }"
        )
        assert r.values() == [(2,)]
        store.load_turtle(
            "@prefix ex: <http://example.org/> .\n"
            "ex:dave ex:age 25 . ex:erin ex:age 25.0E0 .\n"
        )
        # DISTINCT keys are terms: 25 and 25.0E0 stay apart, the second
        # 25 goes.
        r = store.query(
            PREFIXES
            + "SELECT (count(DISTINCT ?a) AS ?n) (sum(DISTINCT ?a) AS ?s) "
            "(count(?a) AS ?all) (count(DISTINCT (?a * 2)) AS ?twice) "
            "WHERE { ?p ex:age ?a }"
        )
        assert r.values() == [(4, 115.0, 5, 4)]
        r = store.query(
            PREFIXES
            + "SELECT (group_concat(DISTINCT str(?a)) AS ?all) "
            "WHERE { ?p ex:age ?a FILTER(?a < 30) }"
        )
        assert sorted(r.values()[0][0].split()) == ["25", "25.0E0"]

    def test_group_concat(self, store):
        r = store.query(
            PREFIXES
            + "SELECT (group_concat(str(?a)) AS ?all) "
            "WHERE { ex:alice ex:age ?a }"
        )
        assert r.values() == [("30",)]

    def test_empty_group_count_zero(self, store):
        r = store.query(
            PREFIXES + "SELECT (count(*) AS ?n) WHERE { ?x a ex:Cat }"
        )
        assert r.values() == [(0,)]

    def test_aggregate_error_leaves_its_variable_unbound(self):
        store = StrabonStore()
        store.load_turtle(ILL_TYPED)
        r = store.query(
            PREFIXES
            + "SELECT (SUM(?v) AS ?t) (COUNT(*) AS ?n) WHERE { ?s ex:v ?v }"
        )
        assert r.values() == [(None, 3)]
        having = store.query(
            PREFIXES
            + "SELECT (COUNT(*) AS ?n) WHERE { ?s ex:v ?v } "
            "HAVING (SUM(?v) > 0)"
        )
        assert having.values() == []

    def test_group_by_expression_keeps_int_and_double_apart(self, store):
        store.load_turtle(
            "@prefix ex: <http://example.org/> .\n"
            "ex:dave ex:age 25.0E0 .\n"
        )
        r = store.query(
            PREFIXES
            + "SELECT (COUNT(*) AS ?n) WHERE { ?p ex:age ?a } "
            "GROUP BY (?a * 2) ORDER BY ?n"
        )
        assert r.values() == [(1,), (1,), (1,), (1,)]
        r = store.query(
            PREFIXES
            + "SELECT ?a ((SUM(?a) * 2 - COUNT(*)) AS ?x) "
            "WHERE { ?p ex:age ?a } GROUP BY ?a HAVING (?a > 28) ORDER BY ?a"
        )
        assert r.values() == [(30, 59), (35, 69)]


class TestAskConstruct:
    def test_ask_true(self, store):
        assert bool(store.query(PREFIXES + "ASK { ex:alice a ex:Person }"))

    def test_ask_false(self, store):
        assert not bool(store.query(PREFIXES + "ASK { ex:alice a ex:Dog }"))

    def test_ask_with_filter(self, store):
        assert bool(
            store.query(
                PREFIXES + "ASK { ?p ex:age ?a . FILTER(?a > 34) }"
            )
        )

    def test_construct(self, store):
        g = store.query(
            PREFIXES
            + "CONSTRUCT { ?p ex:isAdult true } WHERE "
            "{ ?p ex:age ?a . FILTER(?a >= 30) }"
        )
        assert len(g) == 2
        assert (EX.alice, EX.isAdult, Literal(True)) in g


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT WHERE { ?s ?p ?o }",
            "SELECT ?s { ?s ?p }",
            "SELECT ?s WHERE { ?s ?p ?o ",
            "FOO ?s WHERE { ?s ?p ?o }",
            "SELECT ?s WHERE { ?s nonprefix:p ?o }",
            "SELECT ?s WHERE { ?s ?p ?o } LIMIT x",
        ],
    )
    def test_rejected(self, bad, store):
        with pytest.raises((StSPARQLSyntaxError, StSPARQLError)):
            store.query(bad)

    def test_unknown_bare_word(self, store):
        with pytest.raises(StSPARQLSyntaxError):
            store.query("SELECT ?s WHERE { ?s banana ?o }")
