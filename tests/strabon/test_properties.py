"""Property-based tests: stSPARQL evaluation vs a naive reference.

Random small graphs and patterns; the engine's BGP/filter/distinct
semantics must match a brute-force implementation over the same triples.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import Literal, Namespace
from repro.strabon import StrabonStore

EX = Namespace("http://example.org/")

subjects = st.sampled_from([EX.s0, EX.s1, EX.s2, EX.s3])
predicates = st.sampled_from([EX.p0, EX.p1, EX.p2])
objects = st.one_of(
    st.sampled_from([EX.s0, EX.s1, EX.o0, EX.o1]),
    st.integers(min_value=0, max_value=5).map(Literal),
)
triples = st.lists(
    st.tuples(subjects, predicates, objects), min_size=0, max_size=25
)


def store_of(ts):
    store = StrabonStore()
    store.load_graph(ts)
    return store, set(store.triples())


class TestBGPSemantics:
    @settings(max_examples=60, deadline=None)
    @given(ts=triples)
    def test_single_pattern_all_variables(self, ts):
        store, data = store_of(ts)
        result = store.query(
            "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"
        )
        got = {tuple(row) for row in result.rows()}
        assert got == data

    @settings(max_examples=60, deadline=None)
    @given(ts=triples)
    def test_bound_predicate(self, ts):
        store, data = store_of(ts)
        result = store.query(
            "PREFIX ex: <http://example.org/>\n"
            "SELECT ?s ?o WHERE { ?s ex:p1 ?o }"
        )
        got = {tuple(row) for row in result.rows()}
        expected = {(s, o) for s, p, o in data if p == EX.p1}
        assert got == expected

    @settings(max_examples=50, deadline=None)
    @given(ts=triples)
    def test_two_pattern_join(self, ts):
        store, data = store_of(ts)
        result = store.query(
            "PREFIX ex: <http://example.org/>\n"
            "SELECT ?x ?y ?z WHERE { ?x ex:p0 ?y . ?y ex:p1 ?z }"
        )
        got = {tuple(row) for row in result.rows()}
        expected = set()
        for s1, p1, o1 in data:
            if p1 != EX.p0 or isinstance(o1, Literal):
                continue
            for s2, p2, o2 in data:
                if p2 == EX.p1 and s2 == o1:
                    expected.add((s1, o1, o2))
        assert got == expected

    @settings(max_examples=50, deadline=None)
    @given(ts=triples, cut=st.integers(min_value=0, max_value=5))
    def test_numeric_filter(self, ts, cut):
        store, data = store_of(ts)
        result = store.query(
            "PREFIX ex: <http://example.org/>\n"
            f"SELECT ?s ?o WHERE {{ ?s ex:p2 ?o . FILTER(?o >= {cut}) }}"
        )
        got = {tuple(row) for row in result.rows()}
        expected = {
            (s, o)
            for s, p, o in data
            if p == EX.p2
            and isinstance(o, Literal)
            and isinstance(o.to_python(), int)
            and o.to_python() >= cut
        }
        assert got == expected

    @settings(max_examples=50, deadline=None)
    @given(ts=triples)
    def test_distinct_subjects(self, ts):
        store, data = store_of(ts)
        result = store.query("SELECT DISTINCT ?s WHERE { ?s ?p ?o }")
        got = [row[0] for row in result.rows()]
        assert sorted(got, key=str) == sorted(
            {s for s, _, _ in data}, key=str
        )
        assert len(got) == len(set(got))

    @settings(max_examples=40, deadline=None)
    @given(ts=triples)
    def test_count_matches_size(self, ts):
        store, data = store_of(ts)
        result = store.query(
            "SELECT (count(*) AS ?n) WHERE { ?s ?p ?o }"
        )
        assert result.values()[0][0] == len(data)

    @settings(max_examples=40, deadline=None)
    @given(ts=triples)
    def test_union_is_concatenation(self, ts):
        store, data = store_of(ts)
        result = store.query(
            "PREFIX ex: <http://example.org/>\n"
            "SELECT ?s WHERE { { ?s ex:p0 ?o } UNION { ?s ex:p1 ?o } }"
        )
        got = sorted((row[0] for row in result.rows()), key=str)
        expected = sorted(
            itertools.chain(
                (s for s, p, _ in data if p == EX.p0),
                (s for s, p, _ in data if p == EX.p1),
            ),
            key=str,
        )
        assert got == expected

    @settings(max_examples=40, deadline=None)
    @given(ts=triples)
    def test_ask_equals_nonempty(self, ts):
        store, data = store_of(ts)
        result = store.query(
            "PREFIX ex: <http://example.org/>\n"
            "ASK { ?s ex:p0 ?o }"
        )
        assert bool(result) == any(p == EX.p0 for _, p, _ in data)

    @settings(max_examples=40, deadline=None)
    @given(ts=triples, limit=st.integers(0, 8))
    def test_limit_bounds_results(self, ts, limit):
        store, data = store_of(ts)
        result = store.query(
            f"SELECT ?s WHERE {{ ?s ?p ?o }} LIMIT {limit}"
        )
        assert len(result) == min(limit, len(data))


class TestUpdateSemantics:
    @settings(max_examples=40, deadline=None)
    @given(ts=triples)
    def test_delete_where_empties_predicate(self, ts):
        store, data = store_of(ts)
        store.update(
            "PREFIX ex: <http://example.org/>\n"
            "DELETE WHERE { ?s ex:p0 ?o }"
        )
        remaining = set(store.triples())
        assert remaining == {t for t in data if t[1] != EX.p0}

    @settings(max_examples=40, deadline=None)
    @given(ts=triples)
    def test_insert_where_copies_predicate(self, ts):
        store, data = store_of(ts)
        store.update(
            "PREFIX ex: <http://example.org/>\n"
            "INSERT { ?s ex:copied ?o } WHERE { ?s ex:p1 ?o }"
        )
        copied = set(store.triples((None, EX.copied, None)))
        expected = {
            (s, EX.copied, o) for s, p, o in data if p == EX.p1
        }
        assert copied == expected
