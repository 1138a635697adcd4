"""Graph (triple store) tests."""

import pytest

from repro.rdf import Graph, Literal, Namespace, TermError
from repro.rdf.term import BNode

EX = Namespace("http://example.org/")


def sample_graph():
    g = Graph()
    g.add((EX.s1, EX.p1, EX.o1))
    g.add((EX.s1, EX.p1, EX.o2))
    g.add((EX.s1, EX.p2, Literal("x")))
    g.add((EX.s2, EX.p1, EX.o1))
    g.add((EX.s2, EX.p2, Literal(7)))
    return g


class TestMutation:
    def test_add_and_len(self):
        g = sample_graph()
        assert len(g) == 5

    def test_add_duplicate_ignored(self):
        g = Graph()
        assert g.add((EX.s, EX.p, EX.o))
        assert not g.add((EX.s, EX.p, EX.o))
        assert len(g) == 1

    def test_add_validates_subject(self):
        g = Graph()
        with pytest.raises(TermError):
            g.add((Literal("bad"), EX.p, EX.o))

    def test_add_validates_predicate(self):
        g = Graph()
        with pytest.raises(TermError):
            g.add((EX.s, BNode(), EX.o))

    def test_add_validates_object(self):
        g = Graph()
        with pytest.raises(TermError):
            g.add((EX.s, EX.p, "plain string"))  # type: ignore[arg-type]

    def test_remove_specific(self):
        g = sample_graph()
        assert g.remove((EX.s1, EX.p1, EX.o1)) == 1
        assert len(g) == 4
        assert (EX.s1, EX.p1, EX.o1) not in g

    def test_remove_with_wildcards(self):
        g = sample_graph()
        assert g.remove((EX.s1, None, None)) == 3
        assert len(g) == 2

    def test_remove_everything(self):
        g = sample_graph()
        assert g.remove((None, None, None)) == 5
        assert len(g) == 0

    def test_remove_missing_is_zero(self):
        g = sample_graph()
        assert g.remove((EX.nope, None, None)) == 0

    def test_discard_one_ground_triple(self):
        g = sample_graph()
        assert g.discard((EX.s1, EX.p1, EX.o1))
        assert not g.discard((EX.s1, EX.p1, EX.o1))
        assert len(g) == 4
        assert g.count_estimate((EX.s1, None, None)) == 2
        assert (EX.s1, EX.p1, EX.o1) not in g

    def test_clear(self):
        g = sample_graph()
        g.clear()
        assert len(g) == 0
        assert list(g) == []


class TestPatterns:
    def test_fully_bound(self):
        g = sample_graph()
        assert list(g.triples((EX.s1, EX.p1, EX.o1))) == [(EX.s1, EX.p1, EX.o1)]
        assert list(g.triples((EX.s1, EX.p1, EX.nope))) == []

    def test_sp_bound(self):
        g = sample_graph()
        hits = set(g.triples((EX.s1, EX.p1, None)))
        assert hits == {(EX.s1, EX.p1, EX.o1), (EX.s1, EX.p1, EX.o2)}

    def test_po_bound(self):
        g = sample_graph()
        hits = set(g.triples((None, EX.p1, EX.o1)))
        assert hits == {(EX.s1, EX.p1, EX.o1), (EX.s2, EX.p1, EX.o1)}

    def test_so_bound(self):
        g = sample_graph()
        hits = set(g.triples((EX.s1, None, EX.o1)))
        assert hits == {(EX.s1, EX.p1, EX.o1)}

    def test_s_bound(self):
        g = sample_graph()
        assert len(list(g.triples((EX.s1, None, None)))) == 3

    def test_p_bound(self):
        g = sample_graph()
        assert len(list(g.triples((None, EX.p2, None)))) == 2

    def test_o_bound(self):
        g = sample_graph()
        assert len(list(g.triples((None, None, EX.o1)))) == 2

    def test_all_wildcards(self):
        g = sample_graph()
        assert len(list(g.triples())) == 5

    def test_literal_objects_matched_exactly(self):
        g = sample_graph()
        assert list(g.triples((None, None, Literal(7)))) == [
            (EX.s2, EX.p2, Literal(7))
        ]
        assert list(g.triples((None, None, Literal("7")))) == []


class TestAccessors:
    def test_subjects(self):
        g = sample_graph()
        assert set(g.subjects(EX.p1, EX.o1)) == {EX.s1, EX.s2}

    def test_objects(self):
        g = sample_graph()
        assert set(g.objects(EX.s1, EX.p1)) == {EX.o1, EX.o2}

    def test_predicates(self):
        g = sample_graph()
        assert set(g.predicates(EX.s1)) == {EX.p1, EX.p2}

    def test_value(self):
        g = sample_graph()
        assert g.value(EX.s2, EX.p2, None) == Literal(7)
        assert g.value(EX.s2, EX.nope, None) is None

    def test_value_needs_one_wildcard(self):
        g = sample_graph()
        with pytest.raises(TermError):
            g.value(EX.s1, None, None)


class TestProtocol:
    def test_contains(self):
        g = sample_graph()
        assert (EX.s1, EX.p1, EX.o1) in g
        assert (EX.s1, EX.p1, EX.nope) not in g

    def test_iteration(self):
        g = sample_graph()
        assert len(list(iter(g))) == 5

    def test_copy_independent(self):
        g = sample_graph()
        h = g.copy()
        g.remove((None, None, None))
        assert len(h) == 5

    def test_equality_set_semantics(self):
        g = sample_graph()
        h = sample_graph()
        assert g == h
        h.add((EX.extra, EX.p1, EX.o1))
        assert g != h

    def test_bnode_subject_allowed(self):
        g = Graph()
        b = BNode()
        g.add((b, EX.p, Literal("v")))
        assert g.value(b, EX.p, None) == Literal("v")
