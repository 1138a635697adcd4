"""``StrabonStore.apply``: the store's one write unit.

A delta removes its deletes and then adds its inserts under one hold of
the store lock, validates every insert before anything changes, and
bumps ``version`` once when something changed.  The reference is a
plain :class:`Graph` written one triple at a time.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Envelope, Point, Polygon
from repro.rdf import Graph, Literal, Namespace, TermError
from repro.strabon import StrabonStore, geometry_literal, literal_geometry
from repro.strabon.strdf import is_geometry_literal
from repro.testkit.oracles import naive_spatial_query

EX = Namespace("http://example.org/")
SUBJECTS = [EX.a, EX.b, EX.c]
PREDICATES = [EX.p, EX.geom]
OBJECTS = [
    EX.o,
    Literal(7),
    geometry_literal(Point(1, 1)),
    geometry_literal(Point(8, 8)),
    geometry_literal(Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])),
]
PROBES = [
    Envelope(0, 0, 2, 2),
    Envelope(5, 5, 9, 9),
    Envelope(-100, -100, 100, 100),
]

triples = st.tuples(
    st.sampled_from(SUBJECTS),
    st.sampled_from(PREDICATES),
    st.sampled_from(OBJECTS),
)
deltas = st.lists(
    st.tuples(st.lists(triples, max_size=6), st.lists(triples, max_size=6)),
    max_size=6,
)


def reference_apply(graph, deletes, inserts):
    """The per-triple reference: Graph removes, then Graph adds."""
    removed = sum(graph.remove(t) for t in deletes)
    added = sum(1 for t in inserts if graph.add(t))
    return removed, added


def every_pattern():
    terms = [SUBJECTS, PREDICATES, OBJECTS]
    for mask in itertools.product([False, True], repeat=3):
        choices = [ts if bound else [None] for ts, bound in zip(terms, mask)]
        yield from itertools.product(*choices)


def point(k):
    return (EX[f"s{k}"], EX.geom, geometry_literal(Point(k, k)))


class TestAgainstPerTripleReference:
    @settings(max_examples=60, deadline=None)
    @given(initial=st.lists(triples, max_size=10), steps=deltas)
    def test_apply_matches_per_triple_writes(self, initial, steps):
        store = StrabonStore()
        reference = Graph()
        added = reference_apply(reference, [], initial)[1]
        assert store.load_graph(initial) == added
        count = store.graph.count_estimate
        for deletes, inserts in steps:
            version = store.version
            counts = store.apply(deletes, inserts)
            assert counts == reference_apply(reference, deletes, inserts)
            assert store.version == version + (1 if any(counts) else 0)
            assert set(store.triples()) == set(reference)
            for pattern in every_pattern():
                assert count(pattern) == reference.count_estimate(pattern)
            entries = [
                (literal_geometry(o).envelope, o)
                for o in {o for _, _, o in reference if is_geometry_literal(o)}
            ]
            found = store.spatial_candidates_batch(PROBES)
            for probe, got in zip(PROBES, found):
                assert got == set(naive_spatial_query(entries, probe))


class TestVersion:
    def test_one_bump_per_effective_delta(self):
        store = StrabonStore()
        assert store.apply(inserts=[point(k) for k in range(5)]) == (0, 5)
        assert store.version == 1
        delta = ([point(0), point(1)], [point(7)])
        assert store.apply(*delta) == (2, 1)
        assert store.version == 2

    def test_no_op_delta_keeps_the_version(self):
        store = StrabonStore()
        store.load_graph([point(1)])
        version = store.version
        assert store.apply() == (0, 0)
        assert store.apply(deletes=[point(2)], inserts=[point(1)]) == (0, 0)
        assert store.load_graph([]) == 0
        assert store.version == version

    def test_a_pattern_delete_is_one_delta(self):
        store = StrabonStore()
        store.load_graph([point(k) for k in range(4)])
        version = store.version
        removed, added = store.apply(deletes=store.triples((None, EX.geom, None)))
        assert (removed, added, len(store)) == (4, 0, 0)
        assert store.version == version + 1


class TestValidation:
    def test_one_bad_insert_changes_nothing(self):
        store = StrabonStore()
        store.load_graph([point(k) for k in range(4)])
        store.spatial_candidates_batch(PROBES)  # fold the column
        before = (
            set(store.triples()),
            store.version,
            store._literals[:],
            store._live.tolist(),
            store._tail[:],
        )
        bad = (Literal("x"), EX.p, EX.o)
        with pytest.raises(TermError):
            store.apply(deletes=[point(0)], inserts=[point(9), bad])
        assert before == (
            set(store.triples()),
            store.version,
            store._literals[:],
            store._live.tolist(),
            store._tail[:],
        )
        assert store.spatial_candidates(Envelope(-1, -1, 0.5, 0.5)) == {point(0)[2]}


class TestGeometryIndex:
    def test_deleted_and_reinserted_literal_stays_indexed(self):
        store = StrabonStore()
        store.load_graph([point(k) for k in range(3)])
        store.spatial_candidates_batch(PROBES)  # fold the column
        assert store.apply(deletes=[point(1)], inserts=[point(1)]) == (1, 1)
        assert point(1) in store
        assert store.spatial_candidates(Envelope(0.5, 0.5, 1.5, 1.5)) == {point(1)[2]}

    def test_a_literal_moved_between_subjects_stays_indexed(self):
        store = StrabonStore()
        literal = geometry_literal(Point(3, 3))
        store.load_graph([(EX.a, EX.geom, literal)])
        store.apply(
            deletes=[(EX.a, EX.geom, literal)],
            inserts=[(EX.b, EX.geom, literal)],
        )
        assert store.spatial_candidates(Envelope(2, 2, 4, 4)) == {literal}
