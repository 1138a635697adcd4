"""Property-based invariants of the Strabon store's layered state.

Under arbitrary interleavings of adds/removes, the in-memory graph and
the spatial index must stay consistent.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Envelope, Point
from repro.rdf import Namespace
from repro.strabon import StrabonStore, geometry_literal

EX = Namespace("http://example.org/")

subjects = st.sampled_from([EX.a, EX.b, EX.c])
predicates = st.sampled_from([EX.p, EX.q, EX.geom])
points = st.tuples(
    st.integers(0, 20), st.integers(0, 20)
).map(lambda xy: geometry_literal(Point(xy[0], xy[1])))
objects = st.one_of(st.sampled_from([EX.o1, EX.o2]), points)

operations = st.lists(
    st.tuples(st.booleans(), subjects, predicates, objects),
    min_size=0,
    max_size=40,
)


class TestStoreInvariants:
    @settings(max_examples=50, deadline=None)
    @given(ops=operations)
    def test_backend_matches_graph(self, ops):
        store = StrabonStore()
        reference = set()
        for is_add, s, p, o in ops:
            if is_add:
                store.apply(inserts=[(s, p, o)])
                reference.add((s, p, o))
            else:
                store.apply(deletes=[(s, p, o)])
                reference.discard((s, p, o))
        assert set(store.triples()) == reference
        assert len(store) == len(reference)

    @settings(max_examples=50, deadline=None)
    @given(ops=operations)
    def test_spatial_index_matches_geometry_literals(self, ops):
        from repro.strabon.strdf import is_geometry_literal, literal_geometry

        store = StrabonStore()
        for is_add, s, p, o in ops:
            if is_add:
                store.apply(inserts=[(s, p, o)])
            else:
                store.apply(deletes=[(s, p, o)])
        live_geoms = {
            o for _, _, o in store.triples() if is_geometry_literal(o)
        }
        probe = Envelope(-100, -100, 100, 100)
        indexed = store.spatial_candidates(probe)
        assert indexed == live_geoms

    @settings(max_examples=30, deadline=None)
    @given(ops=operations)
    def test_spatial_query_agrees_with_bruteforce(self, ops):
        from repro.strabon.strdf import is_geometry_literal, literal_geometry

        store = StrabonStore()
        for is_add, s, p, o in ops:
            if is_add:
                store.apply(inserts=[(s, p, o)])
            else:
                store.apply(deletes=[(s, p, o)])
        query = (
            "PREFIX ex: <http://example.org/>\n"
            "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
            "SELECT ?s ?g WHERE { ?s ?p ?g . "
            'FILTER(strdf:within(?g, '
            '"POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))"^^strdf:WKT)) }'
        )
        from repro.geometry import Polygon

        got = {tuple(row) for row in store.query(query).rows()}
        region = Polygon([(5, 5), (15, 5), (15, 15), (5, 15)])
        expected = set()
        for s, p, o in store.triples():
            if not is_geometry_literal(o):
                continue
            if literal_geometry(o).within(region):
                expected.add((s, o))
        assert got == expected
