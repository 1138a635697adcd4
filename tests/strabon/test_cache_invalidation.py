"""Cached plans and interned geometries must never serve stale results.

Plans are data-independent (parse-only), so they survive updates — these
tests pin down that re-running a *cached* plan after INSERT DATA /
DELETE DATA / Graph-level removal reflects the new store state, for both
spatial and non-spatial queries.  Geometry interning is keyed by lexical
form (WKT parsing is pure), so entries are dropped only when the last
referencing triple goes away.
"""

from repro.geometry import Point
from repro.mdb import Database
from repro.rdf import Namespace
from repro.strabon import StrabonStore, geometry_literal

EX = Namespace("http://example.org/")
PREFIXES = (
    "PREFIX ex: <http://example.org/>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)

SPATIAL_QUERY = (
    PREFIXES
    + "SELECT ?h WHERE { ?h ex:geom ?g . "
    'FILTER(strdf:intersects(?g, '
    '"POLYGON ((0 0, 50 0, 50 50, 0 50, 0 0))"^^strdf:WKT)) }'
)

PLAIN_QUERY = PREFIXES + "SELECT ?h WHERE { ?h ex:sensor ex:seviri1 }"


def names(store, query):
    return {row[0] for row in store.query(query).rows()}


def seeded_store() -> StrabonStore:
    store = StrabonStore()
    store.load_graph(
        [
            (EX.a, EX.sensor, EX.seviri1),
            (EX.a, EX.geom, geometry_literal(Point(10, 10))),
            (EX.b, EX.sensor, EX.seviri2),
            (EX.b, EX.geom, geometry_literal(Point(80, 80))),
        ]
    )
    return store


class TestPlanCacheFreshness:
    def test_insert_data_visible_through_cached_plan(self):
        store = seeded_store()
        assert names(store, PLAIN_QUERY) == {EX.a}
        store.update(
            PREFIXES
            + "INSERT DATA { ex:c ex:sensor ex:seviri1 . "
            '  ex:c ex:geom "POINT (20 20)"^^strdf:WKT . }'
        )
        # Second run is a plan-cache hit, yet must see ex:c.
        assert names(store, PLAIN_QUERY) == {EX.a, EX.c}
        assert names(store, SPATIAL_QUERY) == {EX.a, EX.c}
        assert store.plan_cache.stats.hits > 0

    def test_delete_data_visible_through_cached_plan(self):
        store = seeded_store()
        assert names(store, SPATIAL_QUERY) == {EX.a}
        store.update(
            PREFIXES
            + "DELETE DATA { ex:a ex:sensor ex:seviri1 . "
            '  ex:a ex:geom "POINT (10 10)"^^strdf:WKT . }'
        )
        assert names(store, PLAIN_QUERY) == set()
        assert names(store, SPATIAL_QUERY) == set()

    def test_graph_remove_visible_through_cached_plan(self):
        store = seeded_store()
        assert names(store, PLAIN_QUERY) == {EX.a}
        assert names(store, SPATIAL_QUERY) == {EX.a}
        store.apply(deletes=store.triples((EX.a, None, None)))
        assert names(store, PLAIN_QUERY) == set()
        assert names(store, SPATIAL_QUERY) == set()

    def test_repeated_update_text_is_cached_and_correct(self):
        store = StrabonStore()
        insert = (
            PREFIXES + "INSERT DATA { ex:x ex:sensor ex:seviri1 . }"
        )
        store.update(insert)
        store.apply(deletes=store.triples((EX.x, None, None)))
        before = store.plan_cache.stats.hits
        store.update(insert)  # identical text → cached ops, same effect
        assert store.plan_cache.stats.hits == before + 1
        assert names(store, PLAIN_QUERY) == {EX.x}

    def test_clear_resets_results_but_keeps_plans_valid(self):
        store = seeded_store()
        assert names(store, PLAIN_QUERY) == {EX.a}
        store.clear()
        assert names(store, PLAIN_QUERY) == set()
        store.apply(inserts=[(EX.d, EX.sensor, EX.seviri1)])
        assert names(store, PLAIN_QUERY) == {EX.d}


class TestGeometryInternerLifecycle:
    def test_interner_drops_entry_with_last_reference(self):
        store = StrabonStore()
        lit = geometry_literal(Point(10, 10))
        store.apply(inserts=[(EX.a, EX.geom, lit)])
        store.apply(inserts=[(EX.b, EX.geom, lit)])
        names(store, SPATIAL_QUERY)  # force interning via evaluation
        assert lit in store.geometries._cache
        store.apply(deletes=[(EX.a, EX.geom, lit)])
        assert lit in store.geometries._cache  # ex:b still refers to it
        store.apply(deletes=[(EX.b, EX.geom, lit)])
        assert lit not in store.geometries._cache

    def test_reinserted_geometry_still_matches_spatially(self):
        store = StrabonStore()
        lit = geometry_literal(Point(10, 10))
        store.apply(inserts=[(EX.a, EX.geom, lit)])
        assert names(store, SPATIAL_QUERY) == {EX.a}
        store.apply(deletes=[(EX.a, EX.geom, lit)])
        assert names(store, SPATIAL_QUERY) == set()
        store.apply(inserts=[(EX.a, EX.geom, lit)])
        assert names(store, SPATIAL_QUERY) == {EX.a}


class TestSqlPlanCacheFreshness:
    def test_cached_select_sees_inserts_and_deletes(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT, v DOUBLE)")
        select = "SELECT id FROM t WHERE v > 0.5 ORDER BY id"
        assert db.query(select) == []
        db.execute("INSERT INTO t VALUES (1, 0.9)")
        db.execute("INSERT INTO t VALUES (2, 0.1)")
        assert db.query(select) == [(1,)]
        db.execute("DELETE FROM t WHERE id = 1")
        assert db.query(select) == []
        assert db.plan_cache.stats.hits >= 2
