"""Graph loading: spatial results must be identical to the incremental
path, and clear() must fully reset the store."""

from repro.geometry import Envelope, Point
from repro.rdf import Literal, Namespace, URIRef
from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF
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
    '"POLYGON ((20 20, 60 20, 60 60, 20 60, 20 20))"^^strdf:WKT)) }'
)

BGP_QUERY = PREFIXES + "SELECT ?h ?s WHERE { ?h ex:sensor ?s }"


def catalog_graph(n: int = 120) -> Graph:
    g = Graph()
    type_iri = URIRef(str(RDF) + "type")
    for i in range(n):
        node = EX[f"h{i}"]
        x = (i * 37) % 100
        y = (i * 59) % 100
        g.add((node, type_iri, EX.Hotspot))
        g.add((node, EX.sensor, EX[f"seviri{i % 5}"]))
        g.add((node, EX.conf, Literal((i % 100) / 100.0)))
        g.add((node, EX.geom, geometry_literal(Point(x, y))))
    return g


def rows_set(store, query):
    return {tuple(row) for row in store.query(query).rows()}


class TestBulkLoad:
    def test_bulk_load_matches_incremental_spatial_results(self):
        graph = catalog_graph()
        incremental = StrabonStore()
        for triple in graph:
            incremental.apply(inserts=[triple])
        bulk = StrabonStore()
        bulk.load_graph(graph)

        assert len(bulk) == len(incremental)
        expected = rows_set(incremental, SPATIAL_QUERY)
        assert expected  # the workload must actually select something
        assert rows_set(bulk, SPATIAL_QUERY) == expected
        assert rows_set(bulk, BGP_QUERY) == rows_set(
            incremental, BGP_QUERY
        )

    def test_incremental_adds_after_bulk_load_are_indexed(self):
        bulk = StrabonStore()
        bulk.load_graph(catalog_graph())
        bulk.apply(inserts=[(EX.extra, EX.geom, geometry_literal(Point(40.5, 40.5)))])
        assert (EX.extra,) in set(bulk.query(SPATIAL_QUERY).rows())

    def test_backend_rows_match_after_bulk(self):
        graph = catalog_graph(30)
        bulk = StrabonStore()
        bulk.load_graph(graph)
        assert set(bulk.triples()) == set(graph)
        assert len(graph) == len(bulk)
        # Every geometry literal is an index candidate after the load.
        geoms = {o for _, p, o in graph if p == EX.geom}
        probe = Envelope(-1, -1, 101, 101)
        assert bulk.spatial_candidates(probe) == geoms


class TestClear:
    def test_clear_resets_everything(self):
        store = StrabonStore()
        store.load_graph(catalog_graph())
        assert rows_set(store, SPATIAL_QUERY)
        store.clear()
        assert len(store) == 0
        assert list(store.triples()) == []
        assert store.spatial_candidates(Envelope(0, 0, 100, 100)) == set()
        assert rows_set(store, SPATIAL_QUERY) == set()

    def test_reload_after_clear_gives_identical_results(self):
        graph = catalog_graph()
        store = StrabonStore()
        store.load_graph(graph)
        before = rows_set(store, SPATIAL_QUERY)
        store.clear()
        store.load_graph(graph)
        assert rows_set(store, SPATIAL_QUERY) == before

    def test_clear_preserves_term_id_freshness(self):
        store = StrabonStore()
        store.load_graph([(EX.a, EX.p, EX.b)])
        store.clear()
        store.load_graph([(EX.a, EX.p, EX.b)])
        assert len(store) == 1
        assert list(store.triples()) == [(EX.a, EX.p, EX.b)]
