"""stSPARQL FILTERs: numeric ones judged row by row by the interpreter,
spatial ones through the batched envelope lane of :mod:`repro.kernels`.

Each numeric query below has its expected subjects written out, error
semantics included (errors exclude rows; ``||`` recovers from a failing
operand when the other side is true).  Raising
``kernels.FILTER_BATCH_MIN_SOLUTIONS`` past any batch size forces the
per-row walk for spatial FILTERs too; every spatial query must return
identical rows both ways.
"""

import random
import sys
from collections import Counter

import pytest

from repro import kernels
from repro.rdf import Namespace, term
from repro.rdf.namespace import XSD
from repro.rdf.term import Literal
from repro.strabon import StrabonStore

EX = Namespace("http://example.org/")

DATA = """
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:alice a ex:Person ; ex:age "30"^^xsd:integer ; ex:score "2.5"^^xsd:double .
ex:bob a ex:Person ; ex:age "25"^^xsd:integer ; ex:score "0.0"^^xsd:double .
ex:carol a ex:Person ; ex:age "35"^^xsd:integer .
ex:dave a ex:Person ; ex:age "40"^^xsd:integer ; ex:knows ex:alice .
ex:eve a ex:Person ; ex:age "0"^^xsd:integer .
ex:rex a ex:Dog ; ex:age "hello" .
"""

PREFIXES = "PREFIX ex: <http://example.org/>\n"

#: (query, the local names of the subjects it returns).  ex:rex's age is
#: the plain string "hello": it errors out of every comparison and
#: arithmetic, but `!(?a = 30)` is true for it (a string is no number)
#: and a non-empty string's effective boolean value is true.
QUERIES = [
    (
        "SELECT ?p WHERE { ?p ex:age ?a . FILTER(?a > 28) }",
        ["alice", "carol", "dave"],
    ),
    ("SELECT ?p WHERE { ?p ex:age ?a . FILTER(?a * 2 = 50) }", ["bob"]),
    (
        "SELECT ?p WHERE { ?p ex:age ?a . FILTER(?a < 28 || ?a > 33) }",
        ["bob", "carol", "dave", "eve"],
    ),
    (
        "SELECT ?p WHERE { ?p ex:age ?a . FILTER(!(?a = 30)) }",
        ["bob", "carol", "dave", "eve", "rex"],
    ),
    (
        "SELECT ?p WHERE { ?p ex:age ?a . FILTER(?a >= 25 && ?a <= 35) }",
        ["alice", "bob", "carol"],
    ),
    (
        "SELECT ?p WHERE { ?p ex:age ?a . FILTER(-?a < -28) }",
        ["alice", "carol", "dave"],
    ),
    (
        "SELECT ?p WHERE { ?p ex:age ?a . FILTER(?a - 5 != 25) }",
        ["bob", "carol", "dave", "eve"],
    ),
    # Division by a value that is zero for some rows: those rows error
    # out and are excluded, the rest keep their verdict.
    (
        "SELECT ?p WHERE { ?p ex:age ?a . FILTER(100 / ?a > 3) }",
        ["alice", "bob"],
    ),
    (
        "SELECT ?p WHERE { ?p ex:age ?a . FILTER(100 / ?a > 3 || ?a > 33) }",
        ["alice", "bob", "carol", "dave"],
    ),
    # ?s is sparsely bound (only two subjects carry a score).
    (
        "SELECT ?p WHERE { ?p ex:age ?a . "
        "OPTIONAL { ?p ex:score ?s } FILTER(bound(?s)) }",
        ["alice", "bob"],
    ),
    (
        "SELECT ?p WHERE { ?p ex:age ?a . "
        "OPTIONAL { ?p ex:score ?s } FILTER(!bound(?s)) }",
        ["carol", "dave", "eve", "rex"],
    ),
    # Bare variable as the whole condition: effective boolean value.
    (
        "SELECT ?p WHERE { ?p ex:age ?a . FILTER(?a) }",
        ["alice", "bob", "carol", "dave", "rex"],
    ),
]


@pytest.fixture
def store():
    s = StrabonStore()
    s.load_turtle(DATA)
    return s


BATCH_MIN = kernels.FILTER_BATCH_MIN_SOLUTIONS


def per_row_filters(monkeypatch, on):
    """Batch spatial FILTERs (``on``) or force the per-row walk for
    every row."""
    monkeypatch.setattr(
        kernels, "FILTER_BATCH_MIN_SOLUTIONS", BATCH_MIN if on else sys.maxsize
    )


def subjects(store, query):
    """Sorted local names of the first column of ``query``'s rows."""
    rows = store.query(PREFIXES + query).rows()
    return sorted(str(row[0]).rsplit("/", 1)[-1] for row in rows)


class TestFilterEquality:
    @pytest.mark.parametrize("query,expected", QUERIES)
    def test_returns_expected_subjects(self, store, query, expected):
        assert subjects(store, query) == expected

    def test_non_numeric_binding_is_excluded(self, store):
        # ex:rex has ex:age "hello": the comparison errors for that row
        # alone, which excludes it.
        query = "SELECT ?s WHERE { ?s ex:age ?a . FILTER(?a >= 0) }"
        assert subjects(store, query) == ["alice", "bob", "carol", "dave", "eve"]

    def test_division_by_zero_excludes_row(self, store):
        # ex:eve's age is 0: 100 / ?a errors for her row only.
        query = "SELECT ?p WHERE { ?p ex:age ?a . FILTER(100 / ?a > 0) }"
        assert subjects(store, query) == ["alice", "bob", "carol", "dave"]

    def test_or_recovers_from_failing_operand(self, store):
        # SPARQL ||: an errored operand is forgiven when the other side
        # is true — eve (division error, age 0) is rescued by ?a < 10.
        query = (
            "SELECT ?p WHERE { ?p ex:age ?a . "
            "FILTER(100 / ?a > 0 || ?a < 10) }"
        )
        assert subjects(store, query) == ["alice", "bob", "carol", "dave", "eve"]

    def test_and_propagates_error(self, store):
        query = (
            "SELECT ?p WHERE { ?p ex:age ?a . "
            "FILTER(100 / ?a > 0 && ?a < 10) }"
        )
        assert subjects(store, query) == []

    def test_unsupported_filter_refused_once(self, monkeypatch, store):
        # regex() is not lowered; the refusal is cached so repeated
        # queries do not re-walk the expression tree.
        kernels.clear_caches()
        query = PREFIXES + (
            'SELECT ?p WHERE { ?p a ex:Person . '
            'FILTER(regex(str(?p), "ali")) }'
        )
        r1 = sorted(store.query(query).rows())
        misses = kernels.filter_kernel_cache.misses
        r2 = sorted(store.query(query).rows())
        assert r1 == r2
        assert kernels.filter_kernel_cache.misses == misses


class TestLiteralDecoding:
    def test_each_stored_literal_decodes_once(self, monkeypatch):
        # About the hotspot count of a seed-12 scenario round (1 266
        # before refinement), three join blocks of 512 rows: running the
        # FILTER twice decodes every literal it reads once, in the first
        # run, and the second run decodes nothing.
        rng = random.Random(12)
        triples = []
        for i in range(1500):
            triples.append((EX[f"h{i}"], EX.c, Literal(rng.random())))
            triples.append((EX[f"h{i}"], EX.px, Literal(rng.randrange(30))))
        store = StrabonStore()
        store.load_graph(triples)
        decodes = Counter()
        decode = term._decode

        def counting_decode(literal):
            decodes[id(literal)] += 1
            return decode(literal)

        monkeypatch.setattr(term, "_decode", counting_decode)
        query = (
            "SELECT ?h WHERE { ?h ex:c ?c ; ex:px ?px . "
            "FILTER(?c > 0.9 && ?px >= 10) }"
        )
        first = subjects(store, query)
        after_first = sum(decodes.values())
        assert subjects(store, query) == first
        assert first
        assert after_first >= 1500
        assert sum(decodes.values()) == after_first
        assert max(decodes.values()) == 1

    def test_ill_typed_literal_raises_every_call(self):
        bad = Literal("hello", datatype=XSD.integer)
        for _ in range(2):
            with pytest.raises(ValueError):
                bad.to_python()

    @pytest.mark.parametrize(
        "condition,expected",
        [
            ("?a >= 0", ["alice", "bob", "carol", "dave", "eve"]),
            # An ill-typed numeric form's effective boolean value is false.
            ("?a", ["alice", "bob", "carol", "dave", "rex"]),
        ],
    )
    def test_ill_typed_literal_is_excluded(self, store, condition, expected):
        store.load_turtle(
            "@prefix ex: <http://example.org/> .\n"
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
            'ex:mallory ex:age "hello"^^xsd:integer .\n'
        )
        query = f"SELECT ?p WHERE {{ ?p ex:age ?a . FILTER({condition}) }}"
        for _ in range(2):
            assert subjects(store, query) == expected


# ---------------------------------------------------------------------------
# Batched spatial FILTERs
# ---------------------------------------------------------------------------


SPATIAL_PREFIXES = (
    "PREFIX ex: <http://example.org/>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
    "PREFIX geof: <http://www.opengis.net/def/function/geosparql/>\n"
)

REGION = '"POLYGON ((0 0, 8 0, 8 8, 0 8, 0 0))"^^strdf:WKT'
PROBE = '"POINT (5 5)"^^strdf:WKT'

#: Spatial FILTER shapes the compiler lowers: indexable predicates
#: (negated or not) and strdf:distance comparisons with the
#: variable/constant on either side, in both orders, with every
#: comparison operator — and the same over two geometry variables
#: bound by different patterns (the fire map's spatial joins).
SPATIAL_QUERIES = [
    f"SELECT ?s WHERE {{ ?s ex:geom ?g . "
    f"FILTER(strdf:intersects(?g, {REGION})) }}",
    f"SELECT ?s WHERE {{ ?s ex:geom ?g . "
    f"FILTER(strdf:within(?g, {REGION})) }}",
    f"SELECT ?s WHERE {{ ?s ex:geom ?g . "
    f"FILTER(strdf:contains({REGION}, ?g)) }}",
    f"SELECT ?s WHERE {{ ?s ex:geom ?g . "
    f"FILTER(strdf:disjoint(?g, {REGION})) }}",
    f"SELECT ?s WHERE {{ ?s ex:geom ?g . "
    f"FILTER(strdf:distance(?g, {PROBE}) < 6.0) }}",
    f"SELECT ?s WHERE {{ ?s ex:geom ?g . "
    f"FILTER(strdf:distance(?g, {PROBE}) <= 3.5) }}",
    f"SELECT ?s WHERE {{ ?s ex:geom ?g . "
    f"FILTER(strdf:distance(?g, {PROBE}) > 10.0) }}",
    f"SELECT ?s WHERE {{ ?s ex:geom ?g . "
    f"FILTER(strdf:distance(?g, {PROBE}) >= 15.0) }}",
    f"SELECT ?s WHERE {{ ?s ex:geom ?g . "
    f"FILTER(6.0 > strdf:distance(?g, {PROBE})) }}",
    f"SELECT ?s WHERE {{ ?s ex:geom ?g . "
    f"FILTER(geof:distance({PROBE}, ?g) < 4.25) }}",
    f"SELECT ?s WHERE {{ ?s ex:geom ?g . "
    f"FILTER(!strdf:intersects(?g, {REGION})) }}",
    f"SELECT ?s WHERE {{ ?s ex:geom ?g . "
    f"FILTER(!strdf:within({REGION}, ?g)) }}",
    "SELECT ?s ?z WHERE { ?s ex:geom ?g . ?z ex:zone ?h . "
    "FILTER(strdf:intersects(?g, ?h)) }",
    "SELECT ?s ?z WHERE { ?s ex:geom ?g . ?z ex:zone ?h . "
    "FILTER(strdf:contains(?h, ?g)) }",
    "SELECT ?s ?z WHERE { ?s ex:geom ?g . ?z ex:zone ?h . "
    "FILTER(!strdf:intersects(?h, ?g)) }",
    "SELECT ?s ?z WHERE { ?s ex:geom ?g . ?z ex:zone ?h . "
    "FILTER(strdf:distance(?g, ?h) < 2.5) }",
    "SELECT ?s ?z WHERE { ?s ex:geom ?g . ?z ex:zone ?h . "
    "FILTER(3.0 <= strdf:distance(?h, ?g)) }",
    "SELECT ?s ?z WHERE { ?s ex:geom ?g . ?z ex:zone ?h . "
    "FILTER(strdf:distance(?g, ?h) > 6.0) }",
]


def spatial_store(seed=11, n=120, zones=8):
    """``n`` features under ``ex:geom`` (every seventh a unit square,
    the rest points) and ``zones`` rectangles under ``ex:zone``."""
    import random as _random

    from repro.geometry import Point, Polygon
    from repro.strabon import geometry_literal

    triples = []
    rng = _random.Random(seed)
    for i in range(n):
        x, y = rng.uniform(-10, 20), rng.uniform(-10, 20)
        if i % 7 == 0:
            geom = Polygon(
                [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
            )
        else:
            geom = Point(x, y)
        triples.append((EX[f"f{i}"], EX.geom, geometry_literal(geom)))
    rng = _random.Random(seed + 1)
    for j in range(zones):
        x, y = rng.uniform(-10, 15), rng.uniform(-10, 15)
        w, h = rng.uniform(1, 5), rng.uniform(1, 5)
        zone = Polygon([(x, y), (x + w, y), (x + w, y + h), (x, y + h)])
        triples.append((EX[f"z{j}"], EX.zone, geometry_literal(zone)))
    store = StrabonStore()
    store.load_graph(triples)
    return store


def spatial_counters(monkeypatch, store, query):
    """Rows of ``query`` with kernels on, and the spatial lane's
    counter deltas."""
    from repro import obs

    per_row_filters(monkeypatch, True)
    kernels.clear_caches()
    before = obs.snapshot()["counters"]
    rows = sorted(store.query(SPATIAL_PREFIXES + query).rows())
    after = obs.snapshot()["counters"]
    deltas = {
        name: after.get(f"stsparql.spatial.{name}", 0)
        - before.get(f"stsparql.spatial.{name}", 0)
        for name in ("batch_rows", "env_decided", "kernel_rows", "exact_rows")
    }
    return rows, deltas


def rows_both_ways(monkeypatch, make_store, query):
    """Rows of ``query`` with kernels on and off, each on a fresh store."""
    results = {}
    for on in (True, False):
        kernels.clear_caches()
        per_row_filters(monkeypatch, on)
        results[on] = sorted(
            make_store().query(SPATIAL_PREFIXES + query).rows()
        )
    return results[True], results[False]


class TestSpatialBatch:
    @pytest.mark.parametrize("query", SPATIAL_QUERIES)
    def test_batched_rows_match_interpreter(self, monkeypatch, query):
        on, off = rows_both_ways(monkeypatch, spatial_store, query)
        assert on == off

    def test_batch_lane_engages_and_decides_rows(self, monkeypatch):
        _, deltas = spatial_counters(
            monkeypatch,
            spatial_store(),
            "SELECT ?s WHERE { ?s ex:geom ?g . "
            f"FILTER(strdf:distance(?g, {PROBE}) > 10.0) }}",
        )
        assert deltas["batch_rows"] == 120
        # Most rows are far from the probe: the envelope lower bound
        # must decide them without running the exact geometry distance.
        assert deltas["env_decided"] > 60

    def test_var_var_distance_takes_the_lane(self, monkeypatch):
        # A spatial join: every (feature, zone) pair is one row of the
        # batch, and most pairs are far apart.
        _, deltas = spatial_counters(
            monkeypatch,
            spatial_store(),
            "SELECT ?s ?z WHERE { ?s ex:geom ?g . ?z ex:zone ?h . "
            "FILTER(strdf:distance(?g, ?h) < 2.5) }",
        )
        assert deltas["batch_rows"] == 120 * 8
        assert deltas["env_decided"] > 120 * 8 / 2
        assert (
            deltas["env_decided"] + deltas["exact_rows"]
            == deltas["batch_rows"]
        )

    def test_polygon_rows_take_the_exact_kernel(self, monkeypatch):
        # Square features against zone rectangles: the kernel decides
        # the envelope survivors; point features stay with the scalar
        # predicate, which the batched kernel does not cover.
        _, deltas = spatial_counters(
            monkeypatch,
            spatial_store(),
            "SELECT ?s ?z WHERE { ?s ex:geom ?g . ?z ex:zone ?h . "
            "FILTER(strdf:intersects(?g, ?h)) }",
        )
        assert deltas["kernel_rows"] > 0
        assert deltas["exact_rows"] > 0
        assert (
            deltas["env_decided"] + deltas["kernel_rows"]
            + deltas["exact_rows"]
            == deltas["batch_rows"]
            == 120 * 8
        )

    def test_envelope_decisions_match_all_pairs_oracle(self, monkeypatch):
        # The batched envelope pass must agree with the quadratic
        # oracle: for every (geometry, constant) pair and every
        # (geometry, zone) pair, env-disjoint implies the predicate is
        # False, and the envelope distance never exceeds the geometry
        # distance (it is a lower bound).
        from repro.geometry import Envelope
        from repro.geometry.envelope import PackedEnvelopes
        from repro.strabon import literal_geometry

        store = spatial_store()
        geoms = [
            literal_geometry(o)
            for _, _, o in store.triples((None, EX.geom, None))
        ]
        assert len(geoms) == 120
        envs = [g.envelope for g in geoms]
        packed = PackedEnvelopes.pack(envs)
        probe = Envelope(0.0, 0.0, 8.0, 8.0)
        hit = packed.intersects(probe)
        dist = packed.distance(probe)
        for i, geom in enumerate(geoms):
            assert hit[i] == envs[i].intersects(probe)
            # strict lower bound modulo the documented 1-ulp slack
            assert dist[i] * (1.0 - 1e-12) <= envs[i].distance(probe)
        zones = [
            literal_geometry(o)
            for _, _, o in store.triples((None, EX.zone, None))
        ]
        pairs = [(g, z) for g in geoms for z in zones]
        left = PackedEnvelopes.pack([g.envelope for g, _ in pairs])
        right = PackedEnvelopes.pack([z.envelope for _, z in pairs])
        hit = left.intersects(right)
        dist = left.distance(right)
        for k, (geom, zone) in enumerate(pairs):
            assert hit[k] == geom.envelope.intersects(zone.envelope)
            if not hit[k]:
                assert not geom.intersects(zone)
            assert dist[k] * (1.0 - 1e-12) <= geom.distance(zone)

    def test_interned_geometries_compute_no_envelope(self, monkeypatch):
        # N rows over k distinct interned polygons: the lane takes each
        # envelope from the interner's entry instead of walking the
        # polygon's vertices again per batch.
        from repro.geometry import Envelope, Polygon
        from repro.strabon import geometry_literal, strdf
        from repro.strabon.stsparql.parser import parse_query

        interner = strdf.GeometryInterner()
        polygons = [
            geometry_literal(
                Polygon([(20 + k, 0), (21 + k, 0), (21 + k, 1), (20 + k, 1)])
            )
            for k in range(4)
        ]
        for literal in polygons:
            interner.entry(literal)
        expr = parse_query(
            SPATIAL_PREFIXES
            + "SELECT ?s WHERE { ?s ex:geom ?g . "
            f"FILTER(!strdf:intersects(?g, {REGION})) }}"
        ).where.filters[0]
        plan = kernels.compile_spatial_filter(expr)
        walks = []
        of_coords = Envelope.of_coords
        monkeypatch.setattr(
            Envelope,
            "of_coords",
            classmethod(lambda cls, coords: walks.append(1) or of_coords(coords)),
        )
        rows = [{"g": polygons[i % 4]} for i in range(200)]
        kept = kernels.run_spatial_filter(
            plan, rows, interner.entry, lambda sol: pytest.fail("exact path")
        )
        assert len(kept) == 200  # every envelope is disjoint from REGION
        assert walks == []

    def test_mixed_srid_rows_fall_back_per_row(self, monkeypatch):
        # A geometry in a different SRID is outside the lane's
        # contract: it must take the exact per-row path, and the
        # result must still match the interpreter.
        from repro.geometry import Point
        from repro.strabon import geometry_literal

        def make_store():
            store = spatial_store(n=40)
            triple = (
                EX.odd,
                EX.geom,
                geometry_literal(Point(5.1, 5.1, srid=3857)),
            )
            store.load_graph([triple])
            return store

        query = (
            "SELECT ?s WHERE { ?s ex:geom ?g . "
            f"FILTER(strdf:distance(?g, {PROBE}) < 6.0) }}"
        )
        on, off = rows_both_ways(monkeypatch, make_store, query)
        assert on == off

    def test_var_var_mixed_srid_rows_fall_back_per_row(self, monkeypatch):
        # A zone in another SRID: each of its pairs takes the exact path
        # (which re-projects), the other pairs stay in the lane.
        from repro.geometry import Polygon
        from repro.strabon import geometry_literal

        def make_store():
            store = spatial_store(n=40, zones=4)
            square = [(0, 0), (9e5, 0), (9e5, 9e5), (0, 9e5)]
            triple = (
                EX.far,
                EX.zone,
                geometry_literal(Polygon(square, srid=3857)),
            )
            store.load_graph([triple])
            return store

        query = (
            "SELECT ?s ?z WHERE { ?s ex:geom ?g . ?z ex:zone ?h . "
            "FILTER(!strdf:intersects(?g, ?h)) }"
        )
        on, off = rows_both_ways(monkeypatch, make_store, query)
        assert on == off
        _, deltas = spatial_counters(monkeypatch, make_store(), query)
        assert deltas["batch_rows"] == 40 * 5
        assert deltas["exact_rows"] >= 40

    def test_unbound_second_operand_falls_back_per_row(self, monkeypatch):
        # OPTIONAL leaves ?h unbound for most features: those rows error
        # out of the FILTER (also under `!`) on the exact path.
        from repro.geometry import Polygon
        from repro.strabon import geometry_literal

        def make_store():
            store = spatial_store(n=40)
            for k in range(0, 40, 8):
                triple = (
                    EX[f"f{k}"],
                    EX.near,
                    geometry_literal(Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])),
                )
                store.load_graph([triple])
            return store

        query = (
            "SELECT ?s WHERE { ?s ex:geom ?g . "
            "OPTIONAL { ?s ex:near ?h } "
            "FILTER(!strdf:intersects(?g, ?h)) }"
        )
        on, off = rows_both_ways(monkeypatch, make_store, query)
        assert on == off
        assert 0 < len(on) <= 5

    def test_malformed_literal_under_negation_is_excluded(
        self, monkeypatch
    ):
        # A literal that does not parse makes the predicate an error,
        # and `!error` is still an error: the row must not pass.
        from repro.rdf.term import Literal
        from repro.strabon import strdf

        def make_store():
            store = spatial_store(n=40, zones=3)
            triple = (
                EX.broken,
                EX.geom,
                Literal("POLYGON oops", datatype=strdf.WKT_DATATYPE),
            )
            store.load_graph([triple])
            return store

        query = (
            "SELECT ?s ?z WHERE { ?s ex:geom ?g . ?z ex:zone ?h . "
            "FILTER(!strdf:intersects(?g, ?h)) }"
        )
        on, off = rows_both_ways(monkeypatch, make_store, query)
        assert on == off
        assert not any(row[0] == EX.broken for row in on)
        assert on

    @pytest.mark.parametrize(
        "condition",
        [
            "strdf:intersects(?g, ?g)",
            "strdf:distance(?g, ?g) < 1",
            'strdf:distance(?g, ?h) < "near"',
            "strdf:distance(?g, ?h) < ?r",
            "!(strdf:distance(?g, ?h) < 1)",
            "strdf:intersects(?g, ex:z0)",
        ],
    )
    def test_other_shapes_are_refused(self, condition):
        from repro.strabon.stsparql.parser import parse_query

        kernels.clear_caches()
        expr = parse_query(
            SPATIAL_PREFIXES
            + "SELECT ?s WHERE { ?s ex:geom ?g . ?z ex:zone ?h . "
            f"FILTER({condition}) }}"
        ).where.filters[0]
        assert kernels.compile_spatial_filter(expr) is None

    def test_spatial_plan_cached_on_repeat(self, monkeypatch):
        kernels.clear_caches()
        store = spatial_store(n=30)
        query = (
            SPATIAL_PREFIXES
            + "SELECT ?s WHERE { ?s ex:geom ?g . "
            f"FILTER(strdf:intersects(?g, {REGION})) }}"
        )
        store.query(query)
        hits = kernels.filter_kernel_cache.hits
        store.query(query)
        assert kernels.filter_kernel_cache.hits > hits
