"""The store's spatial index: a packed envelope column with tombstones.

An inserted literal joins an unpacked tail, a deleted one loses its
live bit, and a probe folds the tail onto the column (compacting it
once more than half of it is dead) before one ``intersects & live``
pass per probe.  Every probe here is checked against a brute-force
``Envelope.intersects`` scan.
"""

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Envelope, Point, Polygon
from repro.rdf import Namespace
from repro.strabon import StrabonStore, geometry_literal, literal_geometry

EX = Namespace("http://example.org/")
EVERYWHERE = Envelope(-1e9, -1e9, 1e9, 1e9)


def point(k):
    """``(ex:s<k>, ex:geom, POINT (k k))``."""
    return (EX[f"s{k}"], EX.geom, geometry_literal(Point(k, k)))


def brute_force(store, probe):
    return {
        o for _, p, o in store.triples((None, EX.geom, None))
        if literal_geometry(o).envelope.intersects(probe)
    }


def probe(store, envelope=EVERYWHERE):
    return store.spatial_candidates_batch([envelope])[0]


class TestFold:
    def test_adds_wait_in_the_tail_until_a_probe(self):
        store = StrabonStore()
        for k in range(5):
            store.apply(inserts=[point(k)])
        assert len(store._tail) == 5 and store._literals == []
        assert probe(store) == {point(k)[2] for k in range(5)}
        assert store._tail == [] and len(store._literals) == 5
        assert len(store._column) == 5

    def test_fold_appends_the_tail_to_a_packed_column(self):
        store = StrabonStore()
        for k in range(4):
            store.apply(inserts=[point(k)])
        probe(store)
        column = store._column
        store.apply(inserts=[point(10)])
        assert probe(store, Envelope(9, 9, 11, 11)) == {point(10)[2]}
        assert len(store._column) == 5
        assert store._column.unpack()[:4] == column.unpack()

    def test_no_geometry_no_slot(self):
        store = StrabonStore()
        store.apply(inserts=[(EX.a, EX.label, EX.b)])
        assert probe(store) == set()
        assert store._literals == []


class TestTombstones:
    def test_remove_clears_the_live_bit(self):
        store = StrabonStore()
        for k in range(4):
            store.apply(inserts=[point(k)])
        probe(store)
        store.apply(deletes=[point(2)])
        assert len(store._literals) == 4  # still a slot, now dead
        assert store._live.tolist() == [True, True, False, True]
        assert probe(store) == brute_force(store, EVERYWHERE)
        assert point(2)[2] not in probe(store)

    def test_remove_from_the_tail_before_any_fold(self):
        store = StrabonStore()
        for k in range(4):
            store.apply(inserts=[point(k)])
        store.apply(deletes=[point(0)])
        assert probe(store) == {point(k)[2] for k in (1, 2, 3)}

    def test_remove_then_re_add(self):
        store = StrabonStore()
        for k in range(4):
            store.apply(inserts=[point(k)])
        probe(store)
        store.apply(deletes=[point(1)])
        store.apply(inserts=[point(1)])
        assert point(1)[2] in probe(store, Envelope(1, 1, 1, 1))
        # In the tail: removed and re-added before the fold.
        store.apply(inserts=[point(7)])
        store.apply(deletes=[point(7)])
        store.apply(inserts=[point(7)])
        assert probe(store) == {point(k)[2] for k in (0, 1, 2, 3, 7)}
        store.apply(deletes=[point(7)])
        assert probe(store) == {point(k)[2] for k in (0, 1, 2, 3)}

    def test_two_triples_sharing_one_literal(self):
        store = StrabonStore()
        shared = geometry_literal(Point(3, 3))
        store.apply(inserts=[(EX.a, EX.geom, shared)])
        store.apply(inserts=[(EX.b, EX.geom, shared)])
        assert probe(store) == {shared}
        assert len(store._literals) == 1  # one slot per distinct literal
        store.apply(deletes=[(EX.a, EX.geom, shared)])
        assert probe(store) == {shared}
        store.apply(deletes=[(EX.b, EX.geom, shared)])
        assert probe(store) == set()
        store.apply(inserts=[(EX.c, EX.geom, shared)])
        assert probe(store) == {shared}


class TestCompaction:
    def test_compacts_only_past_half_dead(self):
        store = StrabonStore()
        for k in range(10):
            store.apply(inserts=[point(k)])
        probe(store)
        for k in range(5):
            store.apply(deletes=[point(k)])
        probe(store)
        assert len(store._literals) == 10  # exactly half dead: kept
        assert store._dead == 5
        store.apply(deletes=[point(5)])
        assert probe(store) == {point(k)[2] for k in range(6, 10)}
        assert store._literals == [point(k)[2] for k in range(6, 10)]
        assert store._live.all() and store._dead == 0
        assert store._slots == {
            point(k)[2]: i for i, k in enumerate(range(6, 10))
        }

    def test_slots_stay_right_after_compaction(self):
        store = StrabonStore()
        for k in range(12):
            store.apply(inserts=[point(k)])
        probe(store)
        for k in range(0, 12, 2):
            store.apply(deletes=[point(k)])
        store.apply(deletes=[point(1)])
        probe(store)  # 7 of 12 dead: compacts
        assert len(store._literals) == 5
        store.apply(deletes=[point(9)])
        store.apply(inserts=[point(0)])
        assert probe(store) == brute_force(store, EVERYWHERE)
        assert probe(store, Envelope(8.5, 8.5, 9.5, 9.5)) == set()


def test_clear_resets_the_index():
    store = StrabonStore()
    for k in range(6):
        store.apply(inserts=[point(k)])
    probe(store)
    store.apply(deletes=[point(0)])
    store.apply(inserts=[point(9)])
    store.clear()
    assert probe(store) == set()
    assert (store._literals, store._tail, store._slots) == ([], [], {})
    assert store._dead == 0 and len(store._column) == 0
    store.apply(inserts=[point(2)])
    assert probe(store) == {point(2)[2]}


class TestConcurrentWriters:
    def test_eight_writer_threads_then_a_probe(self):
        """Eight threads add the same 40 geometry literals under their own
        subjects, then remove the even ones.  A lost refcount, graph or
        tail update leaves a wrong survivor set."""
        literals = [geometry_literal(Point(i, i)) for i in range(40)]
        store = StrabonStore()
        errors = []

        def write(k):
            try:
                triples = [
                    (EX[f"s{k}_{i}"], EX.geom, literal)
                    for i, literal in enumerate(literals)
                ]
                for i, triple in enumerate(triples):
                    store.apply(inserts=[triple])
                    if i % 4 == 0:
                        probe(store)  # folds race the other writers
                for triple in triples[::2]:
                    store.apply(deletes=[triple])
            except Exception as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=write, args=(k,)) for k in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert all(not t.is_alive() for t in threads)
        assert len(store) == len(set(store.triples())) == 8 * 20
        odd = set(literals[1::2])
        assert store._geo_refcount == {literal: 8 for literal in odd}
        assert probe(store) == odd


def boxes_from(min_side):
    """``(x, y, w, h)`` with sides of at least ``min_side``."""
    side = st.integers(min_side, 4)
    return st.tuples(st.integers(0, 20), st.integers(0, 20), side, side)


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(
        boxes=st.lists(boxes_from(1), min_size=1, max_size=12),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "probe"]),
                st.integers(0, 40),
            ),
            max_size=60,
        ),
        window=boxes_from(0),
    )
    def test_every_probe_matches(self, boxes, ops, window):
        """Random adds, removes and probes; subjects outnumber boxes, so
        literals are shared, removed and re-added."""
        literals = [
            geometry_literal(
                Polygon.from_envelope(Envelope(x, y, x + w, y + h))
            )
            for x, y, w, h in boxes
        ]
        x, y, w, h = window
        window = Envelope(x, y, x + w, y + h)
        store = StrabonStore()
        for op, k in ops:
            triple = (EX[f"s{k}"], EX.geom, literals[k % len(literals)])
            if op == "add":
                store.apply(inserts=[triple])
            elif op == "remove":
                store.apply(deletes=[triple])
            else:
                assert probe(store, window) == brute_force(store, window)
        assert probe(store, window) == brute_force(store, window)
        assert probe(store) == brute_force(store, EVERYWHERE)
