"""Batched spatial-index probes must reproduce per-envelope probes
exactly, and the packed column must never go stale."""

import random
import threading

import pytest

from repro import obs
from repro.geometry import Envelope, PackedEnvelopes, Polygon
from repro.rdf import Namespace
from repro.strabon import StrabonStore, geometry_literal, literal_geometry

EX = Namespace("http://example.org/")


def random_envelope(rng, span=100.0, max_side=6.0):
    x, y = rng.uniform(0, span), rng.uniform(0, span)
    w, h = rng.uniform(0, max_side), rng.uniform(0, max_side)
    return Envelope(x, y, x + w, y + h)


def box_triple(rng, k):
    """``(ex:item<k>, ex:geom, <a random box literal>)``."""
    polygon = Polygon.from_envelope(random_envelope(rng))
    return (EX[f"item{k}"], EX.geom, geometry_literal(polygon))


def build_store(n=400, seed=17):
    rng = random.Random(seed)
    store = StrabonStore()
    triples = [box_triple(rng, k) for k in range(n)]
    store.load_graph(triples)
    return store, triples


def brute_force(triples, probe):
    return {
        o for _, _, o in triples
        if literal_geometry(o).envelope.intersects(probe)
    }


def probe_set(seed=99, n=60):
    rng = random.Random(seed)
    probes = [random_envelope(rng, max_side=15.0) for _ in range(n)]
    probes.append(Envelope(500, 500, 501, 501))  # guaranteed miss
    probes.append(Envelope(50, 50, 50, 50))  # degenerate point probe
    probes.append(Envelope.empty())
    return probes


@pytest.fixture
def folds():
    """Read ``strabon.index.folds`` with the metrics registry on."""
    registry = obs.get_registry()
    was_enabled = registry.enabled
    registry.set_enabled(True)
    yield lambda: obs.counter("strabon.index.folds").value
    registry.set_enabled(was_enabled)


class TestQueryBatchEquality:
    def test_matches_query_order_and_content(self):
        store, triples = build_store()
        probes = probe_set()
        batched = store.spatial_candidates_batch(probes)
        assert batched == [store.spatial_candidates(p) for p in probes]
        assert batched == [brute_force(triples, p) for p in probes]

    def test_empty_tree(self):
        assert StrabonStore().spatial_candidates_batch(probe_set()) == [
            set() for _ in probe_set()
        ]

    def test_no_probes(self):
        store, _ = build_store(n=50)
        assert store.spatial_candidates_batch([]) == []

    def test_snapshot_invalidated_by_insert(self):
        store, triples = build_store(n=100)
        probe = Envelope(0, 0, 100, 100)
        before = store.spatial_candidates_batch([probe])[0]
        fresh = (
            EX.fresh, EX.geom,
            geometry_literal(Polygon.from_envelope(Envelope(10, 10, 11, 11))),
        )
        store.apply(inserts=[fresh])
        after = store.spatial_candidates_batch([probe])[0]
        assert fresh[2] in after
        assert after == brute_force(triples + [fresh], probe)
        assert len(after) == len(before) + 1

    def test_snapshot_invalidated_by_remove(self):
        store, triples = build_store(n=100)
        probe = Envelope(0, 0, 100, 100)
        store.spatial_candidates_batch([probe])  # fold the column
        assert store.apply(deletes=[triples[0]]) == (1, 0)
        after = store.spatial_candidates_batch([probe])[0]
        assert triples[0][2] not in after
        assert after == brute_force(triples[1:], probe)

    def test_snapshot_reused_until_mutation(self, folds):
        store, _ = build_store(n=100)
        probe = [Envelope(0, 0, 100, 100)]
        store.spatial_candidates_batch(probe)
        first = folds()
        store.spatial_candidates_batch(probe)
        assert folds() == first  # nothing changed: no fold
        square = Polygon.from_envelope(Envelope(1, 1, 2, 2))
        store.load_graph([(EX.new, EX.geom, geometry_literal(square))])
        store.spatial_candidates_batch(probe)
        assert folds() == first + 1


class TestSnapshotConcurrencyRegression:
    """A reader probing while another thread writes must not pin a
    stale column: once the writer is done, the next probe sees exactly
    the writes."""

    def probe_while(self, store, write):
        probe = [Envelope(0, 0, 200, 200)]
        done = threading.Event()
        errors = []

        def reader():
            try:
                while not done.is_set():
                    store.spatial_candidates_batch(probe)
            except Exception as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            write()
        finally:
            done.set()
            thread.join(timeout=60)
        assert errors == []
        return store.spatial_candidates_batch(probe)[0]

    def test_reader_during_insert_does_not_pin_stale_snapshot(self):
        rng = random.Random(11)
        store = StrabonStore()
        triples = [box_triple(rng, k) for k in range(300)]

        def insert():
            for triple in triples:
                store.apply(inserts=[triple])

        found = self.probe_while(store, insert)
        assert found == brute_force(triples, Envelope(0, 0, 200, 200))

    def test_reader_during_remove_does_not_pin_stale_snapshot(self):
        store, triples = build_store(n=300, seed=12)
        removed = triples[::2]

        def remove():
            for triple in removed:
                store.apply(deletes=[triple])

        found = self.probe_while(store, remove)
        assert found == brute_force(triples[1::2], Envelope(0, 0, 200, 200))


class TestPackedEnvelopes:
    def test_pack_roundtrip(self):
        rng = random.Random(3)
        envs = [random_envelope(rng) for _ in range(25)]
        packed = PackedEnvelopes.pack(envs)
        assert len(packed) == 25
        assert packed.unpack() == envs
        assert packed.get(7) == envs[7]

    def test_intersects_matches_envelope(self):
        rng = random.Random(4)
        envs = [random_envelope(rng) for _ in range(200)]
        packed = PackedEnvelopes.pack(envs)
        for probe in [
            random_envelope(rng, max_side=20.0) for _ in range(30)
        ]:
            mask = packed.intersects(probe)
            expected = [e.intersects(probe) for e in envs]
            assert mask.tolist() == expected
            assert packed.intersecting(probe).tolist() == [
                i for i, hit in enumerate(expected) if hit
            ]

    def test_concat(self):
        rng = random.Random(6)
        envs = [random_envelope(rng) for _ in range(12)]
        head = PackedEnvelopes.pack(envs[:5])
        joined = head.concat(PackedEnvelopes.pack(envs[5:]))
        assert joined.unpack() == envs
        assert len(head) == 5  # the operands are not modified
        assert PackedEnvelopes.pack([]).concat(head).unpack() == envs[:5]

    def test_empty_probe_hits_nothing(self):
        packed = PackedEnvelopes.pack(
            [Envelope(0, 0, 1, 1), Envelope(2, 2, 3, 3)]
        )
        assert not packed.intersects(Envelope.empty()).any()
        assert packed.intersecting(Envelope.empty()).size == 0

    def test_empty_member_never_hits(self):
        packed = PackedEnvelopes.pack(
            [Envelope.empty(), Envelope(0, 0, 10, 10)]
        )
        mask = packed.intersects(Envelope(-1, -1, 20, 20))
        assert mask.tolist() == [False, True]

    def test_union_envelope(self):
        packed = PackedEnvelopes.pack(
            [Envelope(0, 0, 1, 1), Envelope(5, -2, 6, 3)]
        )
        assert packed.union_envelope() == Envelope(0, -2, 6, 3)

    def test_contains_points(self):
        packed = PackedEnvelopes.pack(
            [Envelope(0, 0, 2, 2), Envelope(10, 10, 12, 12)]
        )
        inside = packed.contains_points([1.0, 11.0], [1.0, 11.0])
        assert inside.shape == (2, 2)
        assert inside.tolist() == [[True, False], [False, True]]

    def test_length_mismatch_rejected(self):
        import numpy as np

        with pytest.raises(ValueError):
            PackedEnvelopes(
                np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2)
            )

    def test_distance_matches_envelope_within_one_ulp(self):
        import math

        import numpy as np

        rng = random.Random(5)
        envs = [random_envelope(rng) for _ in range(150)]
        envs.append(Envelope.empty())
        packed = PackedEnvelopes.pack(envs)
        for probe in [
            random_envelope(rng, max_side=20.0) for _ in range(20)
        ]:
            got = packed.distance(probe)
            expected = [e.distance(probe) for e in envs]
            # np.hypot and math.hypot may disagree in the last ulp;
            # zero and inf must still be exact.
            for g, e in zip(got.tolist(), expected):
                if e == 0.0 or math.isinf(e):
                    assert g == e
                else:
                    assert (
                        np.nextafter(e, 0.0) <= g <= np.nextafter(e, np.inf)
                    )

    def test_distance_to_empty_probe_is_inf(self):
        import numpy as np

        packed = PackedEnvelopes.pack(
            [Envelope(0, 0, 1, 1), Envelope(2, 2, 3, 3)]
        )
        assert np.isinf(packed.distance(Envelope.empty())).all()

    def test_distance_zero_when_intersecting(self):
        packed = PackedEnvelopes.pack(
            [Envelope(0, 0, 4, 4), Envelope(10, 0, 12, 2)]
        )
        dist = packed.distance(Envelope(3, 3, 11, 5))
        assert dist[0] == 0.0
        assert dist[1] > 0.0
