"""Batched R-tree probes must reproduce per-envelope query() exactly."""

import random

import pytest

from repro.geometry import Envelope, PackedEnvelopes, RTree


def random_envelope(rng, span=100.0, max_side=6.0):
    x, y = rng.uniform(0, span), rng.uniform(0, span)
    w, h = rng.uniform(0, max_side), rng.uniform(0, max_side)
    return Envelope(x, y, x + w, y + h)


def build_trees(n=400, seed=17):
    """The same item set as an insert-built and an STR bulk-loaded tree."""
    rng = random.Random(seed)
    entries = [
        (random_envelope(rng), f"item-{k}") for k in range(n)
    ]
    incremental = RTree(max_entries=8)
    for env, item in entries:
        incremental.insert(env, item)
    packed = RTree.bulk_load(entries, max_entries=8)
    return incremental, packed


def probe_set(seed=99, n=60):
    rng = random.Random(seed)
    probes = [random_envelope(rng, max_side=15.0) for _ in range(n)]
    probes.append(Envelope(500, 500, 501, 501))  # guaranteed miss
    probes.append(Envelope(50, 50, 50, 50))  # degenerate point probe
    probes.append(Envelope.empty())
    return probes


class TestQueryBatchEquality:
    def test_matches_query_order_and_content(self):
        for tree in build_trees():
            probes = probe_set()
            batched = tree.query_batch(probes)
            assert batched == [tree.query(p) for p in probes]

    def test_empty_tree(self):
        tree = RTree()
        assert tree.query_batch(probe_set()) == [
            [] for _ in probe_set()
        ]

    def test_no_probes(self):
        tree, _ = build_trees(n=50)
        assert tree.query_batch([]) == []

    def test_snapshot_invalidated_by_insert(self):
        tree, _ = build_trees(n=100)
        probe = Envelope(0, 0, 100, 100)
        before = tree.query_batch([probe])[0]
        tree.insert(Envelope(10, 10, 11, 11), "fresh")
        after = tree.query_batch([probe])[0]
        assert "fresh" in after
        assert after == tree.query(probe)
        assert len(after) == len(before) + 1

    def test_snapshot_invalidated_by_remove(self):
        tree, _ = build_trees(n=100)
        probe = Envelope(0, 0, 100, 100)
        tree.query_batch([probe])  # warm the packed snapshot
        rng = random.Random(17)
        env = random_envelope(rng)
        assert tree.remove(env, "item-0")
        after = tree.query_batch([probe])[0]
        assert "item-0" not in after
        assert after == tree.query(probe)

    def test_snapshot_reused_until_mutation(self):
        tree, _ = build_trees(n=100)
        first = tree.packed_entries()
        assert tree.packed_entries() is first
        tree.insert(Envelope(1, 1, 2, 2), "new")
        assert tree.packed_entries() is not first


class TestSnapshotConcurrencyRegression:
    """A reader that rebuilds the packed snapshot while a structural
    mutation is mid-flight must not pin a permanently stale snapshot.

    The pre-fix code invalidated the snapshot *before* mutating, so a
    concurrent ``packed_entries()`` call landing inside the mutation
    re-cached the pre-mutation item set — and nothing ever cleared it
    again.  These tests force a reader into exactly that window.
    """

    def test_reader_during_insert_does_not_pin_stale_snapshot(self):
        class ReaderDuringInsert(RTree):
            def _insert(self, node, envelope, item):
                if node is self._root:
                    # A concurrent query_batch rebuilding the snapshot
                    # while this insert is structurally mid-flight.
                    self.packed_entries()
                return super()._insert(node, envelope, item)

        rng = random.Random(11)
        tree = ReaderDuringInsert(max_entries=8)
        for k in range(60):
            tree.insert(random_envelope(rng), f"item-{k}")
        probe = Envelope(0, 0, 200, 200)
        tree.query_batch([probe])  # warm the snapshot
        tree.insert(Envelope(40, 40, 41, 41), "mid-flight")
        found = tree.query_batch([probe])[0]
        assert "mid-flight" in found
        assert sorted(found) == sorted(tree.query(probe))

    def test_reader_during_remove_does_not_pin_stale_snapshot(self):
        tree_ref = {}

        class Spy:
            """An item whose equality check (hit by remove's leaf-entry
            filtering) doubles as a concurrent snapshot reader."""

            def __init__(self, label):
                self.label = label

            def __eq__(self, other):
                tree = tree_ref.get("tree")
                if tree is not None:
                    tree.packed_entries()
                return isinstance(other, Spy) and other.label == self.label

            def __hash__(self):
                return hash(self.label)

        rng = random.Random(12)
        tree = RTree(max_entries=8)
        entries = [
            (random_envelope(rng), Spy(f"item-{k}")) for k in range(40)
        ]
        for env, item in entries:
            tree.insert(env, item)
        probe = Envelope(0, 0, 200, 200)
        tree.query_batch([probe])  # warm the snapshot
        tree_ref["tree"] = tree
        env0, item0 = entries[0]
        assert tree.remove(env0, item0)
        tree_ref.clear()
        labels = {s.label for s in tree.query_batch([probe])[0]}
        assert "item-0" not in labels
        assert labels == {s.label for s in tree.query(probe)}


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
