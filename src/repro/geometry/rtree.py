"""R-tree spatial index.

Supports both incremental insertion (Guttman's quadratic-split R-tree) and
Sort-Tile-Recursive (STR) bulk loading.  The Strabon store uses it to
accelerate stSPARQL spatial filters; benchmark ``A1`` measures exactly this
index against a full scan.

For *batch* spatial filtering (many probe envelopes against one tree —
the shape of a spatial FILTER applied across many solutions),
:meth:`RTree.query_batch` snapshots every leaf entry into packed numpy
envelope arrays (:class:`repro.geometry.envelope.PackedEnvelopes`) and
answers each probe with one vectorised intersection pass.  Results are
identical to per-probe :meth:`RTree.query` calls, including item order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.geometry.envelope import Envelope, PackedEnvelopes


class _Node:
    __slots__ = ("leaf", "entries", "envelope")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        # Leaf entries: (Envelope, item); inner entries: (Envelope, _Node).
        self.entries: List[Tuple[Envelope, Any]] = []
        self.envelope = Envelope.empty()

    def recompute_envelope(self) -> None:
        env = Envelope.empty()
        for e, _ in self.entries:
            env = env.union(e)
        self.envelope = env


class RTree:
    """A 2-D R-tree over ``(envelope, item)`` pairs.

    ``max_entries`` is the node fan-out (M); ``min_entries`` defaults to
    ``M // 2``.
    """

    def __init__(self, max_entries: int = 8):
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        self._max = max_entries
        self._min = max(2, max_entries // 2)
        self._root = _Node(leaf=True)
        self._size = 0
        # Packed leaf-entry snapshot for query_batch, built lazily and
        # dropped on any structural mutation.
        self._packed: Optional[Tuple[PackedEnvelopes, List[Any]]] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def bulk_load(
        cls,
        items: Iterable[Tuple[Envelope, Any]],
        max_entries: int = 8,
    ) -> "RTree":
        """Build a packed tree with Sort-Tile-Recursive loading.

        Always returns a *fresh* tree (callers replacing an existing
        index swap the reference), so its packed snapshot starts
        vacuously unset — there is no pre-existing ``query_batch``
        snapshot to go stale.
        """
        tree = cls(max_entries=max_entries)
        entries = [(env, item) for env, item in items]
        tree._size = len(entries)
        if not entries:
            return tree
        leaves = tree._str_pack(
            [(env, item) for env, item in entries], leaf=True
        )
        level = leaves
        while len(level) > 1:
            level = tree._str_pack(
                [(node.envelope, node) for node in level], leaf=False
            )
        tree._root = level[0]
        return tree

    def _str_pack(
        self, entries: List[Tuple[Envelope, Any]], leaf: bool
    ) -> List[_Node]:
        import math

        cap = self._max
        n = len(entries)
        n_nodes = max(1, math.ceil(n / cap))
        n_slices = max(1, math.ceil(math.sqrt(n_nodes)))
        per_slice = math.ceil(n / n_slices)
        entries = sorted(
            entries, key=lambda e: (e[0].minx + e[0].maxx) / 2.0
        )
        nodes: List[_Node] = []
        for i in range(0, n, per_slice):
            chunk = sorted(
                entries[i : i + per_slice],
                key=lambda e: (e[0].miny + e[0].maxy) / 2.0,
            )
            for j in range(0, len(chunk), cap):
                node = _Node(leaf=leaf)
                node.entries = list(chunk[j : j + cap])
                node.recompute_envelope()
                nodes.append(node)
        return nodes

    # -- mutation ------------------------------------------------------------

    def insert(self, envelope: Envelope, item: Any) -> None:
        """Insert an item under its envelope."""
        if envelope.is_empty:
            raise ValueError("cannot index an empty envelope")
        split = self._insert(self._root, envelope, item)
        if split is not None:
            old_root = self._root
            self._root = _Node(leaf=False)
            self._root.entries = [
                (old_root.envelope, old_root),
                (split.envelope, split),
            ]
            self._root.recompute_envelope()
        self._size += 1
        # Invalidate the packed snapshot AFTER the structural work: a
        # reader that rebuilds the snapshot while the mutation is
        # mid-flight (a caller's reader thread can race tree maintenance
        # exactly this way) would otherwise re-cache a stale snapshot
        # that nothing ever clears again.
        self._packed = None

    def _insert(
        self, node: _Node, envelope: Envelope, item: Any
    ) -> Optional[_Node]:
        node.envelope = node.envelope.union(envelope)
        if node.leaf:
            node.entries.append((envelope, item))
            if len(node.entries) > self._max:
                return self._split(node)
            return None
        best_index = self._choose_subtree(node, envelope)
        child = node.entries[best_index][1]
        split = self._insert(child, envelope, item)
        node.entries[best_index] = (child.envelope, child)
        if split is not None:
            node.entries.append((split.envelope, split))
            if len(node.entries) > self._max:
                return self._split(node)
        return None

    def _choose_subtree(self, node: _Node, envelope: Envelope) -> int:
        best_index = 0
        best_cost = None
        for i, (env, _) in enumerate(node.entries):
            cost = (env.enlargement(envelope), env.area)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_index = i
        return best_index

    def _split(self, node: _Node) -> _Node:
        """Guttman quadratic split; ``node`` keeps one group, the new node
        gets the other."""
        entries = node.entries
        # Pick the pair wasting the most area as seeds.
        worst = -1.0
        seed_a = 0
        seed_b = 1
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                combined = entries[i][0].union(entries[j][0])
                waste = (
                    combined.area - entries[i][0].area - entries[j][0].area
                )
                if waste > worst:
                    worst = waste
                    seed_a, seed_b = i, j
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        env_a = entries[seed_a][0]
        env_b = entries[seed_b][0]
        remaining = [
            e for k, e in enumerate(entries) if k not in (seed_a, seed_b)
        ]
        while remaining:
            # Force-assign when one group must take all the rest.
            if len(group_a) + len(remaining) == self._min:
                group_a.extend(remaining)
                for env, _ in remaining:
                    env_a = env_a.union(env)
                break
            if len(group_b) + len(remaining) == self._min:
                group_b.extend(remaining)
                for env, _ in remaining:
                    env_b = env_b.union(env)
                break
            # Pick the entry with maximum preference difference.
            best_index = 0
            best_diff = -1.0
            for i, (env, _) in enumerate(remaining):
                d1 = env_a.enlargement(env)
                d2 = env_b.enlargement(env)
                diff = abs(d1 - d2)
                if diff > best_diff:
                    best_diff = diff
                    best_index = i
            env, payload = remaining.pop(best_index)
            if env_a.enlargement(env) <= env_b.enlargement(env):
                group_a.append((env, payload))
                env_a = env_a.union(env)
            else:
                group_b.append((env, payload))
                env_b = env_b.union(env)
        node.entries = group_a
        node.recompute_envelope()
        sibling = _Node(leaf=node.leaf)
        sibling.entries = group_b
        sibling.recompute_envelope()
        return sibling

    def remove(self, envelope: Envelope, item: Any) -> bool:
        """Remove one ``(envelope, item)`` entry; returns success.

        Uses the condense-and-reinsert strategy: underfull nodes on the
        removal path are dissolved and their entries reinserted.
        """
        path: List[_Node] = []
        leaf = self._find_leaf(self._root, envelope, item, path)
        if leaf is None:
            return False
        leaf.entries = [
            (env, it)
            for env, it in leaf.entries
            if not (it == item and env == envelope)
        ]
        self._size -= 1
        orphans: List[Tuple[Envelope, Any]] = []
        self._condense(path, orphans)
        for env, it in orphans:
            self._size -= 1  # reinsert re-increments
            self.insert(env, it)
        # Shrink the root if it became a single-child inner node.
        while not self._root.leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0][1]
        # Invalidate last (see insert): entry filtering, condensation and
        # orphan reinsertion are all structural; a snapshot rebuilt by a
        # concurrent reader at any point in between must not survive the
        # removal.
        self._packed = None
        return True

    def _find_leaf(
        self,
        node: _Node,
        envelope: Envelope,
        item: Any,
        path: List[_Node],
    ) -> Optional[_Node]:
        path.append(node)
        if node.leaf:
            for env, it in node.entries:
                if it == item and env == envelope:
                    return node
            path.pop()
            return None
        for env, child in node.entries:
            if env.contains(envelope):
                found = self._find_leaf(child, envelope, item, path)
                if found is not None:
                    return found
        path.pop()
        return None

    def _condense(
        self, path: List[_Node], orphans: List[Tuple[Envelope, Any]]
    ) -> None:
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            if len(node.entries) < self._min and node is not self._root:
                parent.entries = [
                    (env, child)
                    for env, child in parent.entries
                    if child is not node
                ]
                self._collect_entries(node, orphans)
            else:
                node.recompute_envelope()
                parent.entries = [
                    (child.envelope if child is node else env, child)
                    for env, child in parent.entries
                ]
        path[0].recompute_envelope()

    def _collect_entries(
        self, node: _Node, out: List[Tuple[Envelope, Any]]
    ) -> None:
        if node.leaf:
            out.extend(node.entries)
            return
        for _, child in node.entries:
            self._collect_entries(child, out)

    # -- queries -------------------------------------------------------------

    def query(self, envelope: Envelope) -> List[Any]:
        """All items whose envelopes intersect ``envelope``."""
        return list(self.iter_query(envelope))

    def iter_query(self, envelope: Envelope) -> Iterator[Any]:
        """Lazily yield items whose envelopes intersect ``envelope``."""
        if envelope.is_empty or self._size == 0:
            return
        visits = 0
        try:
            stack = [self._root]
            while stack:
                node = stack.pop()
                visits += 1
                if not node.envelope.intersects(envelope):
                    continue
                if node.leaf:
                    for env, item in node.entries:
                        if env.intersects(envelope):
                            yield item
                else:
                    for env, child in node.entries:
                        if env.intersects(envelope):
                            stack.append(child)
        finally:
            # Flushed even when the consumer abandons the generator, so
            # partial walks are still accounted.
            obs.counter("rtree.query.calls").inc()
            obs.counter("rtree.query.node_visits").inc(visits)

    def query_point(self, x: float, y: float) -> List[Any]:
        """All items whose envelopes contain the point."""
        return self.query(Envelope.of_point(x, y))

    def packed_entries(self) -> Tuple[PackedEnvelopes, List[Any]]:
        """Every leaf entry as (packed envelopes, parallel item list).

        The snapshot is ordered exactly as :meth:`iter_query` visits
        entries (both walk the same DFS stack), cached until the next
        structural mutation.
        """
        if self._packed is None:
            envelopes: List[Envelope] = []
            items: List[Any] = []
            for env, item in self.items():
                envelopes.append(env)
                items.append(item)
            self._packed = (PackedEnvelopes.pack(envelopes), items)
            obs.counter("rtree.snapshot.rebuilds").inc()
        return self._packed

    def query_batch(
        self,
        envelopes: Sequence[Envelope],
    ) -> List[List[Any]]:
        """Batch query: one result list per probe envelope.

        Equivalent to ``[self.query(e) for e in envelopes]`` (same items,
        same order) but each probe is a vectorised intersection test over
        the packed leaf snapshot.
        """
        envelopes = list(envelopes)
        if not envelopes:
            return []
        obs.counter("rtree.query_batch.calls").inc()
        obs.counter("rtree.query_batch.probes").inc(len(envelopes))
        if self._size == 0:
            return [[] for _ in envelopes]
        packed, items = self.packed_entries()

        def probe(envelope: Envelope) -> List[Any]:
            # tolist() converts indices to plain ints in one C pass —
            # iterating numpy scalars dominates this loop otherwise.
            hits = packed.intersecting(envelope).tolist()
            return [items[i] for i in hits]

        return [probe(envelope) for envelope in envelopes]

    def nearest(
        self,
        x: float,
        y: float,
        k: int = 1,
        max_distance: float = float("inf"),
    ) -> List[Any]:
        """The ``k`` items with minimum envelope distance to ``(x, y)``.

        Distance is measured to item envelopes; callers needing exact
        geometry distances should over-fetch and re-rank.
        """
        if self._size == 0 or k <= 0:
            return []
        probe = Envelope.of_point(x, y)
        counter = itertools.count()
        heap: List[Tuple[float, int, bool, Any]] = [
            (self._root.envelope.distance(probe), next(counter), False, self._root)
        ]
        results: List[Any] = []
        while heap and len(results) < k:
            dist, _, is_item, payload = heapq.heappop(heap)
            if dist > max_distance:
                break
            if is_item:
                results.append(payload)
                continue
            node: _Node = payload
            for env, child in node.entries:
                heapq.heappush(
                    heap,
                    (env.distance(probe), next(counter), node.leaf, child),
                )
        return results

    def items(self) -> Iterator[Tuple[Envelope, Any]]:
        """Yield every indexed (envelope, item) pair."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                yield from node.entries
            else:
                stack.extend(child for _, child in node.entries)

    @property
    def envelope(self) -> Envelope:
        """Envelope of everything indexed."""
        return self._root.envelope

    def __len__(self) -> int:
        return self._size

    def height(self) -> int:
        """Tree height (1 for a leaf-only tree)."""
        h = 1
        node = self._root
        while not node.leaf:
            h += 1
            node = node.entries[0][1]
        return h
