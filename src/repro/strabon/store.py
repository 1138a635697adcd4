"""The Strabon store: stRDF triples plus a spatial index.

Triples live once, in in-memory permutation indexes
(:class:`repro.rdf.Graph`), and a packed column of geometry literals'
envelopes, with tombstones for removed literals, accelerates spatial
selections.  The paper's Strabon keeps its triples in MonetDB; here
they are not yet dictionary-encoded id columns.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from repro import faults, obs, resilience
from repro.cache import LRUCache
from repro.geometry import Envelope, PackedEnvelopes
from repro.rdf.graph import Graph, Triple
from repro.rdf.term import Literal, RDFTerm
from repro.rdf.turtle import parse_turtle, serialize_turtle
from repro.rdf.ntriples import parse_ntriples, serialize_ntriples
from repro.strabon import strdf
from repro.strabon.stsparql import algebra as alg
from repro.strabon.stsparql.errors import StSPARQLError
from repro.strabon.stsparql.evaluator import Evaluator
from repro.strabon.stsparql.parser import parse_query, parse_update
from repro.strabon.stsparql.results import (
    AskResult,
    ConstructResult,
    SelectResult,
)

QueryResult = Union[SelectResult, AskResult, ConstructResult]


class StrabonStore:
    """A semantic geospatial triple store queryable with stSPARQL.

    ``use_spatial_index=False`` disables the spatial index pre-filter
    (used by benchmark A1 to measure the index's effect).

    The spatial index is a packed envelope column: one slot per distinct
    indexed geometry literal, a live bit per slot, and an unpacked tail
    of literals added since the last probe.  :meth:`apply` appends an
    inserted literal to the tail and clears a deleted literal's live
    bit, both O(1) per triple.  A probe first
    folds the index: it packs the tail onto the column, and compacts the
    column once dead slots pass half of it.  Each probe envelope is then
    one vectorised ``intersects & live`` pass over the column.
    """

    def __init__(self, use_spatial_index: bool = True):
        self.use_spatial_index = use_spatial_index
        self._graph = Graph()
        # Monotonic data version, bumped once per applied delta.
        # Continuation tokens (repro.server) embed it so a suspended query
        # can never resume its scan cursors against a store that changed
        # under it.
        self.version = 0
        # Spatial index (see the class docstring).  The store lock
        # serialises writes (graph, version, refcounts, index) and folds,
        # so callers may apply deltas from several threads.
        self._lock = threading.Lock()
        self._reset_index()
        # Performance layer: prepared-plan cache (query text → parsed
        # algebra) and geometry-literal interner (WKT literal → parsed
        # geometry + envelope), both shared across queries.
        self.plan_cache = LRUCache(maxsize=256, name="strabon.plan_cache")
        self.geometries = strdf.GeometryInterner()
        # Updates retry a transiently refused write (``strabon.update``).
        self.retry_policy = resilience.DEFAULT_RETRY

    # -- storage ------------------------------------------------------------

    def set_version_floor(self, floor: int) -> None:
        """Raise :attr:`version` to at least ``floor``.

        Used by durable deployments after a restart: the floor encodes
        the persisted store *generation*, so continuation tokens minted
        against any earlier process (which embed the old version) can
        never validate against the reloaded store — even though the
        in-memory counter itself restarts from zero.
        """
        if floor > self.version:
            self.version = int(floor)

    def apply(
        self,
        deletes: Iterable[Triple] = (),
        inserts: Iterable[Triple] = (),
    ) -> Tuple[int, int]:
        """The store's one write unit: remove ``deletes``, then add
        ``inserts``; returns ``(removed, added)``, each triple counted by
        its effect.

        Both iterables are read under one hold of the lock, so
        ``apply(deletes=store.triples(pattern))`` is an atomic pattern
        delete.  An ill-formed insert raises ``TermError`` before
        anything changes.  :attr:`version` is bumped once, if anything
        changed.
        """
        with self._lock:
            # Materialised first: a pattern delete reads the graph it
            # changes.
            deletes = list(deletes)
            inserts = [Graph._validate(t) for t in inserts]
            graph = self._graph
            removed = added = 0
            for triple in deletes:
                if graph.discard(triple):
                    removed += 1
                    if strdf.is_geometry_literal(triple[2]):
                        self._unindex_geometry(triple[2])
            for triple in inserts:
                if graph.add(triple):
                    added += 1
                    if strdf.is_geometry_literal(triple[2]):
                        self._index_geometry(triple[2])
            if removed or added:
                self.version += 1
            return removed, added

    def _reset_index(self) -> None:
        self._column = PackedEnvelopes.pack([])
        self._literals: List[RDFTerm] = []
        self._live = np.zeros(0, dtype=bool)
        # Literal → slot, for live literals only.  A slot at or past
        # ``len(self._literals)`` is a tail position not yet folded.
        self._slots: Dict[RDFTerm, int] = {}
        self._tail: List[Tuple[Envelope, RDFTerm]] = []
        self._dead = 0
        self._geo_refcount: Dict[RDFTerm, int] = {}

    def _index_geometry(self, literal: Literal) -> None:
        """Count one more reference; a new literal joins the tail.
        Caller holds ``_lock``."""
        count = self._geo_refcount.get(literal, 0)
        self._geo_refcount[literal] = count + 1
        if count > 0:
            return
        try:
            env = self.geometries.envelope(literal)
        except strdf.StRDFError:
            return  # malformed WKT: stored but not spatially indexed
        if env.is_empty:
            return
        self._slots[literal] = len(self._literals) + len(self._tail)
        self._tail.append((env, literal))

    def _unindex_geometry(self, literal: Literal) -> None:
        """Drop one reference; the last clears the literal's live bit.
        Caller holds ``_lock``."""
        count = self._geo_refcount.get(literal, 0)
        if count > 1:
            self._geo_refcount[literal] = count - 1
            return
        self._geo_refcount.pop(literal, None)
        slot = self._slots.pop(literal, None)
        if slot is not None:
            if slot < len(self._literals):
                self._live[slot] = False
            # A tail slot dies when the fold finds it missing from
            # ``_slots``.
            self._dead += 1
        # Last reference gone: drop the interned parse to bound
        # memory (re-adding the literal re-parses it).
        self.geometries.discard(literal)

    def _fold_index(self) -> None:
        """Pack the tail onto the column; compact once more than half of
        the column is dead.  Caller holds ``_lock``."""
        if not self._tail and self._dead * 2 <= len(self._literals):
            return
        obs.counter("strabon.index.folds").inc()
        if self._tail:
            base = len(self._literals)
            envelopes, literals = zip(*self._tail)
            fresh = PackedEnvelopes.pack(envelopes)
            self._column = self._column.concat(fresh)
            # A tail entry is live unless its literal was removed (or
            # removed and re-added at a later tail position) since.
            live = [
                self._slots.get(lit) == base + k
                for k, lit in enumerate(literals)
            ]
            self._live = np.concatenate([self._live, live])
            self._literals.extend(literals)
            self._tail = []
        if self._dead * 2 > len(self._literals):
            keep = np.flatnonzero(self._live)
            self._column = self._column.take(keep)
            self._literals = [self._literals[i] for i in keep.tolist()]
            self._live = np.ones(len(self._literals), dtype=bool)
            self._slots = {lit: i for i, lit in enumerate(self._literals)}
            self._dead = 0

    def _probe(self, envelopes: List[Envelope]) -> List[Set[RDFTerm]]:
        with self._lock:
            self._fold_index()
            literals = self._literals
            found = []
            for envelope in envelopes:
                mask = self._column.intersects(envelope)
                mask &= self._live
                # tolist() converts indices to plain ints in one C pass.
                found.append(
                    {literals[i] for i in np.flatnonzero(mask).tolist()}
                )
            return found

    def spatial_candidates(
        self, envelope: Envelope
    ) -> Optional[Set[RDFTerm]]:
        """Geometry literals whose envelopes intersect ``envelope``.

        Returns None when the index is disabled (callers then fall back to
        unindexed evaluation).
        """
        if not self.use_spatial_index:
            return None
        return self._probe([envelope])[0]

    def spatial_candidates_batch(
        self, envelopes: List[Envelope]
    ) -> Optional[List[Set[RDFTerm]]]:
        """One candidate set per probe envelope (vectorised).

        Batch counterpart of :meth:`spatial_candidates`: the index is
        folded once, then each probe is one pass over the packed column,
        so a query with several indexable spatial FILTERs folds once.
        None when the index is disabled.
        """
        if not self.use_spatial_index:
            return None
        return self._probe(envelopes)

    # -- graph API ------------------------------------------------------------------

    def triples(self, pattern: Tuple = (None, None, None)) -> Iterator[Triple]:
        return self._graph.triples(pattern)

    def __len__(self) -> int:
        return len(self._graph)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._graph

    @property
    def graph(self) -> Graph:
        """The underlying in-memory graph (read-mostly)."""
        return self._graph

    def load_graph(self, triples: Iterable[Triple]) -> int:
        """Add ``triples`` (a :class:`Graph` or any iterable) as one
        :meth:`apply`; returns the count added.

        New geometry literals wait in the spatial index's tail until the
        next probe packs them in one fold.
        """
        return self.apply(inserts=triples)[1]

    def clear(self) -> None:
        """Remove every triple, resetting all indexes and caches.

        The spatial index is replaced wholesale; prepared plans survive
        (they do not depend on the data) but interned geometries are
        dropped.
        """
        with self._lock:
            self._graph.clear()
            self.version += 1
            self._reset_index()
            self.geometries.clear()

    def load_turtle(self, text: str) -> int:
        return self.load_graph(parse_turtle(text))

    def apply_reasoning(self, schema: Graph) -> int:
        """Materialise RDFS entailments of ``schema`` over the stored data.

        Makes concept-hierarchy queries work ("find NaturalHazard
        annotations" matches ForestFire patches).  Returns the number of
        entailed triples added.
        """
        from repro.rdf.rdfs import RDFSReasoner

        inferred = self._graph.copy()
        RDFSReasoner(schema).materialize(inferred)
        return self.load_graph(inferred)

    def load_ntriples(self, text: str) -> int:
        return self.load_graph(parse_ntriples(text))

    def serialize_turtle(self, prefixes=None) -> str:
        return serialize_turtle(self._graph, prefixes=prefixes)

    def serialize_ntriples(self) -> str:
        return serialize_ntriples(self._graph)

    # -- query / update ---------------------------------------------------------------

    def query(self, text: str) -> QueryResult:
        """Run an stSPARQL SELECT/ASK/CONSTRUCT query.

        Parsed plans are cached by query text (the algebra is immutable),
        so repeated queries skip lexing/parsing/translation entirely.
        """
        with obs.span("stsparql.parse"):
            parsed = self.plan_cache.get_or_compute(
                ("query", text), lambda: parse_query(text)
            )
        evaluator = Evaluator(self)
        obs.counter("stsparql.queries").inc()
        with obs.span("stsparql.query"):
            if isinstance(parsed, alg.SelectQuery):
                return evaluator.select(parsed)
            if isinstance(parsed, alg.AskQuery):
                return evaluator.ask(parsed)
            if isinstance(parsed, alg.ConstructQuery):
                return evaluator.construct(parsed)
            if isinstance(parsed, alg.DescribeQuery):
                return evaluator.describe(parsed)
            raise StSPARQLError(
                f"unsupported query {type(parsed).__name__}"
            )

    def update(self, text: str) -> int:
        """Run one or more stSPARQL update operations; returns the total
        number of triples added plus removed.

        Update plans are cached like query plans: the parsed operations
        are pure templates re-instantiated against current data on every
        call, so a cached plan can never replay stale solutions.

        The ``strabon.update`` injection point fires (retried) *before*
        any mutation, modelling a store that transiently refuses writes;
        a permanent fault surfaces before the update touches any triple.
        """
        resilience.call_with_retry(
            lambda: faults.maybe_fail("strabon.update"),
            self.retry_policy,
            label="strabon.update",
        )
        with obs.span("stsparql.parse"):
            ops = self.plan_cache.get_or_compute(
                ("update", text), lambda: parse_update(text)
            )
        evaluator = Evaluator(self)
        obs.counter("stsparql.updates").inc()
        with obs.span("stsparql.update"):
            return sum(evaluator.update(op) for op in ops)

    def __repr__(self) -> str:
        return (
            f"<StrabonStore triples={len(self)} "
            f"geometries={len(self._slots)}>"
        )
