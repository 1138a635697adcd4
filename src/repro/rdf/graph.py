"""An indexed in-memory RDF graph.

Triples are held in three permutation indexes (SPO, POS, OSP) so that any
triple pattern with at least one bound position resolves through a hash
lookup instead of a scan — the same access-path idea MonetDB's BATs give
Strabon on the relational side.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.rdf.term import BNode, Literal, RDFTerm, TermError, URIRef

Triple = Tuple[RDFTerm, RDFTerm, RDFTerm]

_Index = Dict[RDFTerm, Dict[RDFTerm, Set[RDFTerm]]]


def _index_add(index: _Index, a: RDFTerm, b: RDFTerm, c: RDFTerm) -> None:
    index.setdefault(a, {}).setdefault(b, set()).add(c)


def _index_remove(index: _Index, a: RDFTerm, b: RDFTerm, c: RDFTerm) -> None:
    inner = index[a]
    bucket = inner[b]
    bucket.remove(c)
    if not bucket:
        del inner[b]
        if not inner:
            del index[a]


class Graph:
    """A set of RDF triples with pattern-matching access.

    ``None`` acts as a wildcard in :meth:`triples` patterns, mirroring
    rdflib's API.
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None):
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        self._size = 0
        # Per-term occurrence counts, kept so one-bound-position
        # cardinality estimates are O(1) instead of a bucket sum.
        self._s_count: Dict[RDFTerm, int] = {}
        self._p_count: Dict[RDFTerm, int] = {}
        self._o_count: Dict[RDFTerm, int] = {}
        if triples:
            for t in triples:
                self.add(t)

    # -- mutation ------------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Insert a triple; returns True when it was new."""
        s, p, o = self._validate(triple)
        if self.__contains__((s, p, o)):
            return False
        _index_add(self._spo, s, p, o)
        _index_add(self._pos, p, o, s)
        _index_add(self._osp, o, s, p)
        self._s_count[s] = self._s_count.get(s, 0) + 1
        self._p_count[p] = self._p_count.get(p, 0) + 1
        self._o_count[o] = self._o_count.get(o, 0) + 1
        self._size += 1
        return True

    def discard(self, triple: Triple) -> bool:
        """Delete one ground triple; returns True when it was present."""
        s, p, o = triple
        if not self.__contains__(triple):
            return False
        _index_remove(self._spo, s, p, o)
        _index_remove(self._pos, p, o, s)
        _index_remove(self._osp, o, s, p)
        for counts, term in (
            (self._s_count, s), (self._p_count, p), (self._o_count, o)
        ):
            counts[term] -= 1
            if not counts[term]:
                del counts[term]
        self._size -= 1
        return True

    def remove(self, pattern: Tuple) -> int:
        """Delete every triple matching the (possibly wildcard) pattern;
        returns the number removed."""
        victims = list(self.triples(pattern))
        for triple in victims:
            self.discard(triple)
        return len(victims)

    def clear(self) -> None:
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()
        self._s_count.clear()
        self._p_count.clear()
        self._o_count.clear()
        self._size = 0

    @staticmethod
    def _validate(triple: Triple) -> Triple:
        if len(triple) != 3:
            raise TermError(f"a triple needs 3 terms, got {len(triple)}")
        s, p, o = triple
        if not isinstance(s, (URIRef, BNode)):
            raise TermError(f"subject must be IRI or blank node: {s!r}")
        if not isinstance(p, URIRef):
            raise TermError(f"predicate must be an IRI: {p!r}")
        if not isinstance(o, (URIRef, BNode, Literal)):
            raise TermError(f"object must be IRI, blank node or literal: {o!r}")
        return s, p, o

    # -- access ----------------------------------------------------------------

    def triples(
        self, pattern: Tuple = (None, None, None)
    ) -> Iterator[Triple]:
        """Yield triples matching ``(s, p, o)`` where ``None`` is a wildcard.

        The best permutation index for the bound positions is chosen
        automatically.
        """
        s, p, o = pattern
        if s is not None and p is not None:
            objs = self._spo.get(s, {}).get(p, ())
            if o is not None:
                if o in objs:
                    yield (s, p, o)
                return
            for obj in list(objs):
                yield (s, p, obj)
            return
        if p is not None and o is not None:
            for subj in list(self._pos.get(p, {}).get(o, ())):
                yield (subj, p, o)
            return
        if s is not None and o is not None:
            for pred in list(self._osp.get(o, {}).get(s, ())):
                yield (s, pred, o)
            return
        if s is not None:
            for pred, objs in list(self._spo.get(s, {}).items()):
                for obj in list(objs):
                    yield (s, pred, obj)
            return
        if p is not None:
            for obj, subjs in list(self._pos.get(p, {}).items()):
                for subj in list(subjs):
                    yield (subj, p, obj)
            return
        if o is not None:
            for subj, preds in list(self._osp.get(o, {}).items()):
                for pred in list(preds):
                    yield (subj, pred, o)
            return
        for subj, po in list(self._spo.items()):
            for pred, objs in list(po.items()):
                for obj in list(objs):
                    yield (subj, pred, obj)

    def count_estimate(self, pattern: Tuple = (None, None, None)) -> int:
        """Exact match count for a triple pattern, without materialising.

        Resolved through the same permutation indexes as :meth:`triples`:
        two bound positions cost one hash lookup, one bound position a
        sum over that key's second-level buckets.  Query planners (the
        stSPARQL BGP join orderer) use this as a selectivity estimate to
        pick join orders; it is "cheap" in that no triples are built.
        """
        s, p, o = pattern
        if s is not None and p is not None:
            objs = self._spo.get(s, {}).get(p, ())
            if o is not None:
                return 1 if o in objs else 0
            return len(objs)
        if p is not None and o is not None:
            return len(self._pos.get(p, {}).get(o, ()))
        if s is not None and o is not None:
            return len(self._osp.get(o, {}).get(s, ()))
        if s is not None:
            return self._s_count.get(s, 0)
        if p is not None:
            return self._p_count.get(p, 0)
        if o is not None:
            return self._o_count.get(o, 0)
        return self._size

    def subjects(self, predicate=None, obj=None) -> Iterator[RDFTerm]:
        seen = set()
        for s, _, _ in self.triples((None, predicate, obj)):
            if s not in seen:
                seen.add(s)
                yield s

    def objects(self, subject=None, predicate=None) -> Iterator[RDFTerm]:
        seen = set()
        for _, _, o in self.triples((subject, predicate, None)):
            if o not in seen:
                seen.add(o)
                yield o

    def predicates(self, subject=None, obj=None) -> Iterator[RDFTerm]:
        seen = set()
        for _, p, _ in self.triples((subject, None, obj)):
            if p not in seen:
                seen.add(p)
                yield p

    def value(self, subject=None, predicate=None, obj=None):
        """The single term completing the pattern, or None.

        Exactly one of the three positions must be None.
        """
        wildcards = [subject is None, predicate is None, obj is None]
        if sum(wildcards) != 1:
            raise TermError("value() needs exactly one wildcard position")
        for s, p, o in self.triples((subject, predicate, obj)):
            if subject is None:
                return s
            if predicate is None:
                return p
            return o
        return None

    # -- protocol ---------------------------------------------------------------

    def __contains__(self, triple: Triple) -> bool:
        s, p, o = triple
        return o in self._spo.get(s, {}).get(p, ())

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return len(self) == len(other) and all(t in other for t in self)

    def copy(self) -> "Graph":
        return Graph(self.triples())

    def __repr__(self) -> str:
        return f"<Graph with {self._size} triples>"
