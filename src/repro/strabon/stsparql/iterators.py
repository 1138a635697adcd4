"""Resumable (preemptable) stSPARQL iterator pipeline.

The recursive :class:`~repro.strabon.stsparql.evaluator.Evaluator`
materialises the full solution list before it returns — fine for batch
work, fatal for a multi-tenant serving tier where one adversarial scan
would hold the worker for its whole runtime.  This module decomposes
SELECT evaluation into a pipeline of *pull* iterators (the sage-engine
model):

    nested-loop join (one scan frame per triple pattern)
        → filter (one per FILTER) → projection → distinct → slice

that can be *suspended* at any solution boundary and resumed later, so a
query executes in bounded time slices: run for a quantum,
:meth:`PipelineIterator.drain` the rows already computed into the page,
:meth:`PipelineIterator.save` what is left — a few integers — into a
continuation, and resume from exactly that point with
:func:`restore_pipeline`.

Design points:

* **A suspension point costs O(plan size), not O(buffered rows).**  The
  saved state is one cursor per scan frame, the OFFSET/LIMIT counters
  and (DISTINCT only) the seen-key set.  No solution is ever written
  into a continuation: each frame's current solution is re-derived on
  restore from its parent frame's match list at ``cursor - 1``, and
  rows a filter has judged but not yet emitted are *drained* into the
  page being returned instead of being saved.
* **Batched filters.**  :class:`FilterIterator` pulls child solutions in
  batches and judges each batch through
  :meth:`Evaluator._filter_solutions`, so the compiled FILTER kernels
  and the batched spatial lane of :mod:`repro.kernels` run per batch
  inside the preemptable pipeline instead of being bypassed by it.
* **Deterministic replay.**  Cursors index deterministically ordered
  match lists (store iteration order plus n3-sorted spatial-hint
  candidates), which is only sound while the store is unchanged; tokens
  therefore embed :attr:`repro.strabon.StrabonStore.version` and
  resumption against a mutated store is refused by the serving tier.
* **Static plan, computed once.**  Join order is fixed from the same
  cardinality estimates the recursive evaluator uses dynamically, so a
  restored pipeline always rebuilds the identical operator tree; the
  plan (flattened conjunction, spatial hints, join order, sorted hint
  lists) is cached in ``store.plan_cache`` per (query, store version,
  index flag), so a page pays for it once per query, not once per page.
* **Partial coverage, explicit fallback.**  :func:`build_select_pipeline`
  returns None for queries using operators with no streaming form here
  (aggregation, ORDER BY, OPTIONAL/UNION/BIND/VALUES, property paths,
  projection expressions, an empty basic graph pattern); the serving
  tier runs those through the one-shot evaluator instead.  Results for
  supported queries are verified identical to the one-shot evaluator by
  the differential lane in :mod:`repro.testkit.differential`.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.rdf.term import RDFTerm, Variable
from repro.strabon.stsparql import algebra as alg
from repro.strabon.stsparql.errors import StSPARQLError
from repro.strabon.stsparql.evaluator import (
    Evaluator,
    Solution,
    _expr_has_aggregate,
    _expr_vars,
    _triple_vars,
)

__all__ = [
    "ContinuationError",
    "FILTER_BATCH_ROWS",
    "PipelineIterator",
    "build_select_pipeline",
    "pipeline_variables",
    "restore_pipeline",
    "supports_query",
]

#: Child solutions pulled per filter batch — large enough that the
#: compiled kernel lane and the batched spatial lane amortise.  It is also
#: the most rows a drain can add to a page per stacked filter.
FILTER_BATCH_ROWS = 256


class ContinuationError(StSPARQLError):
    """A continuation cannot be minted or restored (malformed, stale or
    oversized state)."""


def _state_ints(state: Dict[str, Any], key: str) -> List[int]:
    """``state[key]`` as a list of non-negative integers, or fail closed
    (JSON booleans are ints to Python; a continuation never holds one)."""
    values = state[key]
    if not isinstance(values, list) or not all(
        type(v) is int and v >= 0 for v in values
    ):
        raise ContinuationError(
            f"continuation field {key!r} is not a list of non-negative "
            f"integers"
        )
    return values


# -- iterators -----------------------------------------------------------------


class PipelineIterator:
    """Base class: pull-based, suspendable solution iterator.

    ``next()`` returns the next solution or None when exhausted; the
    stream never resumes after None.  To suspend, the caller first takes
    ``drain()`` — every solution the pipeline has already computed and
    not yet emitted, produced without pulling new input from any scan —
    and then ``save()``, which merges each stateful operator's entry
    into one flat JSON dict.  ``restore`` (on a freshly built,
    structurally identical pipeline) continues from that point.
    """

    def next(self) -> Optional[Solution]:
        raise NotImplementedError

    def drain(self) -> List[Solution]:
        raise NotImplementedError

    def save(self) -> Dict[str, Any]:
        raise NotImplementedError

    def restore(self, state: Dict[str, Any]) -> None:
        raise NotImplementedError


class _Scan(NamedTuple):
    """One triple pattern of the static plan, resolved against the join
    order: which variables earlier patterns have bound is known when the
    plan is made, so no frame inspects a solution to find out."""

    #: Per position (s, p, o): ``(constant, None)``, or ``(None, name)``
    #: for a variable bound by an earlier pattern; ``(None, None)`` for a
    #: variable this pattern binds.
    lookup: Tuple[Tuple[Optional[RDFTerm], Optional[str]], ...]
    #: (triple position, variable name) of the variables bound here.
    binds: Tuple[Tuple[int, str], ...]
    #: Position pairs that must hold the same term: a variable bound
    #: here that the pattern repeats (``?x ?p ?x``).
    repeats: Tuple[Tuple[int, int], ...]
    #: Spatial-index candidates for the object variable bound here,
    #: n3-sorted so the match order is the same in every rebuild; None
    #: when unhinted.
    hint: Optional[Tuple[RDFTerm, ...]]


class JoinIterator(PipelineIterator):
    """Index nested-loop join over the plan's triple patterns.

    An explicit stack of *frames*, one per pattern in join order.  A
    frame holds the solution it extends, that solution's matches for the
    frame's pattern **in deterministic order** (store iteration order;
    spatial-hint candidates in sorted order) and an integer cursor over
    them.  The cursors of the open frames are all the state a
    continuation needs: on restore frame 0 re-materialises its matches
    from the empty solution, and every deeper frame from the solution
    its parent bound at ``cursor - 1`` — sound because continuations are
    bound to an immutable store version.
    """

    def __init__(self, scans: Sequence[_Scan], store):
        self.scans = scans
        self.store = store
        # [solution, matches, cursor] per open frame; None until the
        # first pull, so building a pipeline touches no index.
        self._frames: Optional[List[list]] = None

    def _open(self, depth: int, sol: Solution) -> list:
        scan = self.scans[depth]
        (s, s_var), (p, p_var), (o, o_var) = scan.lookup
        if s_var is not None:
            s = sol[s_var]
        if p_var is not None:
            p = sol[p_var]
        if o_var is not None:
            o = sol[o_var]
        if scan.hint is not None:
            matches = [
                t
                for cand in scan.hint
                for t in self.store.triples((s, p, cand))
            ]
        else:
            matches = list(self.store.triples((s, p, o)))
        return [sol, matches, 0]

    def _bind(
        self, depth: int, sol: Solution, triple: Tuple
    ) -> Optional[Solution]:
        """``sol`` extended by the variables this frame's pattern binds,
        None when the triple breaks a repeated variable."""
        scan = self.scans[depth]
        for i, j in scan.repeats:
            if triple[i] != triple[j]:
                return None
        if not scan.binds:
            return sol
        new = dict(sol)
        for i, name in scan.binds:
            new[name] = triple[i]
        return new

    def next(self) -> Optional[Solution]:
        frames = self._frames
        if frames is None:
            frames = self._frames = [self._open(0, {})]
        top = len(self.scans) - 1
        while frames:
            frame = frames[-1]
            sol, matches, cursor = frame
            if cursor == len(matches):
                frames.pop()
                continue
            frame[2] = cursor + 1
            depth = len(frames) - 1
            bound = self._bind(depth, sol, matches[cursor])
            if bound is None:
                continue
            if depth == top:
                return bound
            frames.append(self._open(depth + 1, bound))
        return None

    def drain(self) -> List[Solution]:
        return []

    def save(self) -> Dict[str, Any]:
        # A pipeline that never pulled is frame 0 open at cursor 0.
        frames = self._frames
        return {"scan": [0] if frames is None else [f[2] for f in frames]}

    def restore(self, state: Dict[str, Any]) -> None:
        cursors = _state_ints(state, "scan")
        if len(cursors) > len(self.scans):
            raise ContinuationError(
                f"continuation has {len(cursors)} scan cursors for a "
                f"{len(self.scans)}-pattern join"
            )
        frames: List[list] = []
        sol: Optional[Solution] = {}
        for depth, cursor in enumerate(cursors):
            if sol is None:
                raise ContinuationError(
                    f"scan cursor {depth - 1} points at no joinable match"
                )
            frame = self._open(depth, sol)
            matches = frame[1]
            if cursor > len(matches):
                raise ContinuationError(
                    f"scan cursor {cursor} outside match list of "
                    f"{len(matches)} (store changed under continuation?)"
                )
            frame[2] = cursor
            frames.append(frame)
            sol = (
                self._bind(depth, sol, matches[cursor - 1]) if cursor else None
            )
        self._frames = frames


class FilterIterator(PipelineIterator):
    """One FILTER expression, judged batch-at-a-time.

    Pulls up to :data:`FILTER_BATCH_ROWS` child solutions and runs the
    whole batch through :meth:`Evaluator._filter_solutions` — the exact
    code path of the one-shot evaluator: compiled numeric kernels and
    the batched spatial lane (predicates, negated predicates and
    distance comparisons decided over ``PackedEnvelopes``) run per
    batch inside the preemptable pipeline instead of being bypassed by
    it.  A suspension between survivors *drains* the not-yet-emitted
    tail of the batch into the page; a filter saves nothing.
    """

    def __init__(
        self,
        child: PipelineIterator,
        expr: alg.Expr,
        evaluator: Evaluator,
        batch_rows: int = FILTER_BATCH_ROWS,
    ):
        self.child = child
        self.expr = expr
        self.evaluator = evaluator
        self.batch_rows = max(1, int(batch_rows))
        self._buffer: List[Solution] = []
        self._pos = 0

    def next(self) -> Optional[Solution]:
        while True:
            if self._pos < len(self._buffer):
                sol = self._buffer[self._pos]
                self._pos += 1
                return sol
            batch: List[Solution] = []
            while len(batch) < self.batch_rows:
                sol = self.child.next()
                if sol is None:
                    break
                batch.append(sol)
            if not batch:
                return None
            self._buffer = self.evaluator._filter_solutions(self.expr, batch)
            self._pos = 0

    def drain(self) -> List[Solution]:
        # Own survivors first (they entered the pipeline earlier), then
        # whatever the filters below had buffered, judged here.
        out = self._buffer[self._pos:]
        self._buffer = []
        self._pos = 0
        below = self.child.drain()
        if below:
            out.extend(self.evaluator._filter_solutions(self.expr, below))
        return out

    def save(self) -> Dict[str, Any]:
        if self._pos < len(self._buffer):
            raise ContinuationError(
                "save() before drain(): the filter still holds "
                f"{len(self._buffer) - self._pos} computed solutions"
            )
        return self.child.save()

    def restore(self, state: Dict[str, Any]) -> None:
        self.child.restore(state)


class ProjectionIterator(PipelineIterator):
    """Keep only the projected variables (stateless passthrough)."""

    def __init__(self, child: PipelineIterator, names: Sequence[str]):
        self.child = child
        self.names = list(names)

    def _project(self, sol: Solution) -> Solution:
        return {name: sol[name] for name in self.names if name in sol}

    def next(self) -> Optional[Solution]:
        sol = self.child.next()
        if sol is None:
            return None
        return self._project(sol)

    def drain(self) -> List[Solution]:
        return [self._project(sol) for sol in self.child.drain()]

    def save(self) -> Dict[str, Any]:
        return self.child.save()

    def restore(self, state: Dict[str, Any]) -> None:
        self.child.restore(state)


class DistinctIterator(PipelineIterator):
    """DISTINCT over the projected variables.

    The seen-key set (n3 tuples, None for unbound) is part of the
    snapshot: a resumed query must keep suppressing duplicates of
    solutions emitted in earlier quanta.  It is the one part of a
    continuation that grows with the rows produced; the token codec caps
    it (see :data:`repro.server.continuations.MAX_TOKEN_BYTES`).
    """

    def __init__(self, child: PipelineIterator, variables: Sequence[str]):
        self.child = child
        self.variables = list(variables)
        self._seen: Set[Tuple[Optional[str], ...]] = set()

    def _admit(self, sol: Solution) -> bool:
        key = tuple(
            sol[v].n3() if sol.get(v) is not None else None
            for v in self.variables
        )
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def next(self) -> Optional[Solution]:
        while True:
            sol = self.child.next()
            if sol is None or self._admit(sol):
                return sol

    def drain(self) -> List[Solution]:
        return [sol for sol in self.child.drain() if self._admit(sol)]

    def save(self) -> Dict[str, Any]:
        state = self.child.save()
        # sorted → deterministic token bytes
        state["seen"] = sorted(list(key) for key in self._seen)
        return state

    def restore(self, state: Dict[str, Any]) -> None:
        self.child.restore(state)
        seen = state["seen"]
        width = len(self.variables)
        if not isinstance(seen, list) or not all(
            isinstance(key, list)
            and len(key) == width
            and all(x is None or isinstance(x, str) for x in key)
            for key in seen
        ):
            raise ContinuationError(
                f"continuation field 'seen' is not a list of {width}-column "
                f"keys"
            )
        self._seen = {tuple(key) for key in seen}


class SliceIterator(PipelineIterator):
    """OFFSET/LIMIT as skip and emit counters."""

    def __init__(
        self,
        child: PipelineIterator,
        limit: Optional[int],
        offset: Optional[int],
    ):
        self.child = child
        self.limit = limit
        self.offset = offset or 0
        self._skipped = 0
        self._emitted = 0

    def next(self) -> Optional[Solution]:
        if self.limit is not None and self._emitted >= self.limit:
            return None
        while self._skipped < self.offset:
            if self.child.next() is None:
                return None
            self._skipped += 1
        sol = self.child.next()
        if sol is None:
            return None
        self._emitted += 1
        return sol

    def drain(self) -> List[Solution]:
        # OFFSET and LIMIT may both land inside the drained batch.
        below = self.child.drain()
        skip = min(self.offset - self._skipped, len(below))
        self._skipped += skip
        out = below[skip:]
        if self.limit is not None:
            del out[max(0, self.limit - self._emitted):]
        self._emitted += len(out)
        return out

    def save(self) -> Dict[str, Any]:
        state = self.child.save()
        state["slice"] = [self._skipped, self._emitted]
        return state

    def restore(self, state: Dict[str, Any]) -> None:
        self.child.restore(state)
        counters = _state_ints(state, "slice")
        if (
            len(counters) != 2
            or counters[0] > self.offset
            or (self.limit is not None and counters[1] > self.limit)
        ):
            raise ContinuationError(
                f"slice counters {counters} outside OFFSET {self.offset} / "
                f"LIMIT {self.limit}"
            )
        self._skipped, self._emitted = counters


# -- plan construction ---------------------------------------------------------


def _collect_conjunction(
    pattern: alg.Pattern,
) -> Optional[Tuple[List[alg.TriplePattern], List[alg.Expr]]]:
    """Flatten a pattern tree into (triple patterns, filters) when it is
    a pure conjunction of BGPs; None for anything else."""
    if isinstance(pattern, alg.BGP):
        return list(pattern.triples), []
    if isinstance(pattern, alg.GroupPattern):
        triples: List[alg.TriplePattern] = []
        filters: List[alg.Expr] = list(pattern.filters)
        for part in pattern.parts:
            sub = _collect_conjunction(part)
            if sub is None:
                return None
            triples.extend(sub[0])
            filters.extend(sub[1])
        return triples, filters
    return None


def supports_query(query: alg.Query) -> bool:
    """Whether :func:`build_select_pipeline` can stream this query."""
    if not isinstance(query, alg.SelectQuery):
        return False
    if query.group_by or query.having or query.order_by:
        return False
    for proj in query.projections:
        if proj.expr is not None:
            return False
    collected = _collect_conjunction(query.where)
    if collected is None:
        return False
    triples, filters = collected
    if not triples:  # nothing to scan, nothing to preempt
        return False
    for pattern in triples:
        if isinstance(pattern.p, alg.Path):
            return False
    return not any(_expr_has_aggregate(expr) for expr in filters)


def pipeline_variables(query: alg.SelectQuery) -> List[str]:
    """The projected variable names of a streamable SELECT query.

    Explicit projections keep their order; ``SELECT *`` projects every
    pattern variable in sorted order (matching the one-shot evaluator's
    sorted discovery order).
    """
    if query.projections:
        return [p.var for p in query.projections]
    collected = _collect_conjunction(query.where)
    if collected is None:
        return []
    names: Set[str] = set()
    for pattern in collected[0]:
        names |= _triple_vars(pattern)
    for expr in collected[1]:
        names |= set(_expr_vars(expr))
    return sorted(names)


def _static_join_order(
    patterns: List[alg.TriplePattern], count, hints: Dict[str, Set]
) -> List[alg.TriplePattern]:
    """Greedy static ordering mirroring the evaluator's dynamic pick:
    cheapest estimated pattern first, boundness w.r.t. already-ordered
    variables as the tie-breaker.  Deterministic, so a restored pipeline
    rebuilds the identical operator tree."""
    remaining = list(patterns)
    ordered: List[alg.TriplePattern] = []
    bound: Set[str] = set()
    while remaining:
        def cost(pattern: alg.TriplePattern) -> Tuple:
            score = 0
            hinted = 0
            for term in (pattern.s, pattern.p, pattern.o):
                if isinstance(term, Variable):
                    if str(term) in bound:
                        score += 1
                    elif str(term) in hints:
                        hinted += 1
                else:
                    score += 1
            if count is None:
                return (0, -score, -hinted)
            probe = tuple(
                None if isinstance(t, Variable) else t
                for t in (pattern.s, pattern.p, pattern.o)
            )
            estimate = count(probe)
            if (
                isinstance(pattern.o, Variable)
                and str(pattern.o) in hints
            ):
                estimate = min(estimate, len(hints[str(pattern.o)]))
            return (estimate, -score, -hinted)

        best = min(range(len(remaining)), key=lambda i: cost(remaining[i]))
        pattern = remaining.pop(best)
        ordered.append(pattern)
        bound |= _triple_vars(pattern)
    return ordered


class _Plan(NamedTuple):
    """Everything about a pipeline that does not change between pages."""

    scans: Tuple[_Scan, ...]
    filters: Tuple[alg.Expr, ...]
    names: Tuple[str, ...]


def _plan_select(
    query: alg.SelectQuery, evaluator: Evaluator
) -> Optional[_Plan]:
    if not supports_query(query):
        return None
    triples, filters = _collect_conjunction(query.where)
    hints = (
        evaluator._spatial_hints(filters)
        if evaluator.use_spatial_index
        else {}
    )
    scans: List[_Scan] = []
    bound: Set[str] = set()
    for pattern in _static_join_order(triples, evaluator._count, hints):
        lookup = []
        first_at: Dict[str, int] = {}
        repeats = []
        for i, term in enumerate((pattern.s, pattern.p, pattern.o)):
            if not isinstance(term, Variable):
                lookup.append((term, None))
            elif str(term) in bound:
                lookup.append((None, str(term)))
            else:
                lookup.append((None, None))
                if str(term) in first_at:
                    repeats.append((first_at[str(term)], i))
                else:
                    first_at[str(term)] = i
        # A hint narrows the scan that binds the variable (the evaluator
        # applies hints only to unbound objects).
        hint = (
            hints.get(str(pattern.o)) if lookup[2] == (None, None) else None
        )
        scans.append(_Scan(
            tuple(lookup),
            tuple((i, name) for name, i in first_at.items()),
            tuple(repeats),
            None if hint is None
            else tuple(sorted(hint, key=lambda t: t.n3())),
        ))
        bound.update(first_at)
    return _Plan(
        tuple(scans), tuple(filters), tuple(pipeline_variables(query))
    )


def build_select_pipeline(
    query: alg.SelectQuery,
    store,
    use_spatial_index: bool = True,
    batch_rows: int = FILTER_BATCH_ROWS,
) -> Optional[PipelineIterator]:
    """Build the preemptable pipeline for a SELECT query.

    Returns None when the query uses operators this pipeline cannot
    stream (callers fall back to the one-shot evaluator).  The returned
    iterator is positioned at the start; use :func:`restore_pipeline` to
    rebuild one mid-query from a saved continuation.

    The static plan is served from ``store.plan_cache``: the parsed
    algebra is immutable and equal exactly when the query text parses
    equal, hint candidates and cardinality estimates are functions of
    the store version, so every page of a query after the first reuses
    one plan.
    """
    evaluator = Evaluator(store, use_spatial_index=use_spatial_index)
    plan = store.plan_cache.get_or_compute(
        ("pipeline", query, store.version, use_spatial_index),
        lambda: _plan_select(query, evaluator),
    )
    if plan is None:
        return None
    pipe: PipelineIterator = JoinIterator(plan.scans, store)
    for expr in plan.filters:
        pipe = FilterIterator(pipe, expr, evaluator, batch_rows)
    pipe = ProjectionIterator(pipe, plan.names)
    if query.distinct:
        pipe = DistinctIterator(pipe, plan.names)
    if query.limit is not None or query.offset:
        pipe = SliceIterator(pipe, query.limit, query.offset)
    return pipe


def restore_pipeline(
    query: alg.SelectQuery,
    store,
    state: Dict[str, Any],
    use_spatial_index: bool = True,
    batch_rows: int = FILTER_BATCH_ROWS,
) -> PipelineIterator:
    """Rebuild a pipeline for ``query`` and restore ``state`` into it.

    Raises :class:`ContinuationError` when the query is not streamable
    or the state does not fit the (re)built operator tree.
    """
    pipe = build_select_pipeline(
        query, store, use_spatial_index=use_spatial_index,
        batch_rows=batch_rows,
    )
    if pipe is None:
        raise ContinuationError(
            "continuation refers to a query the pipeline cannot stream"
        )
    # A fresh pipeline saves exactly the fields its operators restore.
    expected = pipe.save().keys()
    if not isinstance(state, dict) or state.keys() != expected:
        raise ContinuationError(
            f"continuation state does not have the fields "
            f"{sorted(expected)} this query's pipeline saves"
        )
    pipe.restore(state)
    return pipe
