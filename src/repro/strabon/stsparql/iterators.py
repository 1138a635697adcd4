"""The stSPARQL join, its planner and the streaming operators around it.

Every basic graph pattern runs here: a served SELECT page, a one-shot
:meth:`repro.strabon.StrabonStore.query`, and each BGP part of the
groups the :class:`~repro.strabon.stsparql.evaluator.Evaluator`
evaluates for what has no streaming form (OPTIONAL/UNION/BIND/VALUES,
property paths, aggregates, ORDER BY, CONSTRUCT/ASK/DESCRIBE, update
templates).  A streamable SELECT is a pipeline of *pull* iterators (the
sage-engine model):

    block-frame join (FILTERs placed on its scans)
        → projection → distinct → slice

that can be *suspended* at any solution boundary and resumed later, so a
query executes in bounded time slices: run for a quantum,
:meth:`PipelineIterator.drain` the rows already computed into the page,
:meth:`PipelineIterator.save` what is left — a few integers — into a
continuation, and resume from exactly that point with
:func:`restore_pipeline`.  One-shot execution is the same pipeline with
no quantum (:meth:`PipelineIterator.run`).

Design points:

* **One plan, computed once.**  :func:`plan_join` orders the patterns
  greedily by a cost key — estimated matches
  (:meth:`repro.rdf.Graph.count_estimate`, capped by the spatial-index hint of
  an unbound object), then boundness, then hinted variables — evaluated
  on a probe solution that each chosen pattern extends with its first
  match, so a pattern joined through a bound variable is costed by that
  variable's value.  Each FILTER is attached to the scan that binds the
  last of its variables, where its verdict can no longer change.  The
  plan is cached in ``store.plan_cache`` per (patterns, FILTERs,
  seed-bound variables, store version).
* **Block frames.**  A frame opens over a block of consecutive parent
  solutions — enough parents for their matches to reach one row target,
  :data:`BLOCK_ROWS` — binds every match, and judges the whole block
  with each placed FILTER in one :meth:`Evaluator._filter_solutions`
  call, so the batched spatial lane of :mod:`repro.kernels` sees full
  blocks.
* **A suspension point costs two integers per open frame.**  A frame
  saves its block's start in its parent's rows and its cursor in its
  own; on restore each frame re-derives its block from its parent's
  rows.  The rows the top frame has judged but not yet emitted are
  *drained* into the page instead of being saved, so every page
  advances by at least one block.  DISTINCT adds the keys it has seen.
* **Deterministic replay.**  Blocks and cursors index deterministically
  ordered match lists (store iteration order; a spatial-index hint walked in
  n3-sorted order), which is only sound while the store is unchanged;
  tokens therefore embed :attr:`repro.strabon.StrabonStore.version` and
  resumption against a mutated store is refused by the serving tier.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import obs
from repro.rdf.term import RDFTerm, Variable
from repro.strabon import strdf
from repro.strabon.stsparql import algebra as alg
from repro.strabon.stsparql.errors import StSPARQLError
from repro.strabon.stsparql.functions import (
    INDEXABLE_PREDICATES,
    is_aggregate_name,
)

__all__ = [
    "BLOCK_ROWS",
    "ContinuationError",
    "PipelineIterator",
    "build_select_pipeline",
    "join_solutions",
    "pipeline_variables",
    "restore_pipeline",
    "supports_query",
]

Solution = Dict[str, RDFTerm]

#: Rows a join frame's block aims at: parents are added to a block until
#: their matches reach it.  Large enough that the batched spatial lane
#: amortises; small enough that re-deriving the open blocks on restore,
#: and the block a page finishes past its quantum, stay a small share of
#: a page (on ``serve_mixed`` 1 024 rows lengthened each 25 ms page by
#: about a millisecond).
BLOCK_ROWS = 512


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

    def run(self) -> List[Solution]:
        """Every remaining solution: one pull and one drain per block."""
        out: List[Solution] = []
        while True:
            sol = self.next()
            if sol is None:
                return out
            out.append(sol)
            out.extend(self.drain())


class RowsIterator(PipelineIterator):
    """Solutions already computed, as the source of a pipeline that is
    never suspended (the evaluator's solution modifiers)."""

    def __init__(self, rows: List[Solution]):
        self._rows = rows
        self._pos = 0

    def next(self) -> Optional[Solution]:
        if self._pos == len(self._rows):
            return None
        self._pos += 1
        return self._rows[self._pos - 1]

    def drain(self) -> List[Solution]:
        rows = self._rows[self._pos:]
        self._pos = len(self._rows)
        return rows


class _Scan(NamedTuple):
    """One triple pattern of the plan, resolved against the join order:
    which variables earlier scans and the seeds bind is known when the
    plan is made, so no frame inspects a solution to find out."""

    #: Per position (s, p, o): ``(constant, None)``; ``(None, name)`` for
    #: a variable read from the parent solution — bound by an earlier
    #: scan, or by only some seeds, where an absent one is a wildcard;
    #: ``(None, None)`` for a variable this scan binds.
    lookup: Tuple[Tuple[Optional[RDFTerm], Optional[str]], ...]
    #: (triple position, variable name) of the variables bound here.
    binds: Tuple[Tuple[int, str], ...]
    #: Position pairs that must hold the same term: a variable bound
    #: here that the pattern repeats (``?x ?p ?x``).
    repeats: Tuple[Tuple[int, int], ...]
    #: Spatial-index candidates for the object variable bound here, as
    #: a dict in n3 order, so a walk over them matches in the same order
    #: in every rebuild and a bound subject's objects test membership;
    #: None when unhinted.
    hint: Optional[Dict[RDFTerm, None]]
    #: FILTERs whose last variable this scan binds, judged per block.
    filters: Tuple[alg.Expr, ...]


class _Plan(NamedTuple):
    """Everything about a join that does not change between pages."""

    #: FILTERs that no scan binds a variable of, judged on the seeds.
    seed_filters: Tuple[alg.Expr, ...]
    scans: Tuple[_Scan, ...]


class JoinIterator(PipelineIterator):
    """Index nested-loop join over block frames.

    An explicit stack of *frames* ``[start, rows, cursor]``: the judged
    seeds at the bottom, then one frame per scan in join order, covering
    the block of its parent's rows that begins at ``start`` and holding
    the block's matches for the scan's pattern, bound and judged by the
    scan's FILTERs, with a cursor over them.  The next frame opens over
    the block of rows that begins at the cursor.  ``(start, cursor)`` of
    the scan frames is all the state a continuation needs: on restore
    each frame re-derives its block from its parent's rows — sound
    because continuations are bound to an immutable store version — and
    its end must meet the parent's cursor.
    """

    def __init__(
        self,
        plan: _Plan,
        evaluator,
        seeds: List[Solution],
        block_rows: int = BLOCK_ROWS,
    ):
        self.scans = plan.scans
        self.seed_filters = plan.seed_filters
        self.evaluator = evaluator
        self.store = evaluator.store
        self.seeds = seeds
        self.block_rows = max(1, int(block_rows))
        # None until the first pull, so building a pipeline touches no
        # index.
        self._frames: Optional[List[list]] = None

    def _start(self) -> None:
        seeds = self.seeds
        for expr in self.seed_filters:
            if seeds:
                seeds = self.evaluator._filter_solutions(expr, seeds)
        self._frames = [[0, seeds, 0]]

    def _open(self, depth: int, rows: List[Solution], start: int):
        """The frame of scan ``depth`` over the block of ``rows`` that
        begins at ``start``, and the block's end."""
        scan = self.scans[depth]
        (s0, s_var), (p0, p_var), (o0, o_var) = scan.lookup
        hint, repeats, binds = scan.hint, scan.repeats, scan.binds
        one = binds[0] if len(binds) == 1 else None
        triples = self.store.triples
        out: List[Solution] = []
        append = out.append
        end = start
        while end < len(rows) and len(out) < self.block_rows:
            sol = rows[end]
            end += 1
            s = s0 if s_var is None else sol.get(s_var)
            p = p0 if p_var is None else sol.get(p_var)
            o = o0 if o_var is None else sol.get(o_var)
            if hint is None:
                matches = triples((s, p, o))
            elif s is None:
                matches = [t for c in hint for t in triples((None, p, c))]
            else:
                # A bound subject has few objects: scan them and keep the
                # hinted ones instead of probing every candidate.
                matches = [t for t in triples((s, p, None)) if t[2] in hint]
            if repeats:
                matches = [
                    t for t in matches
                    if all(t[i] == t[j] for i, j in repeats)
                ]
            if one is not None:
                i, name = one
                for t in matches:
                    new = sol.copy()
                    new[name] = t[i]
                    append(new)
            elif binds:
                for t in matches:
                    new = sol.copy()
                    for i, name in binds:
                        new[name] = t[i]
                    append(new)
            else:
                for _ in matches:
                    append(sol)
        for expr in scan.filters:
            if out:
                out = self.evaluator._filter_solutions(expr, out)
        return [start, out, 0], end

    def _advance(self) -> bool:
        """Open frames until the last scan's frame holds an unemitted
        row; False once the join is exhausted."""
        frames = self._frames
        while True:
            parent = frames[-1]
            if parent[2] == len(parent[1]):
                if len(frames) == 1:
                    return False
                frames.pop()
            elif len(frames) > len(self.scans):
                return True
            else:
                frame, parent[2] = self._open(
                    len(frames) - 1, parent[1], parent[2]
                )
                frames.append(frame)

    def next(self) -> Optional[Solution]:
        if self._frames is None:
            self._start()
        if not self._advance():
            return None
        top = self._frames[-1]
        top[2] += 1
        return top[1][top[2] - 1]

    def drain(self) -> List[Solution]:
        frames = self._frames
        if frames is None or len(frames) <= len(self.scans):
            return []
        _, rows, cursor = frames.pop()
        # Frames with nothing left would only be re-derived to be popped.
        while len(frames) > 1 and frames[-1][2] == len(frames[-1][1]):
            frames.pop()
        return rows[cursor:]

    def save(self) -> Dict[str, Any]:
        if self._frames is None:
            # Never pulled: frame 0 at the start of the seeds.
            self._start()
            return {"scan": [0, 0] if self._frames[0][1] else []}
        frames = self._frames
        _, rows, cursor = frames[-1]
        if len(frames) > len(self.scans) and cursor < len(rows):
            raise ContinuationError(
                "save() before drain(): the join still holds "
                f"{len(rows) - cursor} computed solutions"
            )
        return {"scan": [v for f in frames[1:] for v in (f[0], f[2])]}

    def restore(self, state: Dict[str, Any]) -> None:
        values = _state_ints(state, "scan")
        if len(values) % 2 or len(values) > 2 * len(self.scans):
            raise ContinuationError(
                f"continuation has {len(values)} scan integers for a "
                f"{len(self.scans)}-pattern join (two per open frame)"
            )
        self._start()
        parent = self._frames[0]
        parent[2] = len(parent[1])  # exhausted unless a frame follows
        for depth in range(len(values) // 2):
            start, cursor = values[2 * depth], values[2 * depth + 1]
            if start >= len(parent[1]):
                raise ContinuationError(
                    f"frame {depth} starts at row {start} of a parent "
                    f"with {len(parent[1])} rows"
                )
            frame, end = self._open(depth, parent[1], start)
            if depth == 0:
                parent[2] = end
            elif end != parent[2]:
                raise ContinuationError(
                    f"frame {depth}'s block ends at row {end}, not at its "
                    f"parent's cursor {parent[2]} (store changed under "
                    f"continuation?)"
                )
            if cursor > len(frame[1]):
                raise ContinuationError(
                    f"frame {depth}'s cursor {cursor} is outside its "
                    f"{len(frame[1])} rows"
                )
            frame[2] = cursor
            self._frames.append(frame)
            parent = frame


class ProjectionIterator(PipelineIterator):
    """Keep only the projected variables (stateless passthrough)."""

    def __init__(self, child: PipelineIterator, names: Sequence[str]):
        self.child = child
        self.names = list(names)

    def next(self) -> Optional[Solution]:
        sol = self.child.next()
        if sol is None:
            return None
        return {name: sol[name] for name in self.names if name in sol}

    def drain(self) -> List[Solution]:
        names = self.names
        return [
            {name: sol[name] for name in names if name in sol}
            for sol in self.child.drain()
        ]

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
        if self.limit is not None and self._emitted >= self.limit:
            # Nothing below can reach a page any more: save it finished,
            # without the DISTINCT keys of rows a drain cut off.
            state["scan"] = []
            if "seen" in state:
                state["seen"] = []
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


# -- planning ------------------------------------------------------------------


def _walk_calls(expr: alg.Expr):
    if isinstance(expr, alg.ECall):
        yield expr
        for arg in expr.args:
            yield from _walk_calls(arg)
    elif isinstance(expr, alg.EBinary):
        yield from _walk_calls(expr.left)
        yield from _walk_calls(expr.right)
    elif isinstance(expr, alg.EUnary):
        yield from _walk_calls(expr.operand)


def _expr_has_aggregate(expr: alg.Expr) -> bool:
    return any(is_aggregate_name(call.name) for call in _walk_calls(expr))


def _expr_vars(expr: alg.Expr) -> frozenset:
    """Every variable name appearing anywhere in an expression."""
    out: Set[str] = set()
    stack: List[alg.Expr] = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, alg.EVar):
            out.add(e.name)
        elif isinstance(e, alg.EUnary):
            stack.append(e.operand)
        elif isinstance(e, alg.EBinary):
            stack.append(e.left)
            stack.append(e.right)
        elif isinstance(e, alg.ECall):
            stack.extend(e.args)
    return frozenset(out)


def _triple_vars(pattern: alg.TriplePattern) -> Set[str]:
    return {
        str(term)
        for term in (pattern.s, pattern.p, pattern.o)
        if isinstance(term, Variable)
    }


def _positive_conjuncts(expr: alg.Expr):
    """The sub-expressions a FILTER asserts true of every solution it
    keeps: the expression itself or, recursively, an operand of ``&&``.
    Nothing under ``!``, ``||`` or a function argument qualifies, so a
    spatial-index hint never narrows a variable the FILTER may keep
    outside the probe."""
    if isinstance(expr, alg.EBinary) and expr.op == "&&":
        yield from _positive_conjuncts(expr.left)
        yield from _positive_conjuncts(expr.right)
    else:
        yield expr


def _indexable_call_spec(
    expr: alg.Expr,
) -> Optional[Tuple[str, RDFTerm]]:
    """``(variable, constant geometry)`` when ``expr`` is an indexable
    spatial predicate call over one variable and one geometry literal,
    else None."""
    if not isinstance(expr, alg.ECall):
        return None
    if expr.name not in INDEXABLE_PREDICATES or len(expr.args) != 2:
        return None
    var, const = None, None
    for arg in expr.args:
        if isinstance(arg, alg.EVar):
            var = arg.name
        elif isinstance(arg, alg.ETerm) and strdf.is_geometry_literal(
            arg.term
        ):
            const = arg.term
    if var is None or const is None:
        return None
    return var, const


def _spatial_hints(
    evaluator, filters: Sequence[alg.Expr]
) -> Dict[str, Set[RDFTerm]]:
    """Spatial-index candidate sets for the variables that indexable
    predicates in positive conjunctive position constrain against a
    constant geometry (see :func:`_positive_conjuncts`); one
    packed-snapshot pass answers every probe."""
    probes: List[Tuple[str, Any]] = []
    for expr in filters:
        for call in _positive_conjuncts(expr):
            spec = _indexable_call_spec(call)
            if spec is None:
                continue
            var, const = spec
            try:
                probe = evaluator.ctx.geometry(const)
            except strdf.StRDFError:
                continue
            probes.append((var, probe.envelope))
    hints: Dict[str, Set[RDFTerm]] = {}
    if not probes:
        return hints
    candidate_sets = evaluator.store.spatial_candidates_batch(
        [env for _, env in probes]
    )
    if candidate_sets is None:
        return hints
    for (var, _), candidates in zip(probes, candidate_sets):
        if var in hints:
            hints[var] &= candidates
        else:
            hints[var] = set(candidates)
    return hints


def _cost(
    pattern: alg.TriplePattern,
    probe: Solution,
    known: Set[str],
    hints: Dict[str, Set[RDFTerm]],
    count,
) -> Tuple:
    """Ordering key for a pattern under the probe solution (``known``
    holds every variable bound so far): lower sorts and runs first."""
    score = hinted = 0
    for term in (pattern.s, pattern.p, pattern.o):
        if not isinstance(term, Variable) or str(term) in known:
            score += 1
        elif str(term) in hints:
            hinted += 1
    estimate = count(tuple(
        probe.get(str(t)) if isinstance(t, Variable) else t
        for t in (pattern.s, pattern.p, pattern.o)
    ))
    o = str(pattern.o)
    if isinstance(pattern.o, Variable) and o not in known and o in hints:
        estimate = min(estimate, len(hints[o]))
    return (estimate, -score, -hinted)


def _scan(
    pattern: alg.TriplePattern,
    defined: Set[str],
    maybe: FrozenSet[str],
    hints: Dict[str, Set[RDFTerm]],
) -> _Scan:
    """``pattern`` as the next scan once the ``defined`` variables are
    bound (``maybe`` ones by only some seeds); no FILTERs yet."""
    lookup = []
    first_at: Dict[str, int] = {}
    repeats = []
    for i, term in enumerate((pattern.s, pattern.p, pattern.o)):
        name = str(term)
        if not isinstance(term, Variable):
            lookup.append((term, None))
        elif name in defined:
            lookup.append((None, name))
        else:
            lookup.append((None, name if name in maybe else None))
            if name in first_at:
                repeats.append((first_at[name], i))
            else:
                first_at[name] = i
    # A hint narrows the scan that binds the object variable.
    hint = hints.get(str(pattern.o)) if lookup[2] == (None, None) else None
    return _Scan(
        tuple(lookup),
        tuple((i, name) for name, i in first_at.items()),
        tuple(repeats),
        None if hint is None
        else dict.fromkeys(sorted(hint, key=lambda t: t.n3())),
        (),
    )


def _plan(
    evaluator,
    triples: Sequence[alg.TriplePattern],
    filters: Sequence[alg.Expr],
    probe: Solution,
    bound: FrozenSet[str],
    maybe: FrozenSet[str],
) -> _Plan:
    """Greedy order: the pattern with the lowest :func:`_cost` under the
    probe solution first; the probe then takes that scan's first match
    (skipped when it has none), so the next pick is costed by real bound
    values.  Each FILTER goes on the scan that binds its last variable,
    or on the seeds."""
    with obs.span("stsparql.plan"):
        hints = (
            _spatial_hints(evaluator, filters)
            if evaluator.store.use_spatial_index
            else {}
        )
        probe = dict(probe)
        known = set(probe)
        defined = set(bound)
        binder: Dict[str, int] = {}  # variable → the scan that binds it
        remaining = list(triples)
        scans: List[_Scan] = []
        while remaining:
            pattern = remaining.pop(min(
                range(len(remaining)),
                key=lambda i: _cost(
                    remaining[i], probe, known, hints, evaluator._count
                ),
            ))
            scan = _scan(pattern, defined, maybe, hints)
            lookup = tuple(
                const if name is None else probe.get(name)
                for const, name in scan.lookup
            )
            for t in evaluator.store.triples(lookup):
                if (scan.hint is None or t[2] in scan.hint) and all(
                    t[i] == t[j] for i, j in scan.repeats
                ):
                    probe.update((name, t[i]) for i, name in scan.binds)
                    break
            for _, name in scan.binds:
                binder[name] = len(scans)
                known.add(name)
                defined.add(name)
            scans.append(scan)
    placed_at: Dict[int, List[alg.Expr]] = {}
    for expr in filters:
        depth = max(
            (binder.get(name, -1) for name in _expr_vars(expr)), default=-1
        )
        placed_at.setdefault(depth, []).append(expr)
    return _Plan(
        tuple(placed_at.get(-1, ())),
        tuple(
            scan._replace(filters=tuple(placed_at.get(depth, ())))
            for depth, scan in enumerate(scans)
        ),
    )


def plan_join(
    evaluator,
    triples: Tuple[alg.TriplePattern, ...],
    filters: Tuple[alg.Expr, ...],
    seeds: List[Solution],
) -> _Plan:
    """The cached join plan for ``triples`` over ``seeds``, judged by
    ``filters`` — FILTERs whose verdict is final once the join has run,
    so each indexable one in positive position may also narrow its
    variable to spatial-index candidates.  A variable every seed binds is
    looked up; one only some seeds bind is read where present and bound
    where not."""
    bound = frozenset(seeds[0]).intersection(*seeds[1:])
    maybe = frozenset(seeds[0]).union(*seeds[1:]) - bound
    store = evaluator.store
    return store.plan_cache.get_or_compute(
        ("join", triples, filters, bound, maybe, store.version),
        lambda: _plan(evaluator, triples, filters, seeds[0], bound, maybe),
    )


def join_solutions(
    evaluator,
    triples: Tuple[alg.TriplePattern, ...],
    filters: Tuple[alg.Expr, ...],
    seeds: List[Solution],
) -> List[Solution]:
    """Every extension of ``seeds`` by ``triples`` that the ``filters``
    keep (see :func:`plan_join`)."""
    if not seeds:
        return []
    if not triples:
        for expr in filters:
            seeds = evaluator._filter_solutions(expr, seeds)
        return seeds
    plan = plan_join(evaluator, triples, filters, seeds)
    return JoinIterator(plan, evaluator, seeds).run()


# -- streamable SELECT pipelines -----------------------------------------------


def _collect_conjunction(
    pattern: alg.Pattern,
) -> Optional[Tuple[List[alg.TriplePattern], List[alg.Expr]]]:
    """Flatten a pattern tree into (triple patterns, filters) when it is
    a pure conjunction of BGPs without property paths; None for anything
    else."""
    if isinstance(pattern, alg.BGP):
        if any(isinstance(t.p, alg.Path) for t in pattern.triples):
            return None
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
    return not any(_expr_has_aggregate(expr) for expr in filters)


def pipeline_variables(query: alg.SelectQuery) -> List[str]:
    """The projected variable names of a streamable SELECT query.

    Explicit projections keep their order; ``SELECT *`` projects every
    pattern variable in sorted order.
    """
    if query.projections:
        return [p.var for p in query.projections]
    names: Set[str] = set()
    for pattern in _collect_conjunction(query.where)[0]:
        names |= _triple_vars(pattern)
    return sorted(names)


def build_select_pipeline(
    query: alg.SelectQuery,
    store,
    batch_rows: int = BLOCK_ROWS,
) -> Optional[PipelineIterator]:
    """Build the preemptable pipeline for a SELECT query.

    Returns None when the query uses operators this pipeline cannot
    stream (callers run it through the evaluator).  The returned
    iterator is positioned at the start; use :func:`restore_pipeline` to
    rebuild one mid-query from a saved continuation.  ``batch_rows`` is
    the join's block target (tests shrink it to suspend inside small
    blocks).
    """
    # The evaluator runs its own BGPs through this module.
    from repro.strabon.stsparql.evaluator import Evaluator

    if not supports_query(query):
        return None
    evaluator = Evaluator(store)
    triples, filters = _collect_conjunction(query.where)
    triples, filters = tuple(triples), tuple(filters)
    plan = plan_join(evaluator, triples, filters, [{}])
    pipe: PipelineIterator = JoinIterator(plan, evaluator, [{}], batch_rows)
    return solution_modifiers(pipe, query, pipeline_variables(query))


def solution_modifiers(
    pipe: PipelineIterator, query: alg.SelectQuery, names: Sequence[str]
) -> PipelineIterator:
    """``pipe`` projected onto ``names``, then the query's DISTINCT and
    OFFSET/LIMIT."""
    pipe = ProjectionIterator(pipe, names)
    if query.distinct:
        pipe = DistinctIterator(pipe, names)
    if query.limit is not None or query.offset:
        pipe = SliceIterator(pipe, query.limit, query.offset)
    return pipe


def restore_pipeline(
    query: alg.SelectQuery,
    store,
    state: Dict[str, Any],
    batch_rows: int = BLOCK_ROWS,
) -> PipelineIterator:
    """Rebuild a pipeline for ``query`` and restore ``state`` into it.

    Raises :class:`ContinuationError` when the query is not streamable
    or the state does not fit the (re)built operator tree.
    """
    pipe = build_select_pipeline(query, store, batch_rows=batch_rows)
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
