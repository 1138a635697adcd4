"""The batched stSPARQL spatial FILTER lane.

TELEIOS's bet is column-at-a-time execution *inside* the database.  SQL
and SciQL statements get it from the executor itself
(:mod:`repro.mdb.sql.executor` evaluates over whole columns); this
module closes the gap for stSPARQL's spatial FILTERs, where solutions
are rows.  :func:`compile_spatial_filter` lowers indexable predicate
calls, negated or not, and ``strdf:distance`` comparisons over a
variable and a constant geometry or over two variables (the fire map's
spatial joins) into one
:class:`~repro.geometry.envelope.PackedEnvelopes` pass:
envelope-disjoint rows decide a predicate (or far rows a distance
comparison) vectorised; the rows left undecided of an ``intersects`` /
``within`` / ``contains`` plan go together through the batched exact
kernel (:func:`repro.geometry.batch.relate`), and only what neither
decides takes the scalar geometry test.  Every other FILTER — numeric
comparisons included — is judged row by row by the interpreter, whose
literals decode their lexical form once (``Literal.to_python``).

Fallback contract: the compiler raises :class:`Unsupported`
(internally) for any construct it does not lower, and
:func:`compile_spatial_filter` returns ``None`` — the caller then walks
the solutions one at a time, which is also the path for single-row
batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np

from repro import obs
from repro.cache import LRUCache
from repro.mdb.sql.vectors import EXACT_INT
from repro.rdf.term import Literal

# The stSPARQL algebra, functions and strdf modules are imported lazily:
# the stSPARQL evaluator imports this module at package-import time, so
# a top-level import of them from here would be circular.


def _algebra():
    from repro.strabon.stsparql import algebra

    return algebra


def _stsparql_functions():
    from repro.strabon.stsparql import functions

    return functions


def _strdf():
    from repro.strabon import strdf

    return strdf


__all__ = [
    "Unsupported",
    "compile_spatial_filter",
    "run_spatial_filter",
    "SpatialFilterPlan",
    "filter_kernel_cache",
    "clear_caches",
]

#: Minimum candidate-solution count before a spatial FILTER is batched
#: (kept tiny so the fuzz sweep exercises the lane on small graphs too).
FILTER_BATCH_MIN_SOLUTIONS = 2


class Unsupported(Exception):
    """An expression the spatial compiler does not lower (walk the
    solutions one at a time)."""


#: Never filled; bench/worker.py still sums its stats in traced runs.
sql_kernel_cache = LRUCache(maxsize=1, name="kernels.sql")
filter_kernel_cache = LRUCache(maxsize=256, name="kernels.filter")
_REFUSED = object()
_MISS = object()


def _plan_cache_get(cache: LRUCache, key: Any) -> Any:
    """Cached plan, ``None`` for a cached refusal, or :data:`_MISS`.

    A refusal-sentinel lookup is reclassified on the cache's stats
    (:meth:`LRUCache.mark_refusal`): it saves re-lowering work but did
    not serve a usable plan, so counting it as a hit would overstate
    the compile caches' effectiveness in the obs snapshot.
    """
    cached = cache.get(key, _MISS)
    if cached is _REFUSED:
        cache.mark_refusal()
        return None
    return cached


class SpatialOperand(NamedTuple):
    """One argument of a compiled spatial call: a variable (a column of
    per-row geometries) or a constant geometry, parsed at compile time
    (the plan keeps the parse, so the exact kernel packs its edges
    once)."""

    variable: Optional[str] = None
    srid: int = 0
    envelope: Any = None
    geometry: Any = None


@dataclass
class SpatialFilterPlan:
    """A compiled spatial FILTER over two operands, at least one a
    variable, decided through packed envelopes where that is sound."""

    operands: Tuple[SpatialOperand, SpatialOperand]
    kind: str  # "predicate" | "distance"
    negated: bool = False  # ``!pred(...)``
    op: str = ""  # normalised: distance(a, b) OP bound
    bound: float = 0.0
    exact: str = ""  # the batched exact predicate, if it has one


#: Comparison flip for ``bound OP distance(...)`` → ``distance(...) OP'
#: bound``.
_DISTANCE_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def compile_spatial_filter(expr: alg.Expr) -> Optional[SpatialFilterPlan]:
    """Compile one spatial FILTER over packed envelopes, or None.

    Each operand is a variable or a constant geometry literal, with at
    least one variable and never the same variable twice.  Three shapes
    lower:

    * an **indexable predicate call** (``strdf:intersects(?g, CONST)``,
      ``strdf:intersects(?hg, ?ag)``) — every such predicate implies
      envelope intersection, so envelope-disjoint rows fail vectorised
      and only envelope survivors run the exact geometry test;
    * a **negated** predicate call (``!strdf:intersects(?g, LAND)``) —
      envelope-disjoint rows pass vectorised;
    * a **distance comparison** against a numeric bound
      (``strdf:distance(?hg, ?tg) < 0.15``, call on either side) — the
      envelope distance lower-bounds the geometry distance, so rows
      whose envelope distance already exceeds the bound are decided
      without the exact geometry pass.

    Plans — and refusals — are cached in :data:`filter_kernel_cache`
    on the expression node itself (algebra nodes are frozen
    dataclasses).
    """
    cached = _plan_cache_get(filter_kernel_cache, expr)
    if cached is not _MISS:
        return cached
    try:
        plan = _lower_spatial(expr)
    except Unsupported:
        filter_kernel_cache.put(expr, _REFUSED)
        return None
    filter_kernel_cache.put(expr, plan)
    return plan


def _spatial_operands(call: Any) -> Tuple[SpatialOperand, SpatialOperand]:
    """The two operands of a spatial call, or refuse."""
    alg = _algebra()
    strdf = _strdf()
    if len(call.args) != 2:
        raise Unsupported("spatial call arity")
    operands = []
    for arg in call.args:
        if isinstance(arg, alg.EVar):
            operands.append(SpatialOperand(variable=arg.name))
        elif isinstance(arg, alg.ETerm) and strdf.is_geometry_literal(
            arg.term
        ):
            try:
                geom = strdf.literal_geometry(arg.term)
            except strdf.StRDFError:
                raise Unsupported("unparseable constant geometry") from None
            if geom.envelope.is_empty:
                # Envelope reasoning says nothing about an empty
                # constant; let the exact filter judge every solution.
                raise Unsupported("empty constant envelope")
            operands.append(
                SpatialOperand(None, geom.srid, geom.envelope, geom)
            )
        else:
            raise Unsupported("spatial call argument")
    a, b = operands
    if a.variable is None and b.variable is None:
        raise Unsupported("no variable operand")
    if a.variable == b.variable:
        raise Unsupported("same variable on both sides")
    return a, b


def _lower_spatial(expr: alg.Expr) -> SpatialFilterPlan:
    alg = _algebra()
    functions = _stsparql_functions()
    negated = isinstance(expr, alg.EUnary) and expr.op == "!"
    if negated:
        expr = expr.operand
    if (
        isinstance(expr, alg.ECall)
        and expr.name in functions.INDEXABLE_PREDICATES
    ):
        return SpatialFilterPlan(
            _spatial_operands(expr),
            "predicate",
            negated,
            exact=functions.BATCHED_PREDICATES.get(expr.name, ""),
        )
    if (
        negated
        or not isinstance(expr, alg.EBinary)
        or expr.op not in _DISTANCE_FLIP
    ):
        raise Unsupported("not a spatial filter")
    if isinstance(expr.left, alg.ECall):
        call, bound_side, flipped = expr.left, expr.right, False
    elif isinstance(expr.right, alg.ECall):
        call, bound_side, flipped = expr.right, expr.left, True
    else:
        raise Unsupported("not a spatial filter")
    if call.name not in functions.DISTANCE_FUNCTIONS:
        raise Unsupported("not a distance call")
    operands = _spatial_operands(call)
    term = bound_side.term if isinstance(bound_side, alg.ETerm) else None
    if not isinstance(term, Literal) or not term.is_numeric:
        raise Unsupported("non-numeric bound")
    try:
        bound = term.to_python()
    except ValueError:
        raise Unsupported("unparseable bound") from None
    if isinstance(bound, int) and not -EXACT_INT <= bound <= EXACT_INT:
        raise Unsupported("oversized int bound")
    op = _DISTANCE_FLIP[expr.op] if flipped else expr.op
    return SpatialFilterPlan(operands, "distance", False, op, float(bound))


class _Column(NamedTuple):
    """One operand over a batch: which rows it admits to the envelope
    lane, their SRIDs and their envelopes — per row for a variable, one
    scalar each for a constant — and each row's slot in the operand's
    distinct geometries."""

    ok: Any
    srid: Any
    envelopes: Any  # PackedEnvelopes, or the constant's Envelope
    geoms: List[Any]
    slots: Any


def _operand_column(
    operand: SpatialOperand,
    solutions: List[Dict[str, Any]],
    entry: Callable[[Any], Any],
) -> _Column:
    """Resolve an operand over a batch.  A variable's distinct bound
    terms are resolved once each — hotspots and linked-data features
    repeat across the pairs of a spatial join — keyed by object
    identity, since every row holds its terms alive, through ``entry``:
    the interner's cached ``(geometry, envelope)`` pair, so no envelope
    is recomputed.  A missing or non-geometry binding, a parse error and
    an empty envelope leave the row outside the lane."""
    from repro.geometry.envelope import Envelope, PackedEnvelopes

    if operand.variable is None:
        return _Column(
            True,
            operand.srid,
            operand.envelope,
            [operand.geometry],
            np.zeros(len(solutions), dtype=np.intp),
        )
    strdf = _strdf()
    slot_of: Dict[int, int] = {}
    ok: List[bool] = []
    srids: List[int] = []
    envelopes: List[Any] = []
    geoms: List[Any] = []
    slots = np.empty(len(solutions), dtype=np.intp)
    for i, sol in enumerate(solutions):
        term = sol.get(operand.variable)
        slot = slot_of.get(id(term))
        if slot is None:
            slot = slot_of[id(term)] = len(ok)
            geom, env = None, None
            if term is not None and strdf.is_geometry_literal(term):
                try:
                    geom, env = entry(term)
                except strdf.StRDFError:
                    pass
            usable = env is not None and not env.is_empty
            ok.append(usable)
            geoms.append(geom)
            srids.append(geom.srid if usable else -1)
            envelopes.append(env if usable else Envelope.empty())
        slots[i] = slot
    packed = PackedEnvelopes.pack(envelopes)
    return _Column(
        np.array(ok, dtype=bool)[slots],
        np.array(srids, dtype=np.int64)[slots],
        packed.take(slots),
        geoms,
        slots,
    )


def run_spatial_filter(
    plan: SpatialFilterPlan,
    solutions: List[Dict[str, Any]],
    entry: Callable[[Any], Any],
    fallback: Callable[[Dict[str, Any]], bool],
) -> List[Dict[str, Any]]:
    """Apply a compiled spatial FILTER over candidate solutions;
    ``entry(term)`` is a literal's cached ``(geometry, envelope)``.

    A row enters the envelope lane when both operands are non-empty
    geometries in one SRID; one vectorised pass over the lane then
    decides:

    * predicate plans: envelope-disjoint rows — the predicate is False,
      so the row fails (passes under ``!``);
    * distance plans: rows whose envelope distance (a lower bound on
      the geometry distance) strictly exceeds the bound — True for
      ``>``/``>=`` plans, False for ``<``/``<=``.

    The lane rows an ``intersects`` / ``within`` / ``contains`` plan
    leaves undecided go together through the batched exact kernel
    (:func:`repro.geometry.batch.relate`), which returns the scalar
    predicate's verdict for every row it can decide.  The rest — a
    missing or non-geometry binding, operands in different SRIDs, a
    line or point operand, a ``within`` row whose edges touch the
    container's — is judged individually by ``fallback``, the
    interpreter; solution order is preserved either way.
    """
    from repro.geometry import batch
    from repro.geometry.envelope import PackedEnvelopes

    n = len(solutions)
    a, b = (
        _operand_column(operand, solutions, entry)
        for operand in plan.operands
    )
    lane = a.ok & b.ok & (a.srid == b.srid)
    # Per row: 0 fails, 1 passes, 2 goes to the fallback.
    verdict = np.full(n, 2, dtype=np.int8)
    # Both envelope tests are symmetric; put a per-row column first.
    first, second = (
        (a, b) if isinstance(a.envelopes, PackedEnvelopes) else (b, a)
    )
    if plan.kind == "predicate":
        decided = lane & ~first.envelopes.intersects(second.envelopes)
        passes = plan.negated
    else:
        # np.hypot can land an ulp above the correctly-rounded scalar
        # distance, so shave a relative margin off the lower bound
        # before deciding; rows inside the margin go to the exact
        # fallback instead of risking a mis-decided verdict.
        far = (
            first.envelopes.distance(second.envelopes) * (1.0 - 1e-12)
            > plan.bound
        )
        decided = lane & far
        passes = plan.op in (">", ">=")
    verdict[decided] = passes
    kernel_rows = 0
    if plan.exact:
        rows = np.flatnonzero(lane & ~decided)
        holds, known = batch.relate(
            plan.exact, a.geoms, b.geoms, a.slots[rows], b.slots[rows]
        )
        verdict[rows[known]] = holds[known] != plan.negated
        kernel_rows = int(known.sum())
    out: List[Dict[str, Any]] = []
    exact_rows = 0
    for sol, state in zip(solutions, verdict.tolist()):
        if state == 2:
            exact_rows += 1
            if fallback(sol):
                out.append(sol)
        elif state:
            out.append(sol)
    obs.counter("stsparql.spatial.batch_rows").inc(n)
    obs.counter("stsparql.spatial.env_decided").inc(
        n - kernel_rows - exact_rows
    )
    if kernel_rows:
        obs.counter("stsparql.spatial.kernel_rows").inc(kernel_rows)
    if exact_rows:
        obs.counter("stsparql.spatial.exact_rows").inc(exact_rows)
    return out


def clear_caches() -> None:
    """Drop every compiled kernel (benchmarks use this to measure
    cold-compile cost)."""
    filter_kernel_cache.clear()
