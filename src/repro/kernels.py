"""Vectorised stSPARQL FILTER lanes.

TELEIOS's bet is column-at-a-time execution *inside* the database.  SQL
and SciQL statements get it from the executor itself
(:mod:`repro.mdb.sql.executor` evaluates over whole columns); this
module closes the gap on the stSPARQL side, where solutions are rows:

* **Numeric FILTERs** — :func:`compile_filter` lowers numeric FILTER
  expressions into one batched kernel call over packed binding columns;
  solutions whose bindings fall outside the kernel's type contract are
  routed individually through the caller's exact fallback.
* **Spatial FILTERs** — :func:`compile_spatial_filter` lowers indexable
  predicate calls, negated or not, and ``strdf:distance`` comparisons
  over a variable and a constant geometry or over two variables (the
  fire map's spatial joins) into one
  :class:`~repro.geometry.envelope.PackedEnvelopes` pass:
  envelope-disjoint rows decide a predicate (or far rows a distance
  comparison) vectorised; the rows left undecided of an ``intersects`` /
  ``within`` / ``contains`` plan go together through the batched exact
  kernel (:func:`repro.geometry.batch.relate`), and only what neither
  decides takes the scalar geometry test.

Fallback contract: a compiler raises :class:`Unsupported` (internally)
for any construct it does not lower, and the public ``compile_*``
entry points return ``None`` — the caller then walks the solutions one
at a time, which is also the path for single-row batches.
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
from repro.mdb.sql.vectors import CMP_UFUNCS, EXACT_INT
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
    "compile_filter",
    "run_filter",
    "FilterPlan",
    "compile_spatial_filter",
    "run_spatial_filter",
    "SpatialFilterPlan",
    "filter_kernel_cache",
    "clear_caches",
]

#: Minimum candidate-solution count before packing binding columns for a
#: batched FILTER pays for itself (kept tiny so the fuzz sweep exercises
#: the kernel lane on small graphs too).
FILTER_BATCH_MIN_SOLUTIONS = 2


class Unsupported(Exception):
    """An expression the kernel compiler does not lower (walk the
    solutions one at a time)."""


#: Never filled; bench/worker.py still sums its stats in traced runs.
sql_kernel_cache = LRUCache(maxsize=1, name="kernels.sql")
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


# ---------------------------------------------------------------------------
# stSPARQL FILTER compiler
# ---------------------------------------------------------------------------


class _FilterCtx:
    """Packed numeric binding columns over the kernel lane's rows."""

    __slots__ = ("cols", "n", "no_err")

    def __init__(self, cols: Dict[str, np.ndarray], n: int):
        self.cols = cols
        self.n = n
        self.no_err = np.zeros(n, dtype=bool)


#: (value, error) pair over the lane; kind is fixed at compile time.
_FilterNode = Tuple[Callable[[_FilterCtx], Tuple[np.ndarray, np.ndarray]], str]


@dataclass
class FilterPlan:
    """A compiled FILTER expression over numeric variable bindings."""

    variables: Tuple[str, ...]
    fn: Callable[[_FilterCtx], np.ndarray]  # → pass/fail verdict per row


filter_kernel_cache = LRUCache(maxsize=256, name="kernels.filter")


def compile_filter(expr: alg.Expr) -> Optional[FilterPlan]:
    """Compile one stSPARQL FILTER expression, or None when any part of
    it falls outside the numeric kernel subset (spatial calls, string
    operands, ...).  Compiled plans — and refusals — are cached on the
    expression node itself (algebra nodes are frozen dataclasses)."""
    cached = _plan_cache_get(filter_kernel_cache, expr)
    if cached is not _MISS:
        return cached
    refs: set = set()
    try:
        node, kind = _compile_filter_expr(expr, refs)
    except Unsupported:
        filter_kernel_cache.put(expr, _REFUSED)
        return None

    def verdict(ctx: _FilterCtx) -> np.ndarray:
        value, err = node(ctx)
        return _filter_ebv(value, kind) & ~err

    plan = FilterPlan(tuple(sorted(refs)), verdict)
    filter_kernel_cache.put(expr, plan)
    return plan


def _filter_ebv(value: np.ndarray, kind: str) -> np.ndarray:
    """SPARQL effective boolean value of a lowered (num|bool) vector."""
    if kind == "bool":
        return value
    return (value != 0) & ~np.isnan(value)


def _filter_const(term: Literal) -> Tuple[float, str]:
    """(value, kind) of a constant literal, or Unsupported."""
    try:
        py = term.to_python()
    except Exception:  # unparseable lexical form: interpretive path
        raise Unsupported("literal") from None
    if isinstance(py, bool):
        return (1.0 if py else 0.0), "bool"
    if isinstance(py, int):
        if not -EXACT_INT <= py <= EXACT_INT:
            raise Unsupported("oversized int literal")
        return float(py), "num"
    if isinstance(py, float):
        return py, "num"
    raise Unsupported("non-numeric literal")


def _compile_filter_expr(expr: alg.Expr, refs: set) -> _FilterNode:
    """Lower one algebra node to ``ctx → (value, error)`` over the lane.

    The lane contract (enforced by :func:`run_filter`) is that every
    referenced variable is bound to an exactly-representable numeric
    literal, so an EVar is simply its packed column.  Error vectors
    reproduce ``_ExprError`` propagation: an erroring subexpression
    poisons its row, except across ``||`` (error recovery) exactly as
    the interpreter's short-circuit rules dictate.
    """
    alg = _algebra()
    if isinstance(expr, alg.EVar):
        name = expr.name
        refs.add(name)
        return (lambda ctx: (ctx.cols[name], ctx.no_err)), "num"
    if isinstance(expr, alg.ETerm):
        if not isinstance(expr.term, Literal):
            raise Unsupported("non-literal term")
        if expr.term.is_numeric:
            value, kind = _filter_const(expr.term)
        else:
            py = expr.term.to_python()
            if not isinstance(py, bool):
                raise Unsupported("non-numeric literal")
            value, kind = (1.0 if py else 0.0), "bool"
        if kind == "bool":
            const = bool(value)
            return (
                lambda ctx: (np.full(ctx.n, const, dtype=bool), ctx.no_err)
            ), "bool"
        return (
            lambda ctx: (np.full(ctx.n, value, dtype=np.float64), ctx.no_err)
        ), "num"
    if isinstance(expr, alg.EUnary):
        inner, kind = _compile_filter_expr(expr.operand, refs)
        if expr.op == "!":

            def negation(ctx: _FilterCtx):
                value, err = inner(ctx)
                return ~_filter_ebv(value, kind), err

            return negation, "bool"
        if expr.op == "-":
            if kind != "num":
                raise Unsupported("unary minus on boolean")

            def minus(ctx: _FilterCtx):
                value, err = inner(ctx)
                return -value, err

            return minus, "num"
        raise Unsupported(expr.op)
    if isinstance(expr, alg.EBinary):
        return _compile_filter_binary(expr, refs)
    if isinstance(expr, alg.ECall):
        if expr.name == "bound" and len(expr.args) == 1:
            arg = expr.args[0]
            if isinstance(arg, alg.EVar):
                # Lane rows have every referenced variable bound.
                refs.add(arg.name)
                return (
                    lambda ctx: (
                        np.ones(ctx.n, dtype=bool),
                        ctx.no_err,
                    )
                ), "bool"
            return (
                lambda ctx: (np.zeros(ctx.n, dtype=bool), ctx.no_err)
            ), "bool"
        raise Unsupported(expr.name)
    raise Unsupported(type(expr).__name__)


def _compile_filter_binary(expr: alg.EBinary, refs: set) -> _FilterNode:
    op = expr.op
    left, lkind = _compile_filter_expr(expr.left, refs)
    right, rkind = _compile_filter_expr(expr.right, refs)
    if op == "&&":
        # left-error → whole expression errors (→ row fails); a False
        # left short-circuits before the right can error.  Both encode
        # as: fail on any error, else l and r.
        def logical_and(ctx: _FilterCtx):
            lv, le = left(ctx)
            rv, re_ = right(ctx)
            return (
                _filter_ebv(lv, lkind) & _filter_ebv(rv, rkind),
                le | re_,
            )

        return logical_and, "bool"
    if op == "||":
        # || recovers from a left error; a true left short-circuits a
        # right error away.
        def logical_or(ctx: _FilterCtx):
            lv, le = left(ctx)
            rv, re_ = right(ctx)
            lt = _filter_ebv(lv, lkind) & ~le
            rt = _filter_ebv(rv, rkind) & ~re_
            return lt | rt, np.zeros(ctx.n, dtype=bool)

        return logical_or, "bool"
    if op in ("=", "!="):

        def equality(ctx: _FilterCtx):
            lv, le = left(ctx)
            rv, re_ = right(ctx)
            if lkind == "num" and rkind == "num":
                eq = lv == rv
            else:
                # _terms_equal falls back to EBV equality as soon as one
                # side is boolean.
                eq = _filter_ebv(lv, lkind) == _filter_ebv(rv, rkind)
            return (eq if op == "=" else ~eq), le | re_

        return equality, "bool"
    if op in ("<", "<=", ">", ">="):

        def comparison(ctx: _FilterCtx):
            lv, le = left(ctx)
            rv, re_ = right(ctx)
            # Booleans compare as 0/1 (python bool is an int).
            lf = lv.astype(np.float64) if lkind == "bool" else lv
            rf = rv.astype(np.float64) if rkind == "bool" else rv
            return CMP_UFUNCS[op](lf, rf), le | re_

        return comparison, "bool"
    if op in ("+", "-", "*", "/"):
        if lkind != "num" or rkind != "num":
            raise Unsupported("boolean in numeric context")
        ufunc = {
            "+": np.add,
            "-": np.subtract,
            "*": np.multiply,
            "/": np.divide,
        }[op]

        def arithmetic(ctx: _FilterCtx):
            lv, le = left(ctx)
            rv, re_ = right(ctx)
            err = le | re_
            if op == "/":
                err = err | (rv == 0)
                with np.errstate(all="ignore"):
                    return ufunc(lv, np.where(rv == 0, 1.0, rv)), err
            with np.errstate(all="ignore"):
                return ufunc(lv, rv), err

        return arithmetic, "num"
    raise Unsupported(op)


def run_filter(
    plan: FilterPlan,
    solutions: List[Dict[str, Any]],
    fallback: Callable[[Dict[str, Any]], bool],
) -> List[Dict[str, Any]]:
    """Apply a compiled FILTER over candidate solutions.

    Bindings of every referenced variable are packed into float64
    columns; rows where each binding is an exactly-representable numeric
    literal form the kernel lane (one vectorised verdict), the rest are
    judged individually by ``fallback`` (the interpreter) — order is
    preserved either way.
    """
    n = len(solutions)
    lane = np.ones(n, dtype=bool)
    columns: Dict[str, np.ndarray] = {}
    for var in plan.variables:
        vals = np.zeros(n, dtype=np.float64)
        ok = np.zeros(n, dtype=bool)
        for i, sol in enumerate(solutions):
            term = sol.get(var)
            if not isinstance(term, Literal) or not term.is_numeric:
                continue
            try:
                py = term.to_python()
            except Exception:
                continue
            if isinstance(py, bool):
                continue
            if isinstance(py, int):
                if not -EXACT_INT <= py <= EXACT_INT:
                    continue
                vals[i] = float(py)
            elif isinstance(py, float):
                vals[i] = py
            else:
                continue
            ok[i] = True
        lane &= ok
        columns[var] = vals
    idx = np.nonzero(lane)[0]
    verdict = None
    if idx.size:
        ctx = _FilterCtx(
            {var: vals[idx] for var, vals in columns.items()}, int(idx.size)
        )
        verdict = plan.fn(ctx)
    out: List[Dict[str, Any]] = []
    j = 0
    fell_back = 0
    for i, sol in enumerate(solutions):
        if lane[i]:
            if verdict[j]:
                out.append(sol)
            j += 1
        else:
            fell_back += 1
            if fallback(sol):
                out.append(sol)
    obs.counter("stsparql.filter.kernel_rows").inc(int(idx.size))
    if fell_back:
        obs.counter("stsparql.filter.fallback_rows").inc(fell_back)
    return out


# ---------------------------------------------------------------------------
# stSPARQL spatial FILTER compiler (batched over PackedEnvelopes)
# ---------------------------------------------------------------------------


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
    under ``("spatial", expr)``, disjoint from :func:`compile_filter`'s
    numeric-plan keys on the bare expression node.
    """
    key = ("spatial", expr)
    cached = _plan_cache_get(filter_kernel_cache, key)
    if cached is not _MISS:
        return cached
    try:
        plan = _lower_spatial(expr)
    except Unsupported:
        filter_kernel_cache.put(key, _REFUSED)
        return None
    filter_kernel_cache.put(key, plan)
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
    if not isinstance(bound_side, alg.ETerm) or not isinstance(
        bound_side.term, Literal
    ):
        raise Unsupported("non-constant bound")
    if not bound_side.term.is_numeric:
        raise Unsupported("non-numeric bound")
    bound, kind = _filter_const(bound_side.term)
    if kind != "num":
        raise Unsupported("boolean bound")
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
