"""Compiled vectorised kernels for SciQL/SQL expressions and stSPARQL FILTERs.

TELEIOS's bet is column-at-a-time execution *inside* the database.  This
module closes the remaining interpretation gaps by lowering expression
ASTs into fused numpy kernels:

* **SQL/SciQL** — :func:`compile_update` turns a ``SciQL UPDATE``
  statement into a plan of closures evaluating directly over the array's
  attribute planes (no ``to_frame`` meshgrid), compiled once per
  ``(schema signature, statement)`` and cached in an LRU.  Assignments
  run gather-compute-scatter over only the cells passing the WHERE mask.
  :func:`compile_select` lowers single-array ``SELECT`` statements the
  same way (WHERE over the planes, projections over only the gathered
  rows), and :func:`compile_tile_aggregate` plans ``tile_aggregate``
  reductions that reduce float64 planes in place without the
  interpretive path's ``astype`` copy.  Scalar functions (``abs``,
  ``sqrt``, ``floor``, ``ceil``, ``power``) lower instead of refusing:
  the unary functions delegate to the registry's vectorised
  implementations, while ``power`` goes through :func:`vec_power`,
  which keeps the per-row loop (numpy's SIMD ``pow`` is not
  bit-identical to libm's) so error rows and results match exactly.
  Closure trees reuse owned temporaries in place (``out=`` on
  the commutative arithmetic lanes) to cut allocation traffic.
* **Shared vector primitives** — :func:`vec_arith`, :func:`vec_compare`,
  :func:`vec_concat` and :func:`vec_inlist_literals` implement the SQL
  operator semantics once, with vectorised fast paths in front of the
  exact per-row fallbacks.  The interpretive :class:`~repro.mdb.sql.
  executor.Evaluator` delegates to the same functions, so the compiled
  and interpreted paths cannot diverge at the operator level.
* **stSPARQL** — :func:`compile_filter` lowers numeric FILTER
  expressions into one batched kernel call over packed binding columns;
  solutions whose bindings fall outside the kernel's type contract are
  routed individually through the caller's exact fallback.
  :func:`compile_spatial_filter` lowers *spatial* FILTERs — indexable
  predicate calls, negated or not, and ``strdf:distance`` comparisons
  over a variable and a constant geometry or over two variables (the
  fire map's spatial joins) — into one
  :class:`~repro.geometry.envelope.PackedEnvelopes` pass:
  envelope-disjoint rows decide a predicate (or far rows a distance
  comparison) vectorised, and only undecided rows take the exact
  geometry test.
* **Adaptive tiling** — :class:`AdaptiveTiler` replaces the static
  ``PARALLEL_MIN_CELLS`` floor: row-band tiling engages only when the
  observed cells/sec rate predicts the serial pass is long enough to
  amortise band bookkeeping.

Everything is gated by ``REPRO_KERNELS`` (default on); with the gate off
the engines fall back to the retained interpretive paths, which double
as the in-engine oracle for the differential tests in
:mod:`repro.testkit`.

Fallback contract: a compiler raises :class:`Unsupported` (internally)
for any construct it does not lower, and the public ``compile_*``
entry points return ``None`` — the caller then takes the interpretive
path.  Catalog errors (unknown columns) are *not* swallowed: they raise
the same exception the interpretive path would.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import obs
from repro.cache import LRUCache
from repro.rdf.term import Literal

# The SQL AST, mdb error types and stSPARQL algebra are imported
# lazily: both engines import this module at package-import time (the
# executor aliases the vector primitives), so a top-level import of
# either engine from here would be circular.


def _sql_ast():
    from repro.mdb.sql import ast

    return ast


def _mdb_errors():
    from repro.mdb import errors

    return errors


def _algebra():
    from repro.strabon.stsparql import algebra

    return algebra


def _sql_functions():
    from repro.mdb.sql import functions

    return functions


def _stsparql_functions():
    from repro.strabon.stsparql import functions

    return functions


def _strdf():
    from repro.strabon import strdf

    return strdf


def _sql_executor():
    from repro.mdb.sql import executor

    return executor


__all__ = [
    "KERNELS_ENV",
    "enabled",
    "Unsupported",
    "vec_arith",
    "vec_compare",
    "vec_concat",
    "vec_inlist_literals",
    "vec_power",
    "bool_mask",
    "broadcast_literal",
    "is_numeric",
    "compile_update",
    "UpdatePlan",
    "compile_select",
    "SelectPlan",
    "compile_tile_aggregate",
    "TileAggregatePlan",
    "compile_filter",
    "run_filter",
    "FilterPlan",
    "compile_spatial_filter",
    "run_spatial_filter",
    "SpatialFilterPlan",
    "AdaptiveTiler",
    "TILER",
    "sql_kernel_cache",
    "filter_kernel_cache",
    "clear_caches",
]

Vector = Tuple[np.ndarray, np.ndarray]

KERNELS_ENV = "REPRO_KERNELS"

#: Integers beyond 2**53 are not exactly representable as float64; the
#: fast lanes refuse them so exact python-int comparisons never round.
_EXACT_INT = 2**53

#: Minimum candidate-solution count before packing binding columns for a
#: batched FILTER pays for itself (kept tiny so the fuzz sweep exercises
#: the kernel lane on small graphs too).
FILTER_BATCH_MIN_SOLUTIONS = 2


def enabled() -> bool:
    """Whether compiled kernels are active (``REPRO_KERNELS``, default on)."""
    raw = os.environ.get(KERNELS_ENV, "").strip().lower()
    return raw not in ("0", "false", "off", "no")


class Unsupported(Exception):
    """An expression the kernel compiler does not lower (take the
    interpretive path)."""


# ---------------------------------------------------------------------------
# shared vector primitives (exact SQL operator semantics)
# ---------------------------------------------------------------------------


def is_numeric(arr: np.ndarray) -> bool:
    return arr.dtype.kind in "ifb"


_TRUE1 = np.ones(1, dtype=bool)
_TRUE1.flags.writeable = False


def all_valid(n: int) -> np.ndarray:
    """An all-True validity mask as a stride-0 broadcast view — O(1) to
    build and recognisable (see :func:`_const_true`) so the hot paths
    can skip masking work entirely when no NULLs are in play."""
    return np.broadcast_to(_TRUE1, (n,))


def _const_true(valid: np.ndarray) -> bool:
    """True when ``valid`` is a stride-0 all-True broadcast view."""
    return valid.strides == (0,) and valid.size > 0 and bool(valid[0])


def and_valid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a & b`` without allocating when either side is known all-True."""
    if a is b or _const_true(b):
        return a
    if _const_true(a):
        return b
    return a & b


def broadcast_literal(value: Any, nrows: int) -> Vector:
    if value is None:
        return (
            np.empty(nrows, dtype=object),
            np.zeros(nrows, dtype=bool),
        )
    if isinstance(value, bool):
        data = np.full(nrows, value, dtype=bool)
    elif isinstance(value, int):
        data = np.full(nrows, value, dtype=np.int64)
    elif isinstance(value, float):
        data = np.full(nrows, value, dtype=np.float64)
    else:
        data = np.empty(nrows, dtype=object)
        data[:] = value
    return data, np.ones(nrows, dtype=bool)


def bool_mask(vec: Vector) -> np.ndarray:
    """Vector → WHERE mask (NULL counts as False)."""
    data, valid = vec
    if data.dtype == object:
        truth = np.fromiter(
            (bool(v) for v in data), count=len(data), dtype=bool
        )
    elif data.dtype == np.bool_:
        truth = data
    else:
        truth = data.astype(bool)
    # The result may alias ``data`` when it is already boolean and every
    # row is valid; callers treat masks as read-only.
    if _const_true(valid):
        return truth
    return truth & valid


def _valid_index(valid: np.ndarray) -> Optional[np.ndarray]:
    """Positions of valid rows, or None when every row is valid."""
    if valid.all():
        return None
    return np.nonzero(valid)[0]


def _all_plain_str(data: np.ndarray, valid: np.ndarray) -> bool:
    """True when every valid element is an (exact) str — the precondition
    of the vectorised string lanes.  ``np.str_`` counts: it subclasses
    str without changing comparison or formatting semantics."""
    if data.dtype.kind == "U":
        return True
    if data.dtype != np.dtype(object):
        return False
    values = data if valid.all() else data[valid]
    return all(type(v) in (str, np.str_) for v in values)


def _float_subset(data: np.ndarray) -> Optional[np.ndarray]:
    """``data`` as float64 when every element is an exact python float.

    ``np.float64`` elements are deliberately excluded: python floats
    raise ``ZeroDivisionError`` where numpy scalars return inf/nan, and
    the fast lane must reproduce the per-row loop's exception exactly.
    """
    if data.dtype != np.dtype(object):
        return None
    for v in data:
        if type(v) is not float:
            return None
    return data.astype(np.float64)


def _exact_number_subset(data: np.ndarray) -> Optional[np.ndarray]:
    """``data`` as float64 when every element is a python int/float whose
    float64 image is exact (so vectorised comparison equals the loop)."""
    if data.dtype != np.dtype(object):
        return None
    for v in data:
        t = type(v)
        if t is float:
            continue
        if t is int and -_EXACT_INT <= v <= _EXACT_INT:
            continue
        return None
    return data.astype(np.float64)


def vec_arith(
    op: str,
    ldata: np.ndarray,
    rdata: np.ndarray,
    valid: np.ndarray,
    *,
    reuse: Optional[np.ndarray] = None,
) -> Vector:
    """SQL ``+ - * / %`` with NULL masking (shared by both engines).

    Numeric arrays evaluate vectorised; ``/`` between two integer
    columns is floor division with zero denominators masked invalid.
    Object columns of pure python floats take a vectorised lane that
    reproduces the loop's ``ZeroDivisionError``; anything else falls to
    the exact per-row loop (timestamps, mixed types).

    ``reuse`` may name a writable temporary (one of the operands the
    caller owns) to receive the result of the ``+ - *`` numeric lanes
    in place; it must already have the exact result dtype and shape.
    The compiled closure trees use this to avoid allocating a fresh
    array per operator node.
    """
    if is_numeric(ldata) and is_numeric(rdata):
        with np.errstate(all="ignore"):
            if op == "+":
                out = (
                    np.add(ldata, rdata, out=reuse)
                    if reuse is not None
                    else ldata + rdata
                )
            elif op == "-":
                out = (
                    np.subtract(ldata, rdata, out=reuse)
                    if reuse is not None
                    else ldata - rdata
                )
            elif op == "*":
                out = (
                    np.multiply(ldata, rdata, out=reuse)
                    if reuse is not None
                    else ldata * rdata
                )
            elif op == "/":
                denom_zero = rdata == 0
                if ldata.dtype.kind == "i" and rdata.dtype.kind == "i":
                    safe = np.where(denom_zero, 1, rdata)
                    out = ldata // safe
                else:
                    safe = np.where(denom_zero, 1.0, rdata)
                    out = ldata / safe
                valid = valid & ~denom_zero
            else:  # %
                denom_zero = rdata == 0
                safe = np.where(denom_zero, 1, rdata)
                out = ldata % safe
                valid = valid & ~denom_zero
        return out, valid
    idx = _valid_index(valid)
    lsub = ldata if idx is None else ldata[idx]
    rsub = rdata if idx is None else rdata[idx]
    lf = _float_subset(lsub)
    rf = _float_subset(rsub) if lf is not None else None
    if lf is not None and rf is not None:
        if op in ("/", "%") and bool((rf == 0).any()):
            raise ZeroDivisionError(
                "float division by zero" if op == "/" else "float modulo"
            )
        ufunc = {
            "+": np.add,
            "-": np.subtract,
            "*": np.multiply,
            "/": np.divide,
            "%": np.mod,
        }[op]
        with np.errstate(all="ignore"):
            res = ufunc(lf, rf)
        out = np.empty(len(ldata), dtype=object)
        if idx is None:
            out[:] = res.tolist()
        else:
            out[idx] = res.tolist()
        return out, valid
    out = np.empty(len(ldata), dtype=object)
    # NumPy scalars in an object column (np.float64(1) / np.float64(0))
    # follow the vectorised lane's IEEE semantics — inf/nan, silently.
    with np.errstate(all="ignore"):
        for i in range(len(ldata)):
            if not valid[i]:
                out[i] = None
                continue
            a, b = ldata[i], rdata[i]
            try:
                if op == "+":
                    out[i] = a + b
                elif op == "-":
                    out[i] = a - b
                elif op == "*":
                    out[i] = a * b
                elif op == "/":
                    out[i] = a / b
                else:
                    out[i] = a % b
            except TypeError as exc:
                raise _mdb_errors().SQLTypeError(str(exc)) from exc
    return out, valid


_CMP_UFUNCS = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def vec_compare(
    op: str, ldata: np.ndarray, rdata: np.ndarray, valid: np.ndarray
) -> Vector:
    """SQL comparison with NULL masking (shared by both engines).

    Numeric arrays compare vectorised.  Object columns of all-str or
    all-exact-number values take vectorised lanes; everything else
    (mixed types) keeps the per-row loop with its ``SQLTypeError``.
    """
    if is_numeric(ldata) and is_numeric(rdata):
        return _CMP_UFUNCS[op](ldata, rdata), valid
    n = len(ldata)
    idx = _valid_index(valid)
    lsub = ldata if idx is None else ldata[idx]
    rsub = rdata if idx is None else rdata[idx]
    hits = _fast_compare(op, lsub, rsub)
    if hits is not None:
        out = np.zeros(n, dtype=bool)
        if idx is None:
            out[:] = hits
        else:
            out[idx] = hits
        return out, valid
    out = np.zeros(n, dtype=bool)
    for i in range(n):
        if not valid[i]:
            continue
        a, b = ldata[i], rdata[i]
        try:
            if op == "=":
                out[i] = a == b
            elif op == "<>":
                out[i] = a != b
            elif op == "<":
                out[i] = a < b
            elif op == "<=":
                out[i] = a <= b
            elif op == ">":
                out[i] = a > b
            else:
                out[i] = a >= b
        except TypeError:
            raise _mdb_errors().SQLTypeError(
                f"cannot compare {type(a).__name__} with "
                f"{type(b).__name__}"
            ) from None
    return out, valid


def _fast_compare(
    op: str, lsub: np.ndarray, rsub: np.ndarray
) -> Optional[np.ndarray]:
    """Vectorised comparison of the valid subsets, or None to fall back."""
    all_valid = np.ones(len(lsub), dtype=bool)
    if _all_plain_str(lsub, all_valid) and _all_plain_str(rsub, all_valid):
        return _CMP_UFUNCS[op](lsub.astype(str), rsub.astype(str))
    lf = _exact_number_subset(lsub)
    if lf is None:
        return None
    rf = _exact_number_subset(rsub)
    if rf is None:
        return None
    return _CMP_UFUNCS[op](lf, rf)


def vec_concat(
    ldata: np.ndarray, rdata: np.ndarray, valid: np.ndarray
) -> Vector:
    """SQL ``||`` with NULL masking; ``np.char.add`` when both sides are
    str-typed, the f-string loop otherwise (identical output)."""
    n = len(ldata)
    if _all_plain_str(ldata, valid) and _all_plain_str(rdata, valid):
        out = np.empty(n, dtype=object)
        idx = _valid_index(valid)
        if idx is None:
            out[:] = np.char.add(
                ldata.astype(str), rdata.astype(str)
            ).tolist()
        else:
            out[idx] = np.char.add(
                ldata[idx].astype(str), rdata[idx].astype(str)
            ).tolist()
        return out, valid
    out = np.empty(n, dtype=object)
    for i in range(n):
        out[i] = f"{ldata[i]}{rdata[i]}" if valid[i] else None
    return out, valid


def vec_inlist_literals(
    data: np.ndarray,
    valid: np.ndarray,
    values: Sequence[Any],
    negated: bool,
) -> Optional[Vector]:
    """``operand IN (literal, ...)`` in one ``np.isin`` pass.

    ``values`` are raw literal values (``ast.Literal.value``); NULL items
    contribute no matches (SQL three-valued logic as implemented by the
    per-item loop).  Returns None when the operand/item type mix has no
    exact vectorised equivalent — the caller then runs the loop.
    """
    live = [v for v in values if v is not None]
    if is_numeric(data):
        nums = [v for v in live if isinstance(v, (int, float))]
        # An int item compared through a float64 `isin` buffer would
        # round; the loop compares it exactly as int64.  Mixed lists
        # with oversized ints therefore fall back.
        if any(isinstance(v, float) for v in nums) and any(
            isinstance(v, int)
            and not isinstance(v, bool)
            and not -_EXACT_INT <= v <= _EXACT_INT
            for v in nums
        ):
            return None
        if nums:
            hits = np.isin(data, np.asarray(nums))
            if not _const_true(valid):
                hits &= valid
        else:
            hits = np.zeros(len(data), dtype=bool)
    elif _all_plain_str(data, valid):
        strs = [v for v in live if isinstance(v, str)]
        if strs:
            sub = data if valid.all() else data[valid]
            inner = np.isin(sub.astype(str), np.asarray(strs))
            hits = np.zeros(len(data), dtype=bool)
            if valid.all():
                hits[:] = inner
            else:
                hits[np.nonzero(valid)[0]] = inner
            hits &= valid
        else:
            hits = np.zeros(len(data), dtype=bool)
    else:
        return None
    if negated:
        hits = ~hits
        if not _const_true(valid):
            hits &= valid
    return hits, all_valid(len(hits))


def vec_power(lvec: Vector, rvec: Vector) -> Vector:
    """SQL ``power(x, y)`` lane for compiled kernels.

    Unlike the unary scalar functions, ``power`` cannot take a
    vectorised fast path: the interpreter's per-row loop evaluates
    python's ``float ** float`` (libm ``pow``), while ``np.power``
    dispatches to numpy's own SIMD implementation whose results differ
    from libm in the last ulp on a few percent of ordinary finite
    inputs (measured on uniform doubles for exponents 2.0, 2.5, 3.0).
    ``REPRO_KERNELS=0`` is the bit-identical oracle, so this lane
    delegates to the exact registry loop — which also preserves the
    per-row error semantics verbatim: ``0 ** negative`` raises
    ``ExecutionError``, overflow raises a raw ``OverflowError``, and a
    negative base with a fractional exponent yields a complex result.
    Compiling ``power`` still pays off: the statement around it stays
    on the kernel path instead of being refused wholesale.
    """
    return _sql_functions().SCALAR_FUNCTIONS["power"](lvec, rvec)


# ---------------------------------------------------------------------------
# SQL expression compiler (SciQL UPDATE / SELECT)
# ---------------------------------------------------------------------------


class KernelEnv:
    """Columns a compiled kernel evaluates over: name → (data, valid)."""

    __slots__ = ("cols", "n")

    def __init__(self, cols: Dict[str, Vector], n: int):
        self.cols = cols
        self.n = n

    def window(self, lo: int, hi: int) -> "KernelEnv":
        return KernelEnv(
            {k: (d[lo:hi], v[lo:hi]) for k, (d, v) in self.cols.items()},
            hi - lo,
        )

    def gather(self, idx: np.ndarray) -> "KernelEnv":
        # Fancy-indexing a stride-0 all-True mask would materialise it;
        # keep the constant-True representation instead.
        return KernelEnv(
            {
                k: (
                    d[idx],
                    all_valid(len(idx)) if _const_true(v) else v[idx],
                )
                for k, (d, v) in self.cols.items()
            },
            len(idx),
        )


KernelFn = Callable[[KernelEnv], Vector]


@dataclass
class UpdatePlan:
    """A compiled ``UPDATE array`` statement."""

    where: Optional[KernelFn]
    assignments: List[Tuple[str, KernelFn]]  # (attr name, value kernel)
    columns: Tuple[str, ...]  # referenced column names (env keys)


#: Compiled SQL/SciQL plans (UPDATE, SELECT, tile_aggregate) keyed by
#: (schema signature, statement); the sentinel marks statements the
#: compiler refused so they are not re-lowered on every call.
sql_kernel_cache = LRUCache(maxsize=256, name="kernels.sql")
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


def array_signature(array: Any) -> Tuple:
    """Hashable schema signature of a SciArray (cache-key component)."""
    return (
        array.name,
        tuple((d.name, "dim") for d in array.dimensions),
        tuple(
            (name, "attr", ctype.name) for name, ctype in array.attributes
        ),
    )


def compile_update(array: Any, stmt: ast.Update) -> Optional[UpdatePlan]:
    """Compile one SciQL UPDATE against an array's schema, or None.

    The plan is cached per ``(schema signature, statement)``; AST nodes
    are frozen dataclasses, hence hashable.  Unknown columns raise
    :class:`CatalogError` with the interpretive path's message.
    """
    sig = array_signature(array)
    key = (sig, stmt.where, tuple(stmt.assignments))
    cached = _plan_cache_get(sql_kernel_cache, key)
    if cached is not _MISS:
        return cached
    schema = {d.name: "dim" for d in array.dimensions}
    for name, _ in array.attributes:
        schema[name] = "attr"
    refs: set = set()
    try:
        where = (
            None
            if stmt.where is None
            else _compile_sql(stmt.where, schema, array.name, refs)
        )
        assignments = []
        for attr_name, expr in stmt.assignments:
            if schema.get(attr_name.lower()) != "attr":
                raise _mdb_errors().CatalogError(
                    f"no attribute {attr_name!r} in array {array.name!r}"
                )
            assignments.append(
                (attr_name, _compile_sql(expr, schema, array.name, refs))
            )
    except Unsupported:
        sql_kernel_cache.put(key, _REFUSED)
        return None
    plan = UpdatePlan(where, assignments, tuple(sorted(refs)))
    sql_kernel_cache.put(key, plan)
    return plan


@dataclass
class SelectPlan:
    """A compiled single-array ``SELECT`` statement."""

    where: Optional[KernelFn]
    outputs: List[Tuple[str, KernelFn]]  # (output name, projection kernel)
    columns: Tuple[str, ...]  # referenced column names (env keys)
    # Columns the WHERE kernel reads — the only ones that must exist at
    # full array length; everything else is materialised already gathered.
    where_columns: Tuple[str, ...]


def compile_select(array: Any, stmt: ast.Select) -> Optional[SelectPlan]:
    """Compile one single-array SELECT against the array's schema, or None.

    Lowers the WHERE and every projection item into kernels over the
    attribute planes: the interpretive path's full-frame materialisation
    (``to_frame`` plus a whole-frame ``take``) disappears — only the
    referenced columns are touched, and projections evaluate over only
    the gathered WHERE survivors.  Joins, GROUP BY, HAVING, ORDER BY
    and aggregates stay interpretive; ``DISTINCT``/``LIMIT``/``OFFSET``
    are applied by the caller's shared helpers after the plan runs, so
    they need no lowering.  Unknown columns raise :class:`CatalogError`;
    the caller falls back to the interpretive path, which owns the
    raise order.
    """
    ast = _sql_ast()
    sig = array_signature(array)
    key = (sig, "select", stmt)
    cached = _plan_cache_get(sql_kernel_cache, key)
    if cached is not _MISS:
        return cached
    schema = {d.name: "dim" for d in array.dimensions}
    for name, _ in array.attributes:
        schema[name] = "attr"
    refs: set = set()
    where_refs: set = set()
    try:
        if (
            stmt.from_table is None
            or stmt.joins
            or stmt.group_by
            or stmt.having is not None
            or stmt.order_by
        ):
            raise Unsupported("select shape")
        binding = stmt.from_table.binding
        # WHERE first: projection kernels run over only its survivors.
        where = (
            None
            if stmt.where is None
            else _compile_sql(stmt.where, schema, binding, where_refs)
        )
        outputs: List[Tuple[str, KernelFn]] = []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                if (
                    item.expr.table is not None
                    and item.expr.table != binding
                ):
                    raise Unsupported("qualified star")
                # Schema insertion order (dims, then attributes) is the
                # frame's column order, so `*` expands identically.
                for name in schema:
                    refs.add(name)
                    outputs.append(
                        (name, lambda env, _n=name: env.cols[_n])
                    )
                continue
            fn = _compile_sql(item.expr, schema, binding, refs)
            name = item.alias or _sql_executor()._default_name(item.expr)
            outputs.append((name, fn))
    except Unsupported:
        sql_kernel_cache.put(key, _REFUSED)
        return None
    plan = SelectPlan(
        where,
        outputs,
        tuple(sorted(refs | where_refs)),
        tuple(sorted(where_refs)),
    )
    sql_kernel_cache.put(key, plan)
    return plan


@dataclass
class TileAggregatePlan:
    """A compiled ``tile_aggregate`` reduction over one attribute plane."""

    attr: str
    func: str
    tile: Tuple[int, ...]
    axes: Tuple[int, ...]
    # (plane, start tile-row, stop tile-row) → reduced block
    fn: Callable[[np.ndarray, int, int], np.ndarray]


_TILE_REDUCERS = {
    "mean": np.mean,
    "sum": np.sum,
    "min": np.min,
    "max": np.max,
}


def compile_tile_aggregate(
    array: Any, tile: Sequence[int], func: str, attr: str
) -> Optional[TileAggregatePlan]:
    """Plan one tiled reduction, or None outside the kernel subset
    (unknown reducer, mismatched tile rank, object-typed plane — the
    interpretive path owns validation errors).

    The compiled reduction skips the interpretive path's unconditional
    ``astype(float)`` when the plane is already float64, reducing
    straight from the reshaped block — bit-identical, since ``astype``
    on float64 input is an identity copy and the reduction input is
    C-contiguous either way (``reshape`` of a trimmed block copies into
    contiguous layout when the view cannot be reshaped in place).
    """
    tile = tuple(int(t) for t in tile)
    # The schema signature carries no dimension extents (UPDATE/SELECT
    # kernels are length-agnostic), but a tile plan bakes the trimmed
    # shape into its closure — key on the concrete shape too.
    key = (array_signature(array), array.shape, "tile", tile, func, attr)
    cached = _plan_cache_get(sql_kernel_cache, key)
    if cached is not _MISS:
        return cached
    reducer = _TILE_REDUCERS.get(func)
    shape = array.shape
    if (
        reducer is None
        or len(tile) != len(shape)
        or any(t < 1 for t in tile)
        or any(s // t == 0 for s, t in zip(shape, tile))
        or not array.has_attribute(attr)
        or array.attribute_type(attr).dtype == np.dtype(object)
    ):
        sql_kernel_cache.put(key, _REFUSED)
        return None
    trimmed = tuple((s // t) * t for s, t in zip(shape, tile))
    axes = tuple(range(1, 2 * len(shape), 2))
    tail = tuple(slice(0, s) for s in trimmed[1:])
    inner_shape: List[int] = []
    for s, t in zip(trimmed[1:], tile[1:]):
        inner_shape.extend([s // t, t])
    skip_cast = array.attribute_type(attr).dtype == np.float64

    def reduce_rows(data: np.ndarray, start: int, stop: int) -> np.ndarray:
        block = data[(slice(start * tile[0], stop * tile[0]),) + tail]
        block = block.reshape([stop - start, tile[0], *inner_shape])
        if not skip_cast:
            block = block.astype(float)
        return reducer(block, axis=axes)

    plan = TileAggregatePlan(attr, func, tile, axes, reduce_rows)
    sql_kernel_cache.put(key, plan)
    return plan


def _compile_sql(
    expr: ast.Expr, schema: Dict[str, str], binding: str, refs: set
) -> KernelFn:
    """Lower one SQL expression AST node to a closure over a KernelEnv."""
    fn, _owned = _compile_sql_node(expr, schema, binding, refs)
    return fn


#: Scalar functions the compiler lowers (name → arity).  Everything
#: else refuses to the interpretive path, which owns unknown-function,
#: aggregate-misuse and arity errors.
_COMPILED_FUNCTIONS = {
    "abs": 1,
    "sqrt": 1,
    "floor": 1,
    "ceil": 1,
    "ceiling": 1,
    "power": 2,
}


def _compile_sql_node(
    expr: ast.Expr, schema: Dict[str, str], binding: str, refs: set
) -> Tuple[KernelFn, bool]:
    """Lower one SQL AST node to ``(closure, owned)``.

    ``owned`` marks closures whose result array is freshly allocated on
    every call — a temporary the parent operator may overwrite in place
    (``reuse=`` on :func:`vec_arith`, ``out=`` on unary negate).
    Literal broadcasts and column references are *borrowed*: they alias
    read-only compile-time seeds or live :class:`KernelEnv` columns
    that every assignment kernel of a plan shares, so they are never
    written through.
    """
    ast = _sql_ast()
    if isinstance(expr, ast.Literal):
        value = expr.value
        # Materialise the literal once at compile time and stretch it
        # with stride-0 broadcast views per call: ufuncs treat those
        # like scalars, so no per-evaluation n-sized allocation.
        seed_data, seed_valid = broadcast_literal(value, 1)

        def literal(env: KernelEnv) -> Vector:
            return (
                np.broadcast_to(seed_data, (env.n,)),
                np.broadcast_to(seed_valid, (env.n,)),
            )

        return literal, False
    if isinstance(expr, ast.ColumnRef):
        name = expr.name
        if expr.table is not None:
            if expr.table != binding or name not in schema:
                raise _mdb_errors().CatalogError(
                    f"unknown column {expr.table}.{name}"
                )
        elif name not in schema:
            raise _mdb_errors().CatalogError(f"unknown column {name!r}")
        refs.add(name)
        return (lambda env: env.cols[name]), False
    if isinstance(expr, ast.UnaryOp):
        inner, inner_owned = _compile_sql_node(
            expr.operand, schema, binding, refs
        )
        if expr.op == "-":

            def negate(env: KernelEnv) -> Vector:
                data, valid = inner(env)
                if is_numeric(data):
                    if inner_owned:
                        return np.negative(data, out=data), valid
                    return -data, valid
                out = np.empty(len(data), dtype=object)
                for i, v in enumerate(data):
                    out[i] = -v if valid[i] else None
                return out, valid

            return negate, True
        if expr.op == "NOT":

            def invert(env: KernelEnv) -> Vector:
                mask = bool_mask(inner(env))
                return ~mask, all_valid(len(mask))

            return invert, True
        raise Unsupported(expr.op)
    if isinstance(expr, ast.BinaryOp):
        op = expr.op
        left, left_owned = _compile_sql_node(
            expr.left, schema, binding, refs
        )
        right, right_owned = _compile_sql_node(
            expr.right, schema, binding, refs
        )
        if op in ("AND", "OR"):

            def logical(env: KernelEnv) -> Vector:
                lmask = bool_mask(left(env))
                rmask = bool_mask(right(env))
                out = (lmask & rmask) if op == "AND" else (lmask | rmask)
                return out, all_valid(len(out))

            return logical, True
        if op == "||":

            def concat(env: KernelEnv) -> Vector:
                ldata, lvalid = left(env)
                rdata, rvalid = right(env)
                return vec_concat(ldata, rdata, and_valid(lvalid, rvalid))

            return concat, True
        if op in ("+", "-", "*", "/", "%"):
            in_place = op in ("+", "-", "*")

            def arith(env: KernelEnv) -> Vector:
                ldata, lvalid = left(env)
                rdata, rvalid = right(env)
                reuse = None
                if in_place and is_numeric(ldata) and is_numeric(rdata):
                    # Overwrite an owned operand whose dtype already
                    # matches the result: no allocation, same values
                    # (ufuncs are well-defined with out= aliasing an
                    # input).
                    rt = np.result_type(ldata, rdata)
                    if left_owned and ldata.dtype == rt:
                        reuse = ldata
                    elif right_owned and rdata.dtype == rt:
                        reuse = rdata
                return vec_arith(
                    op, ldata, rdata, and_valid(lvalid, rvalid), reuse=reuse
                )

            return arith, True
        if op in ("=", "<>", "<", "<=", ">", ">="):

            def compare(env: KernelEnv) -> Vector:
                ldata, lvalid = left(env)
                rdata, rvalid = right(env)
                return vec_compare(
                    op, ldata, rdata, and_valid(lvalid, rvalid)
                )

            return compare, True
        raise Unsupported(op)
    if isinstance(expr, ast.FunctionCall):
        name = expr.name
        fns = _sql_functions()
        if (
            expr.star
            or expr.distinct
            or fns.is_aggregate(name)
            or _COMPILED_FUNCTIONS.get(name) != len(expr.args)
            or name not in fns.SCALAR_FUNCTIONS
        ):
            raise Unsupported(name)
        arg_fns = [
            _compile_sql_node(arg, schema, binding, refs)[0]
            for arg in expr.args
        ]
        if name == "power":
            base_fn, exp_fn = arg_fns

            def power_call(env: KernelEnv) -> Vector:
                return vec_power(base_fn(env), exp_fn(env))

            return power_call, True
        # The registry implementations of the unary functions are
        # already vectorised (`_numeric_unary`); delegating to them —
        # exactly as the interpreter's FunctionCall evaluation does —
        # makes divergence between the paths structurally impossible.
        fn = fns.SCALAR_FUNCTIONS[name]
        arg0 = arg_fns[0]

        def scalar_call(env: KernelEnv) -> Vector:
            return fn(arg0(env))

        return scalar_call, True
    if isinstance(expr, ast.InList):
        operand, _ = _compile_sql_node(expr.operand, schema, binding, refs)
        negated = expr.negated
        if all(isinstance(item, ast.Literal) for item in expr.items):
            values = tuple(item.value for item in expr.items)

            def inlist_fast(env: KernelEnv) -> Vector:
                data, valid = operand(env)
                fast = vec_inlist_literals(data, valid, values, negated)
                if fast is not None:
                    return fast
                item_vecs = [
                    broadcast_literal(v, env.n) for v in values
                ]
                return _inlist_loop(data, valid, item_vecs, negated)

            return inlist_fast, True
        items = [
            _compile_sql(item, schema, binding, refs) for item in expr.items
        ]

        def inlist(env: KernelEnv) -> Vector:
            data, valid = operand(env)
            return _inlist_loop(
                data, valid, [item(env) for item in items], negated
            )

        return inlist, True
    if isinstance(expr, ast.Between):
        operand, _ = _compile_sql_node(expr.operand, schema, binding, refs)
        low = _compile_sql(expr.low, schema, binding, refs)
        high = _compile_sql(expr.high, schema, binding, refs)
        negated = expr.negated

        def between(env: KernelEnv) -> Vector:
            data, valid = operand(env)
            low_d, low_v = low(env)
            high_d, high_v = high(env)
            ge = bool_mask(
                vec_compare(">=", data, low_d, and_valid(valid, low_v))
            )
            le = bool_mask(
                vec_compare("<=", data, high_d, and_valid(valid, high_v))
            )
            out = ge & le
            if negated:
                out = ~out & valid
            return out, all_valid(len(out))

        return between, True
    if isinstance(expr, ast.IsNull):
        operand, _ = _compile_sql_node(expr.operand, schema, binding, refs)
        negated = expr.negated

        def isnull(env: KernelEnv) -> Vector:
            _, valid = operand(env)
            out = valid.copy() if negated else ~valid
            return out, all_valid(len(out))

        return isnull, True
    # Like / Cast / Case / Star: interpretive path.
    raise Unsupported(type(expr).__name__)


def _inlist_loop(
    data: np.ndarray,
    valid: np.ndarray,
    item_vecs: Sequence[Vector],
    negated: bool,
) -> Vector:
    """The exact per-item IN evaluation (matches the interpreter)."""
    hits = np.zeros(len(data), dtype=bool)
    for idata, ivalid in item_vecs:
        hits |= bool_mask(vec_compare("=", data, idata, valid & ivalid))
    if negated:
        hits = ~hits
        if not _const_true(valid):
            hits &= valid
    return hits, all_valid(len(hits))


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
        if not -_EXACT_INT <= py <= _EXACT_INT:
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
            return _CMP_UFUNCS[op](lf, rf), le | re_

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
                if not -_EXACT_INT <= py <= _EXACT_INT:
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
    to its SRID and envelope."""

    variable: Optional[str] = None
    srid: int = 0
    envelope: Any = None


@dataclass
class SpatialFilterPlan:
    """A compiled spatial FILTER over two operands, at least one a
    variable, decided through packed envelopes where that is sound."""

    operands: Tuple[SpatialOperand, SpatialOperand]
    kind: str  # "predicate" | "distance"
    negated: bool = False  # ``!pred(...)``
    op: str = ""  # normalised: distance(a, b) OP bound
    bound: float = 0.0


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
            operands.append(SpatialOperand(None, geom.srid, geom.envelope))
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
            _spatial_operands(expr), "predicate", negated
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
    scalar each for a constant."""

    ok: Any
    srid: Any
    envelopes: Any  # PackedEnvelopes, or the constant's Envelope


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
        return _Column(True, operand.srid, operand.envelope)
    strdf = _strdf()
    slot_of: Dict[int, int] = {}
    ok: List[bool] = []
    srids: List[int] = []
    envelopes: List[Any] = []
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
            srids.append(geom.srid if usable else -1)
            envelopes.append(env if usable else Envelope.empty())
        slots[i] = slot
    packed = PackedEnvelopes.pack(envelopes)
    return _Column(
        np.array(ok, dtype=bool)[slots],
        np.array(srids, dtype=np.int64)[slots],
        packed.take(slots),
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

    Every other row — a missing or non-geometry binding, operands in
    different SRIDs, a row the envelopes leave undecided — is judged
    individually by ``fallback``, the exact per-row path; solution
    order is preserved either way.
    """
    from repro.geometry.envelope import PackedEnvelopes

    n = len(solutions)
    a, b = (
        _operand_column(operand, solutions, entry)
        for operand in plan.operands
    )
    lane = a.ok & b.ok & (a.srid == b.srid)
    # Both envelope tests are symmetric; put a per-row column first.
    if not isinstance(a.envelopes, PackedEnvelopes):
        a, b = b, a
    if plan.kind == "predicate":
        decided = lane & ~a.envelopes.intersects(b.envelopes)
        passes = plan.negated
    else:
        # np.hypot can land an ulp above the correctly-rounded scalar
        # distance, so shave a relative margin off the lower bound
        # before deciding; rows inside the margin go to the exact
        # fallback instead of risking a mis-decided verdict.
        far = a.envelopes.distance(b.envelopes) * (1.0 - 1e-12) > plan.bound
        decided = lane & far
        passes = plan.op in (">", ">=")
    out: List[Dict[str, Any]] = []
    exact_rows = 0
    for sol, is_decided in zip(solutions, decided.tolist()):
        if is_decided:
            if passes:
                out.append(sol)
            continue
        exact_rows += 1
        if fallback(sol):
            out.append(sol)
    obs.counter("stsparql.spatial.batch_rows").inc(n)
    obs.counter("stsparql.spatial.env_decided").inc(n - exact_rows)
    if exact_rows:
        obs.counter("stsparql.spatial.exact_rows").inc(exact_rows)
    return out


# ---------------------------------------------------------------------------
# adaptive tiling
# ---------------------------------------------------------------------------


class AdaptiveTiler:
    """Decides row-band tiling from observed serial throughput.

    Each operation name carries an EWMA of serial cells/sec.  Tiling
    engages only when the predicted serial time is long enough that a
    band is worth at least :data:`MIN_TASK_SECONDS` of work — the
    adaptive replacement for the old static ``PARALLEL_MIN_CELLS``
    floor, which tiled cheap numpy passes whose band bookkeeping cost
    more than the pass itself.
    """

    #: Cold-start estimate: with no observation yet, ~65k cells predict
    #: ~3.3ms of work — just under the tiling threshold, matching the
    #: old static floor's behaviour until real rates arrive.
    DEFAULT_RATE = 2e7
    #: A band must be worth at least this much predicted serial time.
    MIN_TASK_SECONDS = 0.002

    def __init__(self) -> None:
        self._rates: Dict[str, float] = {}
        self._lock = threading.Lock()

    def observe(self, op: str, cells: int, seconds: float) -> None:
        """Record one *serial* pass (cells processed, wall seconds)."""
        if cells <= 0 or seconds <= 0:
            return
        rate = cells / seconds
        with self._lock:
            previous = self._rates.get(op)
            self._rates[op] = (
                rate if previous is None else 0.7 * previous + 0.3 * rate
            )
        obs.gauge(f"kernels.tiler.rate.{op}").set(self._rates[op])

    def rate(self, op: str) -> float:
        with self._lock:
            return self._rates.get(op, self.DEFAULT_RATE)

    def parts(self, op: str, cells: int, workers: int) -> int:
        """Number of row bands to split into (1 = stay serial)."""
        estimate = cells / self.rate(op)
        if estimate < 2 * self.MIN_TASK_SECONDS:
            return 1
        return max(
            2,
            min(workers * 2, int(estimate / self.MIN_TASK_SECONDS)),
        )

    def reset(self) -> None:
        with self._lock:
            self._rates.clear()


#: Process-wide tiler shared by the SciQL operators.
TILER = AdaptiveTiler()


def clear_caches() -> None:
    """Drop every compiled kernel and learned tiling rate (benchmarks
    use this to measure cold-compile cost)."""
    sql_kernel_cache.clear()
    filter_kernel_cache.clear()
    TILER.reset()


