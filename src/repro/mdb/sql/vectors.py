"""Vector primitives: the SQL operator semantics over ``(data, valid)``.

The executor's :class:`~repro.mdb.sql.executor.Evaluator` evaluates every
expression — over tables and SciQL arrays alike — through these
functions.  Each has vectorised fast paths in front of an exact per-row
fallback, so a fast lane engages only where it reproduces the loop's
values and exceptions.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.mdb.errors import SQLTypeError

Vector = Tuple[np.ndarray, np.ndarray]

#: Integers beyond 2**53 are not exactly representable as float64; the
#: fast lanes refuse them so exact python-int comparisons never round.
EXACT_INT = 2**53


def is_numeric(arr: np.ndarray) -> bool:
    return arr.dtype.kind in "ifb"


_TRUE1 = np.ones(1, dtype=bool)
_TRUE1.flags.writeable = False


def all_valid(n: int) -> np.ndarray:
    """An all-True validity mask as a stride-0 broadcast view — O(1) to
    build and recognisable (see :func:`const_true`) so the hot paths
    can skip masking work entirely when no NULLs are in play."""
    return np.broadcast_to(_TRUE1, (n,))


def const_true(valid: np.ndarray) -> bool:
    """True when ``valid`` is a stride-0 all-True broadcast view."""
    return valid.strides == (0,) and valid.size > 0 and bool(valid[0])


def and_valid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a & b`` without allocating when either side is known all-True."""
    if a is b or const_true(b):
        return a
    if const_true(a):
        return b
    return a & b


def broadcast_literal(value: Any, nrows: int) -> Vector:
    """A literal as a read-only stride-0 column of ``nrows`` rows: numpy
    treats it like a scalar, so no per-row allocation."""
    if value is None:
        data = np.empty(1, dtype=object)
        return np.broadcast_to(data, (nrows,)), np.zeros(nrows, dtype=bool)
    if isinstance(value, bool):
        data = np.full(1, value, dtype=bool)
    elif isinstance(value, int):
        data = np.full(1, value, dtype=np.int64)
    elif isinstance(value, float):
        data = np.full(1, value, dtype=np.float64)
    else:
        data = np.empty(1, dtype=object)
        data[0] = value
    return np.broadcast_to(data, (nrows,)), all_valid(nrows)


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
    if const_true(valid):
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
        if t is int and -EXACT_INT <= v <= EXACT_INT:
            continue
        return None
    return data.astype(np.float64)


def vec_arith(
    op: str, ldata: np.ndarray, rdata: np.ndarray, valid: np.ndarray
) -> Vector:
    """SQL ``+ - * / %`` with NULL masking.

    Numeric arrays evaluate vectorised; ``/`` between two integer
    columns is floor division with zero denominators masked invalid.
    Object columns of pure python floats take a vectorised lane that
    reproduces the loop's ``ZeroDivisionError``; anything else falls to
    the exact per-row loop (timestamps, mixed types).
    """
    if is_numeric(ldata) and is_numeric(rdata):
        with np.errstate(all="ignore"):
            if op == "+":
                out = ldata + rdata
            elif op == "-":
                out = ldata - rdata
            elif op == "*":
                out = ldata * rdata
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
                raise SQLTypeError(str(exc)) from exc
    return out, valid


CMP_UFUNCS = {
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
    """SQL comparison with NULL masking.

    Numeric arrays compare vectorised.  Object columns of all-str or
    all-exact-number values take vectorised lanes; everything else
    (mixed types) keeps the per-row loop with its ``SQLTypeError``.
    """
    if is_numeric(ldata) and is_numeric(rdata):
        return CMP_UFUNCS[op](ldata, rdata), valid
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
            raise SQLTypeError(
                f"cannot compare {type(a).__name__} with "
                f"{type(b).__name__}"
            ) from None
    return out, valid


def _fast_compare(
    op: str, lsub: np.ndarray, rsub: np.ndarray
) -> Optional[np.ndarray]:
    """Vectorised comparison of the valid subsets, or None to fall back."""
    every = all_valid(len(lsub))
    if _all_plain_str(lsub, every) and _all_plain_str(rsub, every):
        return CMP_UFUNCS[op](lsub.astype(str), rsub.astype(str))
    lf = _exact_number_subset(lsub)
    if lf is None:
        return None
    rf = _exact_number_subset(rsub)
    if rf is None:
        return None
    return CMP_UFUNCS[op](lf, rf)


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
            and not -EXACT_INT <= v <= EXACT_INT
            for v in nums
        ):
            return None
        if nums:
            hits = np.isin(data, np.asarray(nums))
            if not const_true(valid):
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
        if not const_true(valid):
            hits &= valid
    return hits, all_valid(len(hits))
