"""Column-at-a-time SQL executor.

Every expression evaluates to a *vector*: a ``(data, valid)`` pair of numpy
arrays over the rows of the current frame — the same bulk-processing model
MonetDB uses.  Tables and SciQL arrays share this one engine: an array
statement evaluates over a frame of the array's cells
(:meth:`~repro.mdb.sciql.SciArray.to_frame`).  A scan copies only the
columns the statement names, and below joins without a LEFT JOIN each
``column <op> literal`` WHERE conjunct filters its own relation first.
An equi-join encodes both sides' keys to dense ``int64`` codes, sorts
the right side's stably and finds each left code's run of matches in a
table over the code span; GROUP BY factorises its keys to codes too and
splits the groups with one stable sort.
Ordering is a stable sort on the evaluated keys.
"""

from __future__ import annotations

from dataclasses import fields
from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.mdb.errors import (
    CatalogError,
    ExecutionError,
    SQLTypeError,
)
from repro.mdb.sql import ast
from repro.mdb.sql.functions import (
    AGGREGATE_FUNCTIONS,
    SCALAR_FUNCTIONS,
    is_aggregate,
)
from repro.mdb.sql.vectors import (
    Vector,
    all_valid,
    and_valid,
    bool_mask,
    broadcast_literal,
    const_true,
    is_numeric,
    vec_arith,
    vec_compare,
    vec_concat,
    vec_inlist_literals,
)
from repro.mdb.table import Column, Table
from repro.mdb.types import STRING, ColumnType, column_values, type_by_name


class Frame:
    """A set of named column vectors over the same row count.

    Columns are keyed ``(binding, column_name)``; ``binding`` is the table
    alias.  The insertion order of keys drives ``SELECT *`` expansion.
    """

    def __init__(self, nrows: int):
        self.nrows = nrows
        self.columns: Dict[Tuple[str, str], Vector] = {}

    @classmethod
    def from_table(
        cls,
        table: Table,
        binding: str,
        names: Optional[Sequence[str]] = None,
    ) -> "Frame":
        """Copies of the table's columns (``names``, default all)."""
        frame = cls(len(table))
        for name in table.column_names if names is None else names:
            bat = table.column(name)
            frame.columns[(binding, name)] = (
                bat.values.copy(),
                bat.validity.copy(),
            )
        return frame

    def add_column(self, binding: str, name: str, vector: Vector) -> None:
        self.columns[(binding, name)] = vector

    def resolve(self, name: str, binding: Optional[str]) -> Vector:
        if binding is not None:
            try:
                return self.columns[(binding, name)]
            except KeyError:
                raise CatalogError(
                    f"unknown column {binding}.{name}"
                ) from None
        matches = [
            key for key in self.columns if key[1] == name
        ]
        if not matches:
            raise CatalogError(f"unknown column {name!r}")
        if len(matches) > 1:
            raise CatalogError(
                f"ambiguous column {name!r} (bound by "
                f"{sorted({m[0] for m in matches})})"
            )
        return self.columns[matches[0]]

    def take(self, positions: np.ndarray) -> "Frame":
        out = Frame(len(positions))
        for key, (data, valid) in self.columns.items():
            if const_true(valid):
                valid = all_valid(len(positions))
            else:
                valid = valid[positions]
            out.columns[key] = (data[positions], valid)
        return out

    def copy(self) -> "Frame":
        out = Frame(self.nrows)
        for key, (data, valid) in self.columns.items():
            out.columns[key] = (data.copy(), valid.copy())
        return out

    def bindings(self) -> List[str]:
        seen: List[str] = []
        for binding, _ in self.columns:
            if binding not in seen:
                seen.append(binding)
        return seen


def _like_to_matcher(pattern: str):
    import re

    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    # re.escape escapes % and _ as themselves (no-op) in Python 3.7+.
    compiled = re.compile("^" + regex + "$", re.DOTALL)
    return lambda s: compiled.match(str(s)) is not None


class Evaluator:
    """Evaluates expression ASTs over a :class:`Frame`."""

    def __init__(self, frame: Frame):
        self.frame = frame

    def eval(self, expr: ast.Expr) -> Vector:
        method = getattr(self, "_eval_" + type(expr).__name__.lower(), None)
        if method is None:
            raise ExecutionError(f"cannot evaluate {type(expr).__name__}")
        return method(expr)

    # -- leaves -------------------------------------------------------------

    def _eval_literal(self, expr: ast.Literal) -> Vector:
        return broadcast_literal(expr.value, self.frame.nrows)

    def _eval_columnref(self, expr: ast.ColumnRef) -> Vector:
        return self.frame.resolve(expr.name, expr.table)

    # -- operators --------------------------------------------------------------

    def _eval_unaryop(self, expr: ast.UnaryOp) -> Vector:
        data, valid = self.eval(expr.operand)
        if expr.op == "-":
            if is_numeric(data):
                return -data, valid
            out = np.empty(len(data), dtype=object)
            for i, v in enumerate(data):
                out[i] = -v if valid[i] else None
            return out, valid
        if expr.op == "NOT":
            mask = bool_mask((data, valid))
            return ~mask, all_valid(len(mask))
        raise ExecutionError(f"unknown unary operator {expr.op!r}")

    def _eval_binaryop(self, expr: ast.BinaryOp) -> Vector:
        op = expr.op
        if op in ("AND", "OR"):
            left = bool_mask(self.eval(expr.left))
            right = bool_mask(self.eval(expr.right))
            out = (left & right) if op == "AND" else (left | right)
            return out, all_valid(len(out))
        ldata, lvalid = self.eval(expr.left)
        rdata, rvalid = self.eval(expr.right)
        valid = and_valid(lvalid, rvalid)
        if op == "||":
            return vec_concat(ldata, rdata, valid)
        if op in ("+", "-", "*", "/", "%"):
            return vec_arith(op, ldata, rdata, valid)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return vec_compare(op, ldata, rdata, valid)
        raise ExecutionError(f"unknown operator {op!r}")

    # -- predicates ------------------------------------------------------------

    def _eval_inlist(self, expr: ast.InList) -> Vector:
        data, valid = self.eval(expr.operand)
        if all(isinstance(item, ast.Literal) for item in expr.items):
            # One np.isin pass instead of O(items × rows) compares.
            fast = vec_inlist_literals(
                data,
                valid,
                [item.value for item in expr.items],
                expr.negated,
            )
            if fast is not None:
                return fast
        hits = np.zeros(len(data), dtype=bool)
        for item in expr.items:
            idata, ivalid = self.eval(item)
            item_vec = vec_compare("=", data, idata, and_valid(valid, ivalid))
            hits |= bool_mask(item_vec)
        if expr.negated:
            hits = ~hits & valid
        return hits, all_valid(len(hits))

    def _eval_between(self, expr: ast.Between) -> Vector:
        data, valid = self.eval(expr.operand)
        low_d, low_v = self.eval(expr.low)
        high_d, high_v = self.eval(expr.high)
        ge = bool_mask(
            vec_compare(">=", data, low_d, and_valid(valid, low_v))
        )
        le = bool_mask(
            vec_compare("<=", data, high_d, and_valid(valid, high_v))
        )
        out = ge & le
        if expr.negated:
            out = ~out & valid
        return out, all_valid(len(out))

    def _eval_isnull(self, expr: ast.IsNull) -> Vector:
        _, valid = self.eval(expr.operand)
        out = valid.copy() if expr.negated else ~valid
        return out, all_valid(len(out))

    def _eval_like(self, expr: ast.Like) -> Vector:
        data, valid = self.eval(expr.operand)
        pdata, pvalid = self.eval(expr.pattern)
        out = np.zeros(len(data), dtype=bool)
        matcher_cache: Dict[str, Any] = {}
        for i in range(len(data)):
            if not (valid[i] and pvalid[i]):
                continue
            pattern = str(pdata[i])
            matcher = matcher_cache.get(pattern)
            if matcher is None:
                matcher = _like_to_matcher(pattern)
                matcher_cache[pattern] = matcher
            out[i] = matcher(data[i])
        if expr.negated:
            out = ~out & valid
        return out, np.ones(len(out), dtype=bool)

    def _eval_cast(self, expr: ast.Cast) -> Vector:
        ctype = type_by_name(expr.type_name)
        return ctype.coerce_column(*self.eval(expr.operand))

    def _eval_case(self, expr: ast.Case) -> Vector:
        n = self.frame.nrows
        out = np.empty(n, dtype=object)
        valid = np.zeros(n, dtype=bool)
        decided = np.zeros(n, dtype=bool)
        for cond, value in expr.whens:
            mask = bool_mask(self.eval(cond)) & ~decided
            vdata, vvalid = self.eval(value)
            for i in np.nonzero(mask)[0]:
                out[i] = vdata[i] if vvalid[i] else None
                valid[i] = vvalid[i]
            decided |= mask
        if expr.default is not None:
            ddata, dvalid = self.eval(expr.default)
            rest = ~decided
            for i in np.nonzero(rest)[0]:
                out[i] = ddata[i] if dvalid[i] else None
                valid[i] = dvalid[i]
        return out, valid

    def _eval_functioncall(self, expr: ast.FunctionCall) -> Vector:
        name = expr.name
        if is_aggregate(name):
            raise ExecutionError(
                f"aggregate {name}() used outside of a grouping context"
            )
        fn = SCALAR_FUNCTIONS.get(name)
        if fn is None:
            raise ExecutionError(f"unknown function {name}()")
        args = [self.eval(a) for a in expr.args]
        if not args:
            raise ExecutionError(f"{name}() needs at least one argument")
        return fn(*args)

    def _eval_star(self, expr: ast.Star) -> Vector:
        raise ExecutionError("'*' is only allowed in SELECT lists")


def _contains_aggregate(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.FunctionCall):
        if is_aggregate(expr.name):
            return True
        return any(_contains_aggregate(a) for a in expr.args)
    if isinstance(expr, ast.BinaryOp):
        return _contains_aggregate(expr.left) or _contains_aggregate(
            expr.right
        )
    if isinstance(expr, ast.UnaryOp):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.Cast):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, (ast.InList,)):
        return _contains_aggregate(expr.operand) or any(
            _contains_aggregate(i) for i in expr.items
        )
    if isinstance(expr, ast.Between):
        return any(
            _contains_aggregate(e)
            for e in (expr.operand, expr.low, expr.high)
        )
    if isinstance(expr, (ast.IsNull,)):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.Like):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.Case):
        parts = [e for pair in expr.whens for e in pair]
        if expr.default is not None:
            parts.append(expr.default)
        return any(_contains_aggregate(p) for p in parts)
    return False


class GroupEvaluator:
    """Evaluates select/having expressions in a grouped context.

    ``groups`` holds each group's row positions, ``sizes`` their lengths
    and ``group_keys`` one ``(object data, valid)`` vector per grouping
    expression with one value per group.
    """

    def __init__(
        self,
        frame: Frame,
        groups: List[np.ndarray],
        sizes: np.ndarray,
        group_exprs: Sequence[ast.Expr],
        group_keys: List[Vector],
    ):
        self.frame = frame
        self.groups = groups
        self.sizes = sizes
        self.group_exprs = list(group_exprs)
        self.group_keys = group_keys
        self._scalar_eval = Evaluator(frame)

    def eval(self, expr: ast.Expr) -> Vector:
        n = len(self.groups)
        # Grouping expression: one key value per group.
        for gexpr, (keys, valid) in zip(self.group_exprs, self.group_keys):
            if expr == gexpr:
                return keys.copy(), valid.copy()
        if isinstance(expr, ast.FunctionCall) and is_aggregate(expr.name):
            return self._aggregate(expr)
        if isinstance(expr, ast.Literal):
            return broadcast_literal(expr.value, n)
        if isinstance(expr, ast.BinaryOp):
            lhs = self.eval(expr.left)
            rhs = self.eval(expr.right)
            tmp = Frame(n)
            tmp.add_column("$g", "$l", lhs)
            tmp.add_column("$g", "$r", rhs)
            ev = Evaluator(tmp)
            return ev._eval_binaryop(
                ast.BinaryOp(
                    expr.op,
                    ast.ColumnRef("$l", "$g"),
                    ast.ColumnRef("$r", "$g"),
                )
            )
        if isinstance(expr, ast.UnaryOp):
            inner = self.eval(expr.operand)
            tmp = Frame(n)
            tmp.add_column("$g", "$v", inner)
            return Evaluator(tmp)._eval_unaryop(
                ast.UnaryOp(expr.op, ast.ColumnRef("$v", "$g"))
            )
        if isinstance(expr, ast.ColumnRef):
            raise ExecutionError(
                f"column {expr.qualified!r} must appear in GROUP BY or "
                "inside an aggregate"
            )
        raise ExecutionError(
            f"unsupported expression in grouped context: "
            f"{type(expr).__name__}"
        )

    def _aggregate(self, expr: ast.FunctionCall) -> Vector:
        fn = AGGREGATE_FUNCTIONS[expr.name]
        n = len(self.groups)
        out = np.empty(n, dtype=object)
        valid = np.ones(n, dtype=bool)
        if expr.star:
            out[:] = self.sizes.tolist()
            return out, valid
        if len(expr.args) != 1:
            raise ExecutionError(
                f"aggregate {expr.name}() takes exactly one argument"
            )
        data, data_valid = self._scalar_eval.eval(expr.args[0])
        for k, positions in enumerate(self.groups):
            values = list(data[positions[data_valid[positions]]])
            if expr.distinct:
                seen = []
                for v in values:
                    if v not in seen:
                        seen.append(v)
                values = seen
            result = fn(values)
            out[k] = result
            if result is None:
                valid[k] = False
        return out, valid


class Executor:
    """Executes parsed statements against a catalog."""

    def __init__(self, catalog):
        self.catalog = catalog

    # -- dispatch ------------------------------------------------------------

    def execute(self, stmt: ast.Statement):
        from repro.mdb.database import Result

        if isinstance(stmt, ast.Select):
            names, columns = self.run_select(stmt)
            return Result(names, columns)
        if isinstance(stmt, ast.CreateTable):
            return self._create_table(stmt)
        if isinstance(stmt, ast.CreateArray):
            return self._create_array(stmt)
        if isinstance(stmt, ast.DropRelation):
            return self._drop(stmt)
        if isinstance(stmt, ast.Insert):
            return self._insert(stmt)
        if isinstance(stmt, ast.Update):
            return self._update(stmt)
        if isinstance(stmt, ast.Delete):
            return self._delete(stmt)
        raise ExecutionError(f"cannot execute {type(stmt).__name__}")

    # -- DDL ---------------------------------------------------------------------

    def _create_table(self, stmt: ast.CreateTable):
        from repro.mdb.database import Result

        if stmt.if_not_exists and self.catalog.has_relation(stmt.name):
            return Result.affected(0)
        columns = [
            Column(c.name, type_by_name(c.type_name)) for c in stmt.columns
        ]
        self.catalog.add_table(Table(stmt.name, columns))
        return Result.affected(0)

    def _create_array(self, stmt: ast.CreateArray):
        from repro.mdb.database import Result
        from repro.mdb.sciql import SciArray

        self.catalog.add_array(SciArray.from_ast(stmt))
        return Result.affected(0)

    def _drop(self, stmt: ast.DropRelation):
        from repro.mdb.database import Result

        if stmt.kind == "table":
            self.catalog.drop_table(stmt.name, if_exists=stmt.if_exists)
        else:
            self.catalog.drop_array(stmt.name, if_exists=stmt.if_exists)
        return Result.affected(0)

    # -- DML ---------------------------------------------------------------------

    def _insert(self, stmt: ast.Insert):
        from repro.mdb.database import Result

        table = self.catalog.table(stmt.table)
        if stmt.select is not None:
            _, vectors = self.run_select(stmt.select)
            n = len(vectors[0][0]) if vectors else 0
            widths = [len(vectors)] if n else []
            given = [column_values(*vector) for vector in vectors]
        else:
            evaluator = Evaluator(Frame(1))
            rows = [
                [evaluator.eval(expr) for expr in row_exprs]
                for row_exprs in stmt.rows
            ]
            n = len(rows)
            widths = [len(row) for row in rows]
            given = [
                [data[0] if valid[0] else None for data, valid in column]
                for column in zip(*rows)
            ]
        columns = [c.lower() for c in stmt.columns or table.column_names]
        unknown = set(columns) - set(table.column_names)
        if unknown:
            raise CatalogError(
                f"unknown columns {sorted(unknown)} for table "
                f"{table.name!r}"
            )
        for width in widths:
            if width != len(columns):
                raise ExecutionError(
                    f"INSERT expects {len(columns)} values, got {width}"
                )
        values = dict(zip(columns, given))
        # One insert_columns call = one journal record for the whole
        # statement: a multi-row INSERT is applied (and recovered)
        # atomically.
        table.insert_columns(
            {c: values.get(c, [None] * n) for c in table.column_names}
        )
        return Result.affected(n)

    def _update(self, stmt: ast.Update):
        from repro.mdb.database import Result

        if self.catalog.has_array(stmt.table):
            from repro.mdb import sciql

            count = sciql.update_array(
                self.catalog.array(stmt.table), stmt
            )
            return Result.affected(count)
        table = self.catalog.table(stmt.table)
        frame = Frame.from_table(table, table.name)
        if stmt.where is not None:
            mask = bool_mask(Evaluator(frame).eval(stmt.where))
            positions = np.nonzero(mask)[0]
        else:
            positions = np.arange(len(table))
        if len(positions) == 0:
            return Result.affected(0)
        sub = frame.take(positions)
        evaluator = Evaluator(sub)
        table.update_positions(
            positions,
            {
                col_name: column_values(*evaluator.eval(expr))
                for col_name, expr in stmt.assignments
            },
        )
        return Result.affected(len(positions))

    def _delete(self, stmt: ast.Delete):
        from repro.mdb.database import Result

        table = self.catalog.table(stmt.table)
        if stmt.where is None:
            count = len(table)
            table.truncate()
            return Result.affected(count)
        frame = Frame.from_table(table, table.name)
        mask = bool_mask(Evaluator(frame).eval(stmt.where))
        positions = np.nonzero(mask)[0]
        table.delete_positions(positions)
        return Result.affected(len(positions))

    # -- SELECT -----------------------------------------------------------------

    def run_select(
        self, stmt: ast.Select
    ) -> Tuple[List[str], List[Vector]]:
        frame, where = self._build_frame(stmt)
        if where is not None:
            frame = _filter(frame, [where])
        grouped = bool(stmt.group_by) or any(
            _contains_aggregate(item.expr) for item in stmt.items
        ) or (stmt.having is not None)
        if grouped:
            names, columns, order_keys = self._grouped_projection(stmt, frame)
        else:
            names, columns, order_keys = self._plain_projection(stmt, frame)
        columns = _apply_order(stmt.order_by, columns, order_keys)
        if stmt.distinct:
            columns = _distinct(columns)
        columns = _apply_limit(columns, stmt.limit, stmt.offset)
        return names, columns

    def _build_frame(
        self, stmt: ast.Select
    ) -> Tuple[Frame, Optional[ast.Expr]]:
        """Scan and join the FROM clause; returns the frame and the part
        of WHERE still to apply to it."""
        if stmt.from_table is None:
            return Frame(1), stmt.where  # SELECT 1+1
        wanted = _referenced_columns(stmt)
        if not stmt.joins:
            where = [] if stmt.where is None else [stmt.where]
            return self._scan(stmt.from_table, wanted, where), None
        refs = [stmt.from_table] + [join.table for join in stmt.joins]
        schemas = [self._schema(ref) for ref in refs]
        pushed, where = _plan_pushdown(stmt, refs, schemas)
        frame = self._scan(refs[0], wanted, pushed[0])
        kinds = _qualify(refs[0].binding, schemas[0])
        for join, ref, schema, preds in zip(
            stmt.joins, refs[1:], schemas[1:], pushed[1:]
        ):
            right = self._scan(ref, wanted, preds)
            # Checked on the full schemas: the scans may have pruned the
            # colliding columns.
            for name in schema:
                if (ref.binding, name) in kinds:
                    raise CatalogError(
                        f"duplicate binding {ref.binding}.{name} in join; "
                        "use aliases"
                    )
            kinds.update(_qualify(ref.binding, schema))
            frame = self._join(frame, right, join, kinds)
        return frame, where

    def _schema(self, ref: ast.TableRef) -> Optional[Dict[str, str]]:
        """Column name → value kind of a relation in frame column order,
        or None when the catalog has no such relation."""
        if self.catalog.has_array(ref.name):
            array = self.catalog.array(ref.name)
            schema = {d.name: _NUM for d in array.dimensions}
            schema.update(
                (name, _type_kind(ctype)) for name, ctype in array.attributes
            )
            return schema
        if not self.catalog.has_table(ref.name):
            return None
        return {
            c.name: _type_kind(c.ctype)
            for c in self.catalog.table(ref.name).columns
        }

    def _scan(
        self,
        ref: ast.TableRef,
        wanted: Set[Tuple[Optional[str], str]],
        predicates: Sequence[ast.Expr],
    ) -> Frame:
        """The relation's referenced columns, filtered by the WHERE
        conjuncts pushed down to it."""
        binding = ref.binding
        if self.catalog.has_array(ref.name):
            array = self.catalog.array(ref.name)
            names = [
                name
                for name in array.column_names
                if is_wanted(wanted, binding, name)
            ]
            frame = array.to_frame(binding, names)
            # The frame's columns view the live planes.  Filtering gathers
            # copies and an unfiltered scan copies, as a table scan does,
            # so no Result aliases a plane that a later write changes.
            if not predicates:
                return frame.copy()
        else:
            table = self.catalog.table(ref.name)
            names = [
                name
                for name in table.column_names
                if is_wanted(wanted, binding, name)
            ]
            frame = Frame.from_table(table, binding, names)
        return _filter(frame, predicates) if predicates else frame

    def _join(
        self,
        left: Frame,
        right: Frame,
        join: ast.Join,
        kinds: Dict[Tuple[str, str], str],
    ) -> Frame:
        if join.kind == "cross" or join.condition is None:
            combined = _cross_join(left, right)
        else:
            pairs, residual = _split_equi_keys(join.condition, left, right)
            if pairs and not residual:
                combined = _equi_join(
                    left, right, pairs, keep_unmatched_left=join.kind == "left"
                )
            elif (
                pairs
                and join.kind == "inner"
                and all(_kind(conj, kinds) is not None for conj in residual)
            ):
                # The residual sees only the key matches instead of the
                # cross product, so it must not be able to raise.
                combined = _filter(
                    _equi_join(left, right, pairs, keep_unmatched_left=False),
                    residual,
                )
            else:
                combined = _cross_join(left, right)
                mask = bool_mask(Evaluator(combined).eval(join.condition))
                if join.kind == "left":
                    combined = _left_join_fixup(left, right, combined, mask)
                else:
                    combined = combined.take(np.flatnonzero(mask))
        obs.counter("sql.join.rows").inc(combined.nrows)
        return combined

    def _plain_projection(
        self, stmt: ast.Select, frame: Frame
    ) -> Tuple[List[str], List[Vector], List[Vector]]:
        evaluator = Evaluator(frame)
        names: List[str] = []
        columns: List[Vector] = []
        by_alias: Dict[str, Vector] = {}
        by_expr: List[Tuple[ast.Expr, Vector]] = []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                for (binding, col), vec in frame.columns.items():
                    if item.expr.table and binding != item.expr.table:
                        continue
                    names.append(col)
                    columns.append((vec[0].copy(), vec[1].copy()))
                continue
            vec = evaluator.eval(item.expr)
            name = item.alias or _default_name(item.expr)
            names.append(name)
            columns.append(vec)
            by_alias.setdefault(name, vec)
            by_expr.append((item.expr, vec))
        order_keys: List[Vector] = []
        for order in stmt.order_by:
            vec = _lookup_projected(order.expr, by_alias, by_expr)
            if vec is None:
                vec = evaluator.eval(order.expr)
            order_keys.append(vec)
        return names, columns, order_keys

    def _grouped_projection(
        self, stmt: ast.Select, frame: Frame
    ) -> Tuple[List[str], List[Vector], List[Vector]]:
        evaluator = Evaluator(frame)
        key_vectors = [evaluator.eval(e) for e in stmt.group_by]
        if stmt.group_by:
            codes, first = _group_codes(key_vectors, frame.nrows)
            sizes = np.bincount(codes, minlength=len(first))
            rows = np.argsort(codes, kind="stable")
            groups = np.split(rows, np.cumsum(sizes)[:-1]) if len(first) else []
            keys = [_group_key(vec, first) for vec in key_vectors]
        else:
            groups = [np.arange(frame.nrows)]
            sizes = np.array([frame.nrows])
            keys = []
        gev = GroupEvaluator(frame, groups, sizes, stmt.group_by, keys)
        if stmt.having is not None:
            keep = np.flatnonzero(bool_mask(gev.eval(stmt.having)))
            groups = [groups[i] for i in keep]
            keys = [(data[keep], valid[keep]) for data, valid in keys]
            gev = GroupEvaluator(
                frame, groups, sizes[keep], stmt.group_by, keys
            )
        names: List[str] = []
        columns: List[Vector] = []
        by_alias: Dict[str, Vector] = {}
        by_expr: List[Tuple[ast.Expr, Vector]] = []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                raise ExecutionError("SELECT * cannot be combined with GROUP BY")
            vec = gev.eval(item.expr)
            name = item.alias or _default_name(item.expr)
            names.append(name)
            columns.append(vec)
            by_alias.setdefault(name, vec)
            by_expr.append((item.expr, vec))
        order_keys: List[Vector] = []
        for order in stmt.order_by:
            vec = _lookup_projected(order.expr, by_alias, by_expr)
            if vec is None:
                vec = gev.eval(order.expr)
            order_keys.append(vec)
        return names, columns, order_keys

    # (ordering is handled by the module-level _apply_order)


class _OrderWrap:
    """Makes None and mixed types sortable deterministically."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        a, b = self.value, other.value
        if a is None:
            return b is not None
        if b is None:
            return False
        try:
            return a < b
        except TypeError:
            return str(a) < str(b)

    def __eq__(self, other):
        return self.value == other.value


def _orderable(value):
    return _OrderWrap(value)


def _lookup_projected(
    expr: ast.Expr,
    by_alias: Dict[str, Vector],
    by_expr: List[Tuple[ast.Expr, Vector]],
) -> Optional[Vector]:
    """Resolve an ORDER BY expression against the SELECT output: first by
    alias name, then by structural expression equality."""
    if isinstance(expr, ast.ColumnRef) and expr.table is None:
        if expr.name in by_alias:
            return by_alias[expr.name]
    for item_expr, vec in by_expr:
        if item_expr == expr:
            return vec
    return None


def _apply_order(
    order_by: Sequence[ast.OrderItem],
    columns: List[Vector],
    order_keys: List[Vector],
) -> List[Vector]:
    """Stable multi-key sort of the output columns by pre-computed keys."""
    if not order_by or not columns:
        return columns
    nrows = len(columns[0][0])
    indices = list(range(nrows))
    # Sort by each key from last to first; stability composes them.
    for (data, valid), item in reversed(list(zip(order_keys, order_by))):
        def one_key(i, d=data, v=valid):
            return (
                (v[i] if item.descending else not v[i]),
                _orderable(d[i] if v[i] else None),
            )

        indices.sort(key=one_key, reverse=item.descending)
    positions = np.asarray(indices, dtype=int)
    return [(data[positions], valid[positions]) for data, valid in columns]


def _default_name(expr: ast.Expr) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FunctionCall):
        return expr.name
    return "expr"


def _filter(frame: Frame, predicates: Sequence[ast.Expr]) -> Frame:
    """The rows of ``frame`` every predicate holds for."""
    evaluator = Evaluator(frame)
    mask = None
    for pred in predicates:
        hits = bool_mask(evaluator.eval(pred))
        mask = hits if mask is None else mask & hits
    return frame.take(np.flatnonzero(mask))


def _conjuncts(expr: ast.Expr) -> List[ast.Expr]:
    """The top-level AND operands of ``expr``, left to right."""
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


# -- scan pruning and WHERE pushdown -------------------------------------------


def _referenced_columns(stmt: ast.Select) -> Set[Tuple[Optional[str], str]]:
    """``(binding or None, column)`` for every column the statement names;
    ``SELECT *`` and ``t.*`` appear with ``"*"`` as the column."""
    return column_refs(
        tuple(item.expr for item in stmt.items),
        (stmt.where, stmt.having) + stmt.group_by,
        tuple(item.expr for item in stmt.order_by),
        tuple(join.condition for join in stmt.joins),
    )


def column_refs(*nodes: Any) -> Set[Tuple[Optional[str], str]]:
    """``(binding or None, column)`` for every column reference in the
    expression trees ``nodes`` (``None`` entries are skipped)."""
    found: Set[Tuple[Optional[str], str]] = set()

    def walk(node: Any) -> None:
        if isinstance(node, ast.ColumnRef):
            found.add((node.table, node.name))
        elif isinstance(node, ast.Star):
            found.add((node.table, "*"))
        elif isinstance(node, ast.Expr):
            for field in fields(node):
                walk(getattr(node, field.name))
        elif isinstance(node, tuple):
            for item in node:
                walk(item)

    walk(nodes)
    return found


def is_wanted(
    wanted: Set[Tuple[Optional[str], str]], binding: str, name: str
) -> bool:
    return (
        (binding, name) in wanted
        or (None, name) in wanted
        or (binding, "*") in wanted
        or (None, "*") in wanted
    )


# Value kinds for deciding, from the schema alone, that evaluating an
# expression cannot raise on any rows.
_NUM, _BOOL, _STR, _NULL, _OTHER = "num", "bool", "str", "null", "other"
_ORDERING = ("<", "<=", ">", ">=")
_COMPARISONS = ("=", "<>") + _ORDERING


def _type_kind(ctype: ColumnType) -> str:
    if ctype.dtype.kind in "if":
        return _NUM
    if ctype.dtype.kind == "b":
        return _BOOL
    return _STR if ctype == STRING else _OTHER


def _qualify(binding: str, schema: Dict[str, str]) -> Dict[Tuple[str, str], str]:
    return {(binding, name): kind for name, kind in schema.items()}


def _resolve_key(
    ref: ast.ColumnRef, kinds: Dict[Tuple[str, str], str]
) -> Optional[Tuple[str, str]]:
    """The frame key a column reference resolves to, or None when it is
    unknown or ambiguous (mirrors :meth:`Frame.resolve`)."""
    if ref.table is not None:
        key = (ref.table, ref.name)
        return key if key in kinds else None
    matches = [key for key in kinds if key[1] == ref.name]
    return matches[0] if len(matches) == 1 else None


def _orderable_kinds(*kinds: str) -> bool:
    """Can ``<``-style comparisons between these kinds never raise?"""
    live = set(kinds) - {_NULL}
    return live <= {_NUM, _BOOL} or live == {_STR}


def _kind(expr: ast.Expr, kinds: Dict[Tuple[str, str], str]) -> Optional[str]:
    """The kind of value ``expr`` evaluates to when evaluating it cannot
    raise on any rows of the bindings in ``kinds``; None when it might.

    Moving a predicate below or behind a join changes the rows it is
    evaluated on, which must not change whether — or what — the
    statement raises; only predicates this accepts are moved.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        if value is None:
            return _NULL
        if isinstance(value, bool):
            return _BOOL
        if isinstance(value, float) or (
            isinstance(value, int) and -(2**63) <= value < 2**63
        ):
            return _NUM
        return _STR if isinstance(value, str) else None
    if isinstance(expr, ast.ColumnRef):
        key = _resolve_key(expr, kinds)
        return None if key is None else kinds[key]
    if isinstance(expr, ast.BinaryOp):
        left, right = _kind(expr.left, kinds), _kind(expr.right, kinds)
        if left is None or right is None:
            return None
        if expr.op in ("AND", "OR", "=", "<>"):
            return _BOOL
        if expr.op in _ORDERING:
            return _BOOL if _orderable_kinds(left, right) else None
        if expr.op in ("+", "-", "*", "/", "%"):
            return _NUM if left == right == _NUM else None
        return _STR if expr.op == "||" else None
    if isinstance(expr, ast.UnaryOp):
        operand = _kind(expr.operand, kinds)
        if expr.op == "NOT" and operand is not None:
            return _BOOL
        return _NUM if expr.op == "-" and operand == _NUM else None
    if isinstance(expr, ast.IsNull):
        return None if _kind(expr.operand, kinds) is None else _BOOL
    if isinstance(expr, ast.InList):
        parts = [_kind(e, kinds) for e in (expr.operand, *expr.items)]
        return None if None in parts else _BOOL
    if isinstance(expr, ast.Between):
        parts = [_kind(e, kinds) for e in (expr.operand, expr.low, expr.high)]
        return _BOOL if None not in parts and _orderable_kinds(*parts) else None
    return None


def _pushable_column(expr: ast.Expr) -> Optional[ast.ColumnRef]:
    """The column of a ``column <op> literal``, ``IN (literals)``,
    ``BETWEEN literals`` or ``IS [NOT] NULL`` conjunct, else None."""
    if isinstance(expr, ast.BinaryOp) and expr.op in _COMPARISONS:
        sides = (expr.left, expr.right)
        if isinstance(expr.left, ast.Literal):
            sides = (expr.right, expr.left)
        column, rest = sides[0], sides[1:]
    elif isinstance(expr, ast.InList):
        column, rest = expr.operand, expr.items
    elif isinstance(expr, ast.Between):
        column, rest = expr.operand, (expr.low, expr.high)
    elif isinstance(expr, ast.IsNull):
        column, rest = expr.operand, ()
    else:
        return None
    if isinstance(column, ast.ColumnRef) and all(
        isinstance(e, ast.Literal) for e in rest
    ):
        return column
    return None


def _plan_pushdown(
    stmt: ast.Select,
    refs: Sequence[ast.TableRef],
    schemas: Sequence[Optional[Dict[str, str]]],
) -> Tuple[List[List[ast.Expr]], Optional[ast.Expr]]:
    """Split WHERE into the conjuncts each scan applies before the joins
    and the part applied above them.

    Only statements with joins but no LEFT JOIN qualify, and only when
    nothing in WHERE or ON can raise (:func:`_kind`): pushed-down, a
    predicate sees every row of its table, and the predicates above the
    join see fewer rows than they otherwise would.
    """
    unchanged = ([[] for _ in refs], stmt.where)
    if (
        not stmt.joins
        or stmt.where is None
        or any(join.kind == "left" for join in stmt.joins)
        or None in schemas
    ):
        return unchanged
    bindings = [ref.binding for ref in refs]
    if len(set(bindings)) < len(bindings):
        return unchanged
    kinds = _qualify(bindings[0], schemas[0])
    for join, binding, schema in zip(stmt.joins, bindings[1:], schemas[1:]):
        kinds.update(_qualify(binding, schema))
        if join.condition is not None and _kind(join.condition, kinds) is None:
            return unchanged
    conjuncts = _conjuncts(stmt.where)
    if any(_kind(conj, kinds) is None for conj in conjuncts):
        return unchanged
    pushed: List[List[ast.Expr]] = [[] for _ in refs]
    kept: List[ast.Expr] = []
    for conj in conjuncts:
        column = _pushable_column(conj)
        if column is None:
            kept.append(conj)
        else:
            binding = _resolve_key(column, kinds)[0]
            pushed[bindings.index(binding)].append(conj)
    if not any(pushed):
        return unchanged
    obs.counter("sql.where.pushed").inc(len(conjuncts) - len(kept))
    where = None
    for conj in kept:
        where = conj if where is None else ast.BinaryOp("AND", where, conj)
    return pushed, where


# -- joins -------------------------------------------------------------------------


def _split_equi_keys(
    expr: ast.Expr, left: Frame, right: Frame
) -> Tuple[List[Tuple[Vector, Vector]], List[ast.Expr]]:
    """Split an ON condition into equi-join key pairs — one
    ``(left_vec, right_vec)`` per ``left_col = right_col`` conjunct —
    and the residual conjuncts."""
    pairs: List[Tuple[Vector, Vector]] = []
    residual: List[ast.Expr] = []
    for conj in _conjuncts(expr):
        pair = None
        if (
            isinstance(conj, ast.BinaryOp)
            and conj.op == "="
            and isinstance(conj.left, ast.ColumnRef)
            and isinstance(conj.right, ast.ColumnRef)
        ):
            for a, b in ((conj.left, conj.right), (conj.right, conj.left)):
                side_a, side_b = _try_resolve(left, a), _try_resolve(right, b)
                if side_a is not None and side_b is not None:
                    pair = (side_a, side_b)
                    break
        if pair is None:
            residual.append(conj)
        else:
            pairs.append(pair)
    return pairs, residual


def _try_resolve(frame: Frame, ref: ast.ColumnRef):
    try:
        return frame.resolve(ref.name, ref.table)
    except CatalogError:
        return None


def _join_keys(vectors: List[Vector]) -> Tuple[List[Any], np.ndarray]:
    """One side's key tuples as Python values (bare values for a single
    column), and the rows whose key has no NULL and no NaN."""
    ok = np.ones(len(vectors[0][0]), dtype=bool)
    for data, valid in vectors:
        ok &= valid
        if data.dtype.kind == "f":
            ok &= ~np.isnan(data)
    columns = [data.tolist() for data, _ in vectors]
    keys = columns[0] if len(columns) == 1 else list(zip(*columns))
    return keys, ok


def _join_codes(
    pairs: List[Tuple[Vector, Vector]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dense ``int64`` key codes and matchable-row masks for both sides.

    A single integer key is its own code when the right side's keys span
    fewer values than the two sides have rows.  Any other key takes one
    dict pass per side, so keys match under Python equality
    (``1 == 1.0``, ``2**53 + 1 != float(2**53)``); a NULL or NaN never
    matches.
    """
    (ldata, lvalid), (rdata, rvalid) = pairs[0]
    if len(pairs) == 1 and ldata.dtype.kind == "i" == rdata.dtype.kind:
        keys = rdata[rvalid]
        span = int(keys.max()) - int(keys.min()) if len(keys) else 0
        if span < len(ldata) + len(rdata):
            return ldata, lvalid, rdata, rvalid
    left_keys, lok = _join_keys([lvec for lvec, _ in pairs])
    right_keys, rok = _join_keys([rvec for _, rvec in pairs])
    index = dict.fromkeys(right_keys)
    for code, key in enumerate(index):
        index[key] = code
    rcodes = np.fromiter(
        map(index.__getitem__, right_keys), np.int64, len(right_keys)
    )
    lcodes = np.fromiter(
        map(index.get, left_keys, repeat(-1)), np.int64, len(left_keys)
    )
    return lcodes, lok, rcodes, rok


def _probe(
    ranked: np.ndarray, codes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Start and length of each code's run in ``ranked``: sorted codes
    spanning few values, so a table over the span replaces a binary
    search per probe."""
    if not len(ranked):
        return np.zeros(len(codes), np.intp), np.zeros(len(codes), np.intp)
    low, high = int(ranked[0]), int(ranked[-1])
    lengths = np.bincount(ranked - low)
    starts = np.cumsum(lengths) - lengths
    inside = (codes >= low) & (codes <= high)
    slots = np.where(inside, codes - low, 0)
    return starts[slots], np.where(inside, lengths[slots], 0)


def _equi_join(
    left: Frame,
    right: Frame,
    pairs: List[Tuple[Vector, Vector]],
    keep_unmatched_left: bool,
) -> Frame:
    """Rows in left order, each left row's matches in right order; an
    unmatched left row of a LEFT JOIN keeps its place with a NULL right
    side."""
    lcodes, lok, rcodes, rok = _join_codes(pairs)
    candidates = np.flatnonzero(rok)
    order = candidates[np.argsort(rcodes[candidates], kind="stable")]
    lo, counts = _probe(rcodes[order], lcodes)
    counts[~lok] = 0
    emit = np.maximum(counts, 1) if keep_unmatched_left else counts
    left_idx = np.repeat(np.arange(left.nrows), emit)
    starts = np.cumsum(emit) - emit
    ranks = np.arange(len(left_idx)) + np.repeat(lo - starts, emit)
    if not keep_unmatched_left:
        return _combine(left, right, left_idx, order[ranks])
    filler = np.repeat(counts == 0, emit)
    right_idx = np.zeros(len(left_idx), dtype=np.intp)
    right_idx[~filler] = order[ranks[~filler]]
    return _combine(left, right, left_idx, right_idx, filler)


def _nulls(dtype: np.dtype, n: int) -> Vector:
    return (
        np.full(n, None if dtype == object else 0, dtype=dtype),
        np.zeros(n, dtype=bool),
    )


def _combine(
    left: Frame,
    right: Frame,
    left_idx: np.ndarray,
    right_idx: np.ndarray,
    filler: Optional[np.ndarray] = None,
) -> Frame:
    """Rows ``left[left_idx]`` beside ``right[right_idx]``; rows marked
    in ``filler`` get a NULL right side."""
    out = Frame(len(left_idx))
    for key, (data, valid) in left.columns.items():
        out.columns[key] = (data[left_idx], valid[left_idx])
    for key, (data, valid) in right.columns.items():
        if right.nrows == 0:
            # Every row is an unmatched-left filler row.
            out.columns[key] = _nulls(data.dtype, len(right_idx))
            continue
        taken = valid[right_idx]
        if filler is not None:
            taken &= ~filler
        out.columns[key] = (data[right_idx], taken)
    return out


def _cross_join(left: Frame, right: Frame) -> Frame:
    return _combine(
        left,
        right,
        np.repeat(np.arange(left.nrows), right.nrows),
        np.tile(np.arange(right.nrows), left.nrows),
    )


def _left_join_fixup(
    left: Frame, right: Frame, combined: Frame, mask: np.ndarray
) -> Frame:
    """LEFT JOIN with a non-equi condition via the cross product: the
    matches, then each unmatched left row with a NULL right side."""
    keep = np.flatnonzero(mask)
    matched_left = np.zeros(left.nrows, dtype=bool)
    matched_left[keep // max(right.nrows, 1)] = True
    result = combined.take(keep)
    missing = np.flatnonzero(~matched_left)
    if len(missing) == 0:
        return result
    extra = Frame(len(missing))
    for key, (data, valid) in left.columns.items():
        extra.columns[key] = (data[missing], valid[missing])
    for key, (data, _) in right.columns.items():
        extra.columns[key] = _nulls(data.dtype, len(missing))
    merged = Frame(result.nrows + extra.nrows)
    for key in result.columns:
        d1, v1 = result.columns[key]
        d2, v2 = extra.columns[key]
        merged.columns[key] = (
            np.concatenate([d1, d2]),
            np.concatenate([v1, v2]),
        )
    return merged


# -- grouping ---------------------------------------------------------------------


def _column_codes(data: np.ndarray, valid: np.ndarray) -> Tuple[np.ndarray, int]:
    """Codes in ``[0, k)`` that are equal exactly when the keys are:
    Python equality for objects (``1 == 1.0``), one code for all NULLs
    and one of its own for every NaN — a dict of key tuples' grouping.
    Some codes may go unused."""
    if data.dtype.kind in "biuf":
        uniq, codes = np.unique(data, return_inverse=True, equal_nan=False)
        codes, k = codes.reshape(-1), len(uniq)
    else:
        values = data.tolist()
        index = dict.fromkeys(values)
        for code, key in enumerate(index):
            index[key] = code
        codes = np.fromiter(map(index.__getitem__, values), np.intp, len(values))
        k = len(index)
    codes[~valid] = k
    return codes, k + 1


def _group_codes(key_vectors: List[Vector], n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's group code, numbered in first-appearance order, and
    the first row of every group."""
    codes, width = np.zeros(n, dtype=np.intp), 1
    for data, valid in key_vectors:
        column, k = _column_codes(data, valid)
        codes, width = codes * k + column, width * k
        if width > 2 * n:
            # Re-pack so the next column's product cannot overflow.
            uniq, codes = np.unique(codes, return_inverse=True)
            codes, width = codes.reshape(-1), len(uniq)
    first = np.full(width, n, dtype=np.intp)
    np.minimum.at(first, codes, np.arange(n))
    used = np.flatnonzero(first < n)
    used = used[np.argsort(first[used])]
    rank = np.empty(width, dtype=np.intp)
    rank[used] = np.arange(len(used))
    return rank[codes], first[used]


def _group_key(vec: Vector, first: np.ndarray) -> Vector:
    """One grouping key value per group (its first row's), as objects."""
    data, valid = vec
    keys = np.empty(len(first), dtype=object)
    keys[:] = list(data[first])
    key_valid = valid[first]
    keys[~key_valid] = None
    return keys, key_valid


def _distinct(columns: List[Vector]) -> List[Vector]:
    if not columns:
        return columns
    n = len(columns[0][0])
    seen = set()
    keep: List[int] = []
    for i in range(n):
        key = tuple(
            (col[0][i] if col[1][i] else None) for col in columns
        )
        try:
            hashable = key
            if hashable not in seen:
                seen.add(hashable)
                keep.append(i)
        except TypeError:
            if key not in [k for k in seen]:
                keep.append(i)
    idx = np.asarray(keep, dtype=int)
    return [(data[idx], valid[idx]) for data, valid in columns]


def _apply_limit(
    columns: List[Vector], limit: Optional[int], offset: Optional[int]
) -> List[Vector]:
    if limit is None and offset is None:
        return columns
    start = offset or 0
    stop = start + limit if limit is not None else None
    return [
        (data[start:stop], valid[start:stop]) for data, valid in columns
    ]
