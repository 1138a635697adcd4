"""stSPARQL evaluation over a Strabon store.

Solutions are dictionaries ``{var_name: RDFTerm}``.  Every basic graph
pattern runs through the join of :mod:`repro.strabon.stsparql.iterators`
— its planner orders the patterns, places each FILTER on the scan that
binds its last variable and narrows indexable spatial FILTERs to R-tree
candidates — seeded with the solutions of the group so far.  This module
evaluates what has no streaming form around it: OPTIONAL, UNION, BIND,
VALUES, property paths, aggregates, ORDER BY, CONSTRUCT/ASK/DESCRIBE and
update templates, and every expression.  A FILTER over many solutions
runs through :mod:`repro.kernels` — the batched envelope lane for
spatial predicates and distance comparisons, compiled numeric kernels
for the rest.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Set, Tuple

from repro import kernels, obs
from repro.geometry import Geometry
from repro.rdf.term import BNode, Literal, RDFTerm, URIRef, Variable
from repro.strabon import strdf
from repro.strabon.stsparql import algebra as alg
from repro.strabon.stsparql.errors import StSPARQLError
from repro.strabon.stsparql.functions import (
    BUILTINS,
    EXTENSIONS,
    ebv,
    is_aggregate_name,
    term_value,
)
from repro.strabon.stsparql.iterators import (
    RowsIterator,
    Solution,
    _expr_has_aggregate,
    _expr_vars,
    _triple_vars,
    build_select_pipeline,
    join_solutions,
    pipeline_variables,
    solution_modifiers,
)
from repro.strabon.stsparql.results import (
    AskResult,
    ConstructResult,
    SelectResult,
)


class _ExprError(StSPARQLError):
    """Expression evaluation error → the solution is filtered out."""


class Evaluator:
    """Evaluates parsed queries/updates against a store."""

    def __init__(self, store, use_spatial_index: bool = True):
        self.store = store
        self.use_spatial_index = use_spatial_index
        self.ctx = store.geometries
        self._count = store.graph.count_estimate

    # -- public entry points -------------------------------------------------

    def select(self, query: alg.SelectQuery) -> SelectResult:
        """A streamable SELECT runs on the serving tier's pipeline with
        no quantum; the rest through the operators here."""
        pipe = build_select_pipeline(
            query, self.store, self.use_spatial_index
        )
        if pipe is not None:
            return SelectResult(pipeline_variables(query), pipe.run())
        solutions = self._pattern(query.where, [dict()])
        aggregated = bool(query.group_by) or any(
            p.expr is not None and _expr_has_aggregate(p.expr)
            for p in query.projections
        ) or bool(query.having)
        if aggregated:
            solutions, variables = self._aggregate(query, solutions)
        else:
            variables = None
            for proj in query.projections:
                if proj.expr is not None:
                    for sol in solutions:
                        try:
                            value = self._expr(proj.expr, sol)
                        except _ExprError:
                            continue
                        sol[proj.var] = _as_term(value)
        if variables is None:
            if query.projections:
                variables = [p.var for p in query.projections]
            else:
                seen: List[str] = []
                for sol in solutions:
                    for var in sol:
                        if var not in seen:
                            seen.append(var)
                variables = sorted(seen)
        rows = RowsIterator(self._order(query.order_by, solutions))
        return SelectResult(
            variables, solution_modifiers(rows, query, variables).run()
        )

    def ask(self, query: alg.AskQuery) -> AskResult:
        solutions = self._pattern(query.where, [dict()])
        return AskResult(bool(solutions))

    def construct(self, query: alg.ConstructQuery) -> ConstructResult:
        solutions = self._pattern(query.where, [dict()])
        graph = ConstructResult()
        counter = [0]
        for sol in solutions:
            bnode_map: Dict[str, BNode] = {}
            for pattern in query.template:
                triple = []
                ok = True
                for term in (pattern.s, pattern.p, pattern.o):
                    value = _instantiate(term, sol, bnode_map, counter)
                    if value is None:
                        ok = False
                        break
                    triple.append(value)
                if ok:
                    try:
                        graph.add(tuple(triple))
                    except Exception:
                        continue
        return graph

    def describe(self, query: alg.DescribeQuery) -> ConstructResult:
        """Concise bounded description: every triple whose subject or
        object is a described resource."""
        resources: Set[RDFTerm] = set()
        constants = [
            t for t in query.terms if not isinstance(t, Variable)
        ]
        resources.update(constants)
        if query.where is not None:
            variables = [
                t for t in query.terms if isinstance(t, Variable)
            ]
            for sol in self._pattern(query.where, [dict()]):
                for var in variables:
                    value = sol.get(str(var))
                    if value is not None:
                        resources.add(value)
        graph = ConstructResult()
        for resource in resources:
            for triple in self.store.triples((resource, None, None)):
                graph.add(triple)
            from repro.rdf.term import Literal as _Literal

            if not isinstance(resource, _Literal):
                for triple in self.store.triples(
                    (None, None, resource)
                ):
                    graph.add(triple)
        return graph

    def update(self, op: alg.UpdateOp) -> int:
        if isinstance(op, alg.InsertData):
            return sum(1 for t in op.triples if self.store.add(t))
        if isinstance(op, alg.DeleteData):
            return sum(self.store.remove(t) for t in op.triples)
        if isinstance(op, alg.Modify):
            solutions = self._pattern(op.where, [dict()])
            counter = [0]
            removed = added = 0
            to_remove: List[Tuple] = []
            to_add: List[Tuple] = []
            for sol in solutions:
                bnode_map: Dict[str, BNode] = {}
                for pattern in op.delete_template:
                    triple = _instantiate_all(
                        pattern, sol, bnode_map, counter
                    )
                    if triple is not None:
                        to_remove.append(triple)
                for pattern in op.insert_template:
                    triple = _instantiate_all(
                        pattern, sol, bnode_map, counter
                    )
                    if triple is not None:
                        to_add.append(triple)
            for triple in to_remove:
                removed += self.store.remove(triple)
            for triple in to_add:
                added += 1 if self.store.add(triple) else 0
            return removed + added
        raise StSPARQLError(f"unknown update operation {op!r}")

    # -- graph pattern evaluation ---------------------------------------------------

    def _pattern(
        self, pattern: alg.Pattern, solutions: List[Solution]
    ) -> List[Solution]:
        if isinstance(pattern, alg.BGP):
            return self._group(alg.GroupPattern((pattern,)), solutions)
        if isinstance(pattern, alg.GroupPattern):
            return self._group(pattern, solutions)
        if isinstance(pattern, alg.OptionalPattern):
            out: List[Solution] = []
            for sol in solutions:
                extended = self._pattern(pattern.pattern, [dict(sol)])
                if extended:
                    out.extend(extended)
                else:
                    out.append(sol)
            return out
        if isinstance(pattern, alg.UnionPattern):
            left = self._pattern(pattern.left, [dict(s) for s in solutions])
            right = self._pattern(pattern.right, [dict(s) for s in solutions])
            return left + right
        if isinstance(pattern, alg.BindPattern):
            out = []
            for sol in solutions:
                if pattern.var in sol:
                    raise StSPARQLError(
                        f"BIND would rebind ?{pattern.var}"
                    )
                try:
                    value = self._expr(pattern.expr, sol)
                except _ExprError:
                    out.append(sol)
                    continue
                new = dict(sol)
                new[pattern.var] = _as_term(value)
                out.append(new)
            return out
        if isinstance(pattern, alg.ValuesPattern):
            out = []
            for sol in solutions:
                for value in pattern.values:
                    if value is None:
                        out.append(dict(sol))
                        continue
                    if pattern.var in sol and sol[pattern.var] != value:
                        continue
                    new = dict(sol)
                    new[pattern.var] = value
                    out.append(new)
            return out
        raise StSPARQLError(f"unknown pattern {type(pattern).__name__}")

    def _group(
        self, group: alg.GroupPattern, solutions: List[Solution]
    ) -> List[Solution]:
        """Join the parts in order.  A FILTER runs as soon as no later
        part can bind any of its variables — its verdict can no longer
        change: inside a BGP part's join, on the scan that binds its last
        variable, or after any other part."""
        pending = [(expr, _expr_vars(expr)) for expr in group.filters]
        binds = [_pattern_binds(part) for part in group.parts]
        for i, part in enumerate(group.parts):
            later = set().union(*binds[i + 1:])
            if isinstance(part, alg.BGP):
                # Property paths run after the join of the exact patterns.
                paths = [t for t in part.triples if isinstance(t.p, alg.Path)]
                exact = tuple(t for t in part.triples if t not in paths)
                bound_later = later.union(*map(_triple_vars, paths))
                solutions = join_solutions(
                    self, exact, _take_ready(pending, bound_later), solutions
                )
                for pattern in paths:
                    solutions = self._match_path_pattern(pattern, solutions)
            else:
                solutions = self._pattern(part, solutions)
            for expr in _take_ready(pending, later):
                solutions = self._filter_solutions(expr, solutions)
        for expr, _ in pending:
            solutions = self._filter_solutions(expr, solutions)
        return solutions

    def _filter_passes(self, expr: alg.Expr, sol: Solution) -> bool:
        try:
            return ebv(self._expr(expr, sol))
        except (_ExprError, StSPARQLError):
            return False

    def _filter_solutions(
        self, expr: alg.Expr, solutions: List[Solution]
    ) -> List[Solution]:
        """Apply one FILTER.  A spatial expression — an indexable
        predicate call, negated or not, or a ``strdf:distance``
        comparison, over a variable and a constant geometry or over two
        variables — takes the batched spatial lane
        (:func:`repro.kernels.run_spatial_filter`): one
        ``PackedEnvelopes`` pass decides every row the envelopes soundly
        can, and only the rest run the exact geometry test.  A numeric
        expression runs as one compiled kernel call over packed binding
        columns instead of N interpreter walks.  Single rows, refused
        shapes and rows outside either lane's contract are judged one at
        a time by the interpreter."""
        with obs.span("stsparql.filter"):
            if len(solutions) >= kernels.FILTER_BATCH_MIN_SOLUTIONS:
                splan = kernels.compile_spatial_filter(expr)
                if splan is not None:
                    return kernels.run_spatial_filter(
                        splan,
                        solutions,
                        self.store.geometries.entry,
                        lambda sol: self._filter_passes(expr, sol),
                    )
                plan = kernels.compile_filter(expr)
                if plan is not None:
                    return kernels.run_filter(
                        plan,
                        solutions,
                        lambda sol: self._filter_passes(expr, sol),
                    )
            return [
                sol for sol in solutions if self._filter_passes(expr, sol)
            ]

    # -- property paths ------------------------------------------------------------

    def _match_path_pattern(
        self, pattern: alg.TriplePattern, solutions: List[Solution]
    ) -> List[Solution]:
        out: List[Solution] = []
        for sol in solutions:
            s = _resolve(pattern.s, sol)
            o = _resolve(pattern.o, sol)
            for start, end in self._eval_path(pattern.p, s, o):
                new = dict(sol)
                if not _bind(new, pattern.s, start):
                    continue
                if not _bind(new, pattern.o, end):
                    continue
                out.append(new)
        return out

    def _eval_path(self, path, s, o) -> Iterable[Tuple[RDFTerm, RDFTerm]]:
        """Yield (start, end) pairs connected by ``path``.

        ``s``/``o`` are bound terms or None; results are deduplicated.
        """
        seen: Set[Tuple[RDFTerm, RDFTerm]] = set()
        for pair in self._path_pairs(path, s, o):
            if pair not in seen:
                seen.add(pair)
                yield pair

    def _path_pairs(self, path, s, o):
        from repro.rdf.term import URIRef as _URIRef

        if isinstance(path, _URIRef):
            for ts, _, to in self.store.triples((s, path, o)):
                yield (ts, to)
            return
        if isinstance(path, Variable):
            raise StSPARQLError(
                "a variable cannot appear inside a property path"
            )
        if isinstance(path, alg.PathInv):
            for a, b in self._path_pairs(path.inner, o, s):
                yield (b, a)
            return
        if isinstance(path, alg.PathAlt):
            for option in path.options:
                yield from self._path_pairs(option, s, o)
            return
        if isinstance(path, alg.PathSeq):
            yield from self._path_seq_pairs(list(path.steps), s, o)
            return
        if isinstance(path, alg.PathClosure):
            yield from self._path_closure_pairs(path, s, o)
            return
        raise StSPARQLError(f"unsupported path {type(path).__name__}")

    def _path_seq_pairs(self, steps, s, o):
        if len(steps) == 1:
            yield from self._path_pairs(steps[0], s, o)
            return
        head, rest = steps[0], steps[1:]
        for start, mid in self._path_pairs(head, s, None):
            for _, end in self._path_seq_pairs(rest, mid, o):
                if o is None or end == o:
                    yield (start, end)

    def _path_closure_pairs(self, path: alg.PathClosure, s, o):
        """BFS transitive closure of the inner path.

        Zero-length matches (for ``*``/``?``) connect a term to itself;
        with both endpoints unbound, the candidate node set is every
        endpoint the inner path touches.
        """
        inner = path.inner
        if s is not None:
            starts = [s]
        elif o is None:
            starts = sorted(
                {a for a, _ in self._path_pairs(inner, None, None)}
                | {b for _, b in self._path_pairs(inner, None, None)},
                key=str,
            )
        else:
            starts = None  # walk backwards from o instead
        if starts is None:
            for b, a in self._path_closure_pairs(
                alg.PathClosure(alg.PathInv(inner), path.min_hops,
                                path.max_one),
                o,
                None,
            ):
                yield (a, b)
            return
        for start in starts:
            if path.min_hops == 0:
                if o is None or o == start:
                    yield (start, start)
            frontier = [start]
            # `start` is deliberately not pre-marked reached: a cycle back
            # to it must yield (start, start) for `p+`.
            reached: Set[RDFTerm] = set()
            hops = 0
            while frontier:
                hops += 1
                if path.max_one and hops > 1:
                    break
                next_frontier = []
                for node in frontier:
                    for _, nxt in self._path_pairs(inner, node, None):
                        if nxt in reached:
                            continue
                        reached.add(nxt)
                        next_frontier.append(nxt)
                        if o is None or o == nxt:
                            yield (start, nxt)
                frontier = next_frontier

    # -- expressions -------------------------------------------------------------

    def _expr(self, expr: alg.Expr, sol: Solution) -> Any:
        if isinstance(expr, alg.EVar):
            if expr.name not in sol:
                raise _ExprError(f"unbound variable ?{expr.name}")
            return sol[expr.name]
        if isinstance(expr, alg.ETerm):
            return expr.term
        if isinstance(expr, alg.EUnary):
            if expr.op == "!":
                return not ebv(self._expr(expr.operand, sol))
            value = self._expr(expr.operand, sol)
            return Literal(-_num(value))
        if isinstance(expr, alg.EBinary):
            return self._binary(expr, sol)
        if isinstance(expr, alg.ECall):
            return self._call(expr, sol)
        raise StSPARQLError(f"unknown expression {type(expr).__name__}")

    def _binary(self, expr: alg.EBinary, sol: Solution) -> Any:
        op = expr.op
        if op == "||":
            try:
                if ebv(self._expr(expr.left, sol)):
                    return True
            except _ExprError:
                pass
            return ebv(self._expr(expr.right, sol))
        if op == "&&":
            return ebv(self._expr(expr.left, sol)) and ebv(
                self._expr(expr.right, sol)
            )
        left = self._expr(expr.left, sol)
        right = self._expr(expr.right, sol)
        if op in ("=", "!="):
            equal = _terms_equal(left, right)
            return equal if op == "=" else not equal
        if op in ("<", "<=", ">", ">="):
            lv, rv = _comparable(left), _comparable(right)
            try:
                if op == "<":
                    return lv < rv
                if op == "<=":
                    return lv <= rv
                if op == ">":
                    return lv > rv
                return lv >= rv
            except TypeError:
                raise _ExprError(
                    f"cannot compare {left!r} with {right!r}"
                ) from None
        if op in ("+", "-", "*", "/"):
            a, b = _num(left), _num(right)
            if op == "+":
                return Literal(a + b)
            if op == "-":
                return Literal(a - b)
            if op == "*":
                return Literal(a * b)
            if b == 0:
                raise _ExprError("division by zero")
            return Literal(a / b)
        raise StSPARQLError(f"unknown operator {op!r}")

    def _call(self, expr: alg.ECall, sol: Solution) -> Any:
        name = expr.name
        if name == "bound":
            arg = expr.args[0]
            return isinstance(arg, alg.EVar) and arg.name in sol
        if name == "in":
            target = self._expr(expr.args[0], sol)
            return any(
                _terms_equal(target, self._expr(item, sol))
                for item in expr.args[1:]
            )
        if name == "coalesce":
            for arg in expr.args:
                try:
                    return self._expr(arg, sol)
                except _ExprError:
                    continue
            raise _ExprError("COALESCE exhausted its arguments")
        if is_aggregate_name(name):
            raise StSPARQLError(
                f"aggregate {name} outside a grouping context"
            )
        args = [self._expr(a, sol) for a in expr.args]
        if name in BUILTINS:
            try:
                return BUILTINS[name](self.ctx, args)
            except (ValueError, IndexError, StSPARQLError) as exc:
                raise _ExprError(str(exc)) from exc
        if name in EXTENSIONS:
            try:
                return EXTENSIONS[name](self.ctx, args)
            except (strdf.StRDFError, StSPARQLError, ValueError) as exc:
                raise _ExprError(str(exc)) from exc
        raise StSPARQLError(f"unknown function {name!r}")

    # -- solution modifiers --------------------------------------------------------

    def _order(
        self,
        conditions: Sequence[alg.OrderCondition],
        solutions: List[Solution],
    ) -> List[Solution]:
        if not conditions:
            return solutions
        out = list(solutions)
        for cond in reversed(conditions):
            def key(sol, c=cond):
                try:
                    value = self._expr(c.expr, sol)
                except _ExprError:
                    return (0, 0)  # unbound sorts first (SPARQL)
                return (1, _SortKey(term_value(value)))

            out.sort(key=key, reverse=cond.descending)
        return out

    # -- aggregation -------------------------------------------------------------

    def _aggregate(
        self, query: alg.SelectQuery, solutions: List[Solution]
    ) -> Tuple[List[Solution], List[str]]:
        groups: Dict[Tuple, List[Solution]] = {}
        order: List[Tuple] = []
        for sol in solutions:
            key_parts = []
            for gexpr in query.group_by:
                try:
                    key_parts.append(self._expr(gexpr, sol))
                except _ExprError:
                    key_parts.append(None)
            key = tuple(key_parts)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(sol)
        if not query.group_by and not groups:
            groups[()] = []
            order.append(())
        out: List[Solution] = []
        variables = [p.var for p in query.projections]
        for key in order:
            members = groups[key]
            result: Solution = {}
            # Bind group-by variables from the key.
            for gexpr, part in zip(query.group_by, key):
                if isinstance(gexpr, alg.EVar) and part is not None:
                    result[gexpr.name] = part
            keep = True
            for having in query.having:
                try:
                    if not ebv(self._agg_expr(having, members, result)):
                        keep = False
                        break
                except (_ExprError, StSPARQLError):
                    keep = False
                    break
            if not keep:
                continue
            ok = True
            for proj in query.projections:
                if proj.expr is None:
                    if proj.var not in result:
                        # Plain variable must be a group key.
                        raise StSPARQLError(
                            f"?{proj.var} must be aggregated or grouped"
                        )
                    continue
                try:
                    value = self._agg_expr(proj.expr, members, result)
                except _ExprError:
                    ok = False
                    break
                result[proj.var] = _as_term(value)
            if ok:
                out.append(result)
        return out, variables

    def _agg_expr(
        self, expr: alg.Expr, members: List[Solution], keys: Solution
    ) -> Any:
        if isinstance(expr, alg.ECall) and is_aggregate_name(expr.name):
            return self._run_aggregate(expr, members)
        if isinstance(expr, alg.EVar):
            if expr.name in keys:
                return keys[expr.name]
            raise _ExprError(f"?{expr.name} not a group key")
        if isinstance(expr, alg.ETerm):
            return expr.term
        if isinstance(expr, alg.EUnary):
            inner = self._agg_expr(expr.operand, members, keys)
            if expr.op == "!":
                return not ebv(inner)
            return Literal(-_num(inner))
        if isinstance(expr, alg.EBinary):
            shim = _AggShim(self, members, keys)
            return shim.binary(expr)
        raise StSPARQLError(
            f"unsupported expression in aggregate context: "
            f"{type(expr).__name__}"
        )

    def _run_aggregate(
        self, expr: alg.ECall, members: List[Solution]
    ) -> Any:
        name = expr.name
        distinct = name.endswith("#distinct")
        base = name.split("#distinct")[0]
        if base == "count" and not expr.args:
            return Literal(len(members))
        values: List[Any] = []
        for sol in members:
            try:
                values.append(self._expr(expr.args[0], sol))
            except _ExprError:
                continue
        if distinct:
            unique: List[Any] = []
            for v in values:
                if v not in unique:
                    unique.append(v)
            values = unique
        if base == "count":
            return Literal(len(values))
        if base == "sample":
            if not values:
                raise _ExprError("empty group")
            return values[0]
        if base == "group_concat":
            return Literal(
                " ".join(
                    v.lexical if isinstance(v, Literal) else str(v)
                    for v in values
                )
            )
        if base in ("sum", "avg", "min", "max"):
            if not values:
                if base == "sum":
                    return Literal(0)
                raise _ExprError("empty group")
            numbers = [_num(v) for v in values]
            if base == "sum":
                return Literal(sum(numbers))
            if base == "avg":
                return Literal(sum(numbers) / len(numbers))
            if base == "min":
                return Literal(min(numbers))
            return Literal(max(numbers))
        if base == str(strdf.STRDF) + "union" or base.endswith("#union"):
            return self._spatial_aggregate(values, mode="union")
        if base == str(strdf.STRDF) + "extent" or base.endswith("#extent"):
            return self._spatial_aggregate(values, mode="extent")
        raise StSPARQLError(f"unknown aggregate {base!r}")

    def _spatial_aggregate(self, values: List[Any], mode: str):
        from repro.geometry import Envelope, Polygon
        from repro.geometry.multi import collect, flatten
        from repro.geometry.overlay import union_all

        geoms: List[Geometry] = []
        for v in values:
            try:
                geoms.append(self.ctx.geometry(v))
            except strdf.StRDFError:
                continue
        if not geoms:
            raise _ExprError("no geometries in group")
        if mode == "extent":
            env = Envelope.empty()
            for g in geoms:
                env = env.union(g.envelope)
            return strdf.geometry_literal(
                Polygon.from_envelope(env, srid=geoms[0].srid)
            )
        polys = [g for atom in geoms for g in flatten(atom)]
        from repro.geometry.polygon import Polygon as P

        poly_parts = [g for g in polys if isinstance(g, P)]
        other_parts = [g for g in polys if not isinstance(g, P)]
        merged = union_all(poly_parts) if poly_parts else []
        return strdf.geometry_literal(
            collect(
                [m.with_srid(geoms[0].srid) for m in merged] + other_parts,
                srid=geoms[0].srid,
            )
        )


class _AggShim:
    """Evaluates binary expressions whose leaves are aggregates/keys."""

    def __init__(self, evaluator: Evaluator, members, keys):
        self.evaluator = evaluator
        self.members = members
        self.keys = keys

    def binary(self, expr: alg.EBinary) -> Any:
        left = self.evaluator._agg_expr(expr.left, self.members, self.keys)
        right = self.evaluator._agg_expr(expr.right, self.members, self.keys)
        fake = alg.EBinary(
            expr.op, alg.ETerm(_as_term(left)), alg.ETerm(_as_term(right))
        )
        return self.evaluator._binary(fake, {})


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _pattern_binds(part: alg.Pattern) -> Set[str]:
    """Variables a pattern may bind (an over-approximation is safe: it
    only delays a pushed-down filter, never changes its verdict)."""
    if isinstance(part, alg.BGP):
        out: Set[str] = set()
        for pat in part.triples:
            out |= _triple_vars(pat)
        return out
    if isinstance(part, alg.GroupPattern):
        out = set()
        for sub in part.parts:
            out |= _pattern_binds(sub)
        return out
    if isinstance(part, alg.OptionalPattern):
        return _pattern_binds(part.pattern)
    if isinstance(part, alg.UnionPattern):
        return _pattern_binds(part.left) | _pattern_binds(part.right)
    if isinstance(part, alg.BindPattern):
        return {part.var}
    if isinstance(part, alg.ValuesPattern):
        return {part.var}
    return set()


def _take_ready(
    pending: List[Tuple[alg.Expr, frozenset]], later: Set[str]
) -> Tuple[alg.Expr, ...]:
    """Remove and return the pending FILTERs none of whose variables
    ``later`` parts can bind."""
    ready = tuple(expr for expr, names in pending if not names & later)
    pending[:] = [(e, names) for e, names in pending if names & later]
    return ready


def _resolve(term, sol: Solution):
    if isinstance(term, Variable):
        return sol.get(str(term))
    return term


def _bind(sol: Solution, pattern_term, value) -> bool:
    if isinstance(pattern_term, Variable):
        name = str(pattern_term)
        if name in sol:
            return sol[name] == value
        sol[name] = value
        return True
    return True


def _instantiate(term, sol: Solution, bnode_map, counter):
    if isinstance(term, Variable):
        return sol.get(str(term))
    if isinstance(term, BNode):
        if term not in bnode_map:
            counter[0] += 1
            bnode_map[term] = BNode(f"c{counter[0]}")
        return bnode_map[term]
    return term


def _instantiate_all(pattern, sol, bnode_map, counter):
    s = _instantiate(pattern.s, sol, bnode_map, counter)
    p = _instantiate(pattern.p, sol, bnode_map, counter)
    o = _instantiate(pattern.o, sol, bnode_map, counter)
    if s is None or p is None or o is None:
        return None
    return (s, p, o)


def _as_term(value: Any) -> RDFTerm:
    if isinstance(value, (URIRef, BNode, Literal)):
        return value
    if isinstance(value, bool):
        return Literal(value)
    if isinstance(value, (int, float, str)):
        return Literal(value)
    raise StSPARQLError(f"cannot convert {value!r} to an RDF term")


def _num(value: Any) -> float:
    if isinstance(value, Literal):
        py = value.to_python()
        if isinstance(py, bool):
            raise _ExprError("boolean in numeric context")
        if isinstance(py, (int, float)):
            return py
        try:
            return float(py)
        except (TypeError, ValueError):
            raise _ExprError(f"not numeric: {value!r}") from None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise _ExprError(f"not numeric: {value!r}")


def _terms_equal(left: Any, right: Any) -> bool:
    if isinstance(left, Literal) and isinstance(right, Literal):
        if left.is_numeric and right.is_numeric:
            return left.to_python() == right.to_python()
        return left == right
    if isinstance(left, bool) or isinstance(right, bool):
        return ebv(left) == ebv(right)
    return left == right


def _comparable(value: Any) -> Any:
    if isinstance(value, Literal):
        return value.to_python()
    if isinstance(value, (int, float, bool, str)):
        return value
    return str(value)


class _SortKey:
    """Total order over mixed Python values for ORDER BY."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        a, b = self.value, other.value
        try:
            return a < b
        except TypeError:
            return str(a) < str(b)

    def __eq__(self, other):
        return self.value == other.value
