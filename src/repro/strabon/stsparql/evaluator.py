"""stSPARQL evaluation over a Strabon store.

Solutions are dictionaries ``{var_name: RDFTerm}``.  Every basic graph
pattern runs through the join of :mod:`repro.strabon.stsparql.iterators`
— its planner orders the patterns, places each FILTER on the scan that
binds its last variable and narrows indexable spatial FILTERs to
spatial-index candidates — seeded with the solutions of the group so far.  This module
evaluates what has no streaming form around it: OPTIONAL, UNION, BIND,
VALUES, property paths, aggregates, ORDER BY, CONSTRUCT/ASK/DESCRIBE and
update templates, and every expression.  A spatial FILTER over many
solutions runs through the batched envelope lane of
:mod:`repro.kernels`; every other FILTER is judged row by row here.

Expressions have one walk, :meth:`Evaluator._expr`, for rows and, given
a group's members, for aggregates.  Between operators a value is an RDF
term or a plain Python number or bool; :func:`_as_term` makes it a term
only where it leaves the walk.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import kernels, obs
from repro.geometry import Geometry
from repro.rdf.term import BNode, Literal, RDFTerm, URIRef, Variable
from repro.strabon import strdf
from repro.strabon.stsparql import algebra as alg
from repro.strabon.stsparql.errors import ExprError, StSPARQLError
from repro.strabon.stsparql.functions import (
    BUILTINS,
    EXTENSIONS,
    decode,
    ebv,
    is_aggregate_name,
    numeric,
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


class Evaluator:
    """Evaluates parsed queries/updates against a store."""

    def __init__(self, store):
        self.store = store
        self.ctx = store.geometries
        self._count = store.graph.count_estimate

    # -- public entry points -------------------------------------------------

    def select(self, query: alg.SelectQuery) -> SelectResult:
        """A streamable SELECT runs on the serving tier's pipeline with
        no quantum; the rest through the operators here."""
        pipe = build_select_pipeline(query, self.store)
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
            for sol in solutions:
                for proj in query.projections:
                    if proj.expr is not None:
                        self._extend(sol, proj.var, proj.expr)
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
        for sol in solutions:
            bnode_map: Dict[str, BNode] = {}
            for pattern in query.template:
                triple = _instantiate_all(pattern, sol, bnode_map)
                if triple is not None:
                    graph.add(triple)
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
            if not isinstance(resource, Literal):
                for triple in self.store.triples(
                    (None, None, resource)
                ):
                    graph.add(triple)
        return graph

    def update(self, op: alg.UpdateOp) -> int:
        """Apply one update operation as one store delta; returns the
        number of triples removed plus added."""
        if isinstance(op, alg.InsertData):
            return sum(self.store.apply(inserts=op.triples))
        if isinstance(op, alg.DeleteData):
            return sum(self.store.apply(deletes=op.triples))
        if isinstance(op, alg.Modify):
            # Both sides are instantiated before the one write.
            deletes: List[Tuple] = []
            inserts: List[Tuple] = []
            for sol in self._pattern(op.where, [dict()]):
                bnode_map: Dict[str, BNode] = {}
                for template, out in (
                    (op.delete_template, deletes),
                    (op.insert_template, inserts),
                ):
                    for pattern in template:
                        triple = _instantiate_all(pattern, sol, bnode_map)
                        if triple is not None:
                            out.append(triple)
            return sum(self.store.apply(deletes, inserts))
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
                new = dict(sol)
                self._extend(new, pattern.var, pattern.expr)
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
        except StSPARQLError:
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
        can, and the rows an ``intersects`` / ``within`` / ``contains``
        call leaves open go together through the exact edge kernel
        (:func:`repro.geometry.batch.relate`).  Every other expression,
        single rows and the lane's undecided rows are judged one at a
        time by the interpreter; a numeric comparison costs little
        there, as each literal decodes its lexical form once."""
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
        if isinstance(path, URIRef):
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

    def _expr(
        self,
        expr: alg.Expr,
        sol: Solution,
        group: Optional[List[Solution]] = None,
    ) -> Any:
        """The value of ``expr`` under ``sol``: an RDF term, or a Python
        ``int``/``float``/``bool`` between operators.  With ``group``
        (a group's member solutions) an aggregate call evaluates over
        the members and ``sol`` is the group-key solution."""
        kind = type(expr)
        if kind is alg.EVar:
            try:
                return sol[expr.name]
            except KeyError:
                raise ExprError(f"unbound variable ?{expr.name}") from None
        if kind is alg.ETerm:
            return expr.term
        if kind is alg.EBinary:
            op = expr.op
            if op == "||" or op == "&&":
                return self._logical(expr, sol, group)
            left = self._expr(expr.left, sol, group)
            right = self._expr(expr.right, sol, group)
            arith = _ARITHMETIC.get(op)
            if arith is not None:
                divisor = numeric(right)
                if divisor == 0 and op == "/":
                    raise ExprError("division by zero")
                return arith(numeric(left), divisor)
            compare = _COMPARISONS.get(op)
            if compare is not None:
                try:
                    return compare(decode(left), decode(right))
                except TypeError:
                    raise ExprError(
                        f"cannot compare {left!r} with {right!r}"
                    ) from None
            if op in ("=", "!="):
                return _terms_equal(left, right) == (op == "=")
            raise StSPARQLError(f"unknown operator {op!r}")
        if kind is alg.ECall:
            return self._call(expr, sol, group)
        if kind is alg.EUnary:
            value = self._expr(expr.operand, sol, group)
            return not ebv(value) if expr.op == "!" else -numeric(value)
        raise StSPARQLError(f"unknown expression {type(expr).__name__}")

    def _logical(
        self,
        expr: alg.EBinary,
        sol: Solution,
        group: Optional[List[Solution]],
    ) -> bool:
        """``||`` forgives an error on either side; ``&&`` stops at the
        first false operand."""
        if expr.op == "||":
            try:
                if ebv(self._expr(expr.left, sol, group)):
                    return True
            except ExprError:
                pass
            return ebv(self._expr(expr.right, sol, group))
        return ebv(self._expr(expr.left, sol, group)) and ebv(
            self._expr(expr.right, sol, group)
        )

    def _call(
        self,
        expr: alg.ECall,
        sol: Solution,
        group: Optional[List[Solution]],
    ) -> Any:
        name = expr.name
        if name == "bound":
            arg = expr.args[0]
            return isinstance(arg, alg.EVar) and arg.name in sol
        if name == "if":
            if len(expr.args) != 3:
                raise StSPARQLError("IF takes three arguments")
            test, then, otherwise = expr.args
            chosen = then if ebv(self._expr(test, sol, group)) else otherwise
            return self._expr(chosen, sol, group)
        if name == "in":
            target = self._expr(expr.args[0], sol, group)
            return any(
                _terms_equal(target, self._expr(item, sol, group))
                for item in expr.args[1:]
            )
        if name == "coalesce":
            for arg in expr.args:
                try:
                    return self._expr(arg, sol, group)
                except ExprError:
                    continue
            raise ExprError("COALESCE exhausted its arguments")
        if is_aggregate_name(name):
            if group is None:
                raise StSPARQLError(
                    f"aggregate {name} outside a grouping context"
                )
            return self._aggregate_call(expr, group)
        args = [_as_term(self._expr(a, sol, group)) for a in expr.args]
        if name in BUILTINS:
            try:
                return BUILTINS[name](self.ctx, args)
            except (ValueError, IndexError, StSPARQLError) as exc:
                raise ExprError(str(exc)) from exc
        if name in EXTENSIONS:
            try:
                return EXTENSIONS[name](self.ctx, args)
            except (strdf.StRDFError, StSPARQLError, ValueError) as exc:
                raise ExprError(str(exc)) from exc
        raise StSPARQLError(f"unknown function {name!r}")

    def _extend(
        self,
        sol: Solution,
        var: str,
        expr: alg.Expr,
        group: Optional[List[Solution]] = None,
    ) -> None:
        """Bind ``var`` to the value of ``expr`` in ``sol``; an
        expression error leaves it unbound (SPARQL 1.1 §18.2.4.1)."""
        try:
            sol[var] = _as_term(self._expr(expr, sol, group))
        except ExprError:
            pass

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
                    return (1, _SortKey(decode(self._expr(c.expr, sol))))
                except ExprError:
                    return (0, 0)  # errors sort as unbound: first (SPARQL)

            out.sort(key=key, reverse=cond.descending)
        return out

    # -- aggregation -------------------------------------------------------------

    def _aggregate(
        self, query: alg.SelectQuery, solutions: List[Solution]
    ) -> Tuple[List[Solution], List[str]]:
        groups: Dict[Tuple, List[Solution]] = {}
        for sol in solutions:
            key_parts = []
            for gexpr in query.group_by:
                try:
                    key_parts.append(_as_term(self._expr(gexpr, sol)))
                except ExprError:
                    key_parts.append(None)
            groups.setdefault(tuple(key_parts), []).append(sol)
        if not query.group_by and not groups:
            groups[()] = []
        out: List[Solution] = []
        for key, members in groups.items():
            result: Solution = {}
            # Bind group-by variables from the key.
            for gexpr, part in zip(query.group_by, key):
                if isinstance(gexpr, alg.EVar) and part is not None:
                    result[gexpr.name] = part
            try:
                keep = all(
                    ebv(self._expr(having, result, members))
                    for having in query.having
                )
            except StSPARQLError:
                keep = False
            if not keep:
                continue
            for proj in query.projections:
                if proj.expr is not None:
                    self._extend(result, proj.var, proj.expr, members)
                elif proj.var not in result:
                    raise StSPARQLError(
                        f"?{proj.var} must be aggregated or grouped"
                    )
            out.append(result)
        return out, [p.var for p in query.projections]

    def _aggregate_call(
        self, expr: alg.ECall, members: List[Solution]
    ) -> Any:
        name = expr.name
        distinct = name.endswith("#distinct")
        base = name.split("#distinct")[0]
        if base == "count" and not expr.args:
            return len(members)
        values: List[Any] = []
        for sol in members:
            try:
                values.append(self._expr(expr.args[0], sol))
            except ExprError:
                continue
        if distinct:
            # Keyed by term, so 2 and 2.0 stay apart; first seen first.
            values = list(dict.fromkeys(map(_as_term, values)))
        if base == "count":
            return len(values)
        if base == "sample":
            if not values:
                raise ExprError("empty group")
            return values[0]
        if base == "group_concat":
            return _as_term(
                " ".join(
                    v.lexical if isinstance(v, Literal) else str(v)
                    for v in values
                )
            )
        if base in ("sum", "avg", "min", "max"):
            if not values:
                if base == "sum":
                    return 0
                raise ExprError("empty group")
            numbers = [numeric(v) for v in values]
            if base == "sum":
                return sum(numbers)
            if base == "avg":
                return sum(numbers) / len(numbers)
            return min(numbers) if base == "min" else max(numbers)
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
            raise ExprError("no geometries in group")
        if mode == "extent":
            env = Envelope.empty()
            for g in geoms:
                env = env.union(g.envelope)
            return strdf.geometry_literal(
                Polygon.from_envelope(env, srid=geoms[0].srid)
            )
        polys = [g for atom in geoms for g in flatten(atom)]
        poly_parts = [g for g in polys if isinstance(g, Polygon)]
        other_parts = [g for g in polys if not isinstance(g, Polygon)]
        merged = union_all(poly_parts) if poly_parts else []
        return strdf.geometry_literal(
            collect(
                [m.with_srid(geoms[0].srid) for m in merged] + other_parts,
                srid=geoms[0].srid,
            )
        )


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


def _instantiate(term, sol: Solution, bnode_map):
    """A template term under ``sol``.  Each template blank node becomes
    one fresh ``BNode()`` per solution (``bnode_map``), labelled from
    the process-wide counter, so no two executions share one."""
    if isinstance(term, Variable):
        return sol.get(str(term))
    if isinstance(term, BNode):
        if term not in bnode_map:
            bnode_map[term] = BNode()
        return bnode_map[term]
    return term


def _instantiate_all(pattern, sol, bnode_map):
    """The template triple under ``sol``, or None when a variable is
    unbound or the instance is no RDF triple (a literal subject, a
    non-IRI predicate), which SPARQL 1.1 drops (Update §3.1.3,
    CONSTRUCT §16.2)."""
    s = _instantiate(pattern.s, sol, bnode_map)
    p = _instantiate(pattern.p, sol, bnode_map)
    o = _instantiate(pattern.o, sol, bnode_map)
    well_formed = isinstance(s, (URIRef, BNode)) and isinstance(p, URIRef)
    return (s, p, o) if well_formed and o is not None else None


_ARITHMETIC = {
    "+": operator.add, "-": operator.sub,
    "*": operator.mul, "/": operator.truediv,
}
_COMPARISONS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _as_term(value: Any) -> RDFTerm:
    """The RDF term of an interpreter value, built only where the value
    leaves the interpreter: ``Literal(float)`` writes ``repr``, so the
    literal decodes back to the same number."""
    if isinstance(value, (URIRef, BNode, Literal)):
        return value
    if isinstance(value, (bool, int, float, str)):
        return Literal(value)
    raise StSPARQLError(f"cannot convert {value!r} to an RDF term")


def _terms_equal(left: Any, right: Any) -> bool:
    """SPARQL ``=``: booleans by effective boolean value, numbers (plain
    or numeric literals) by value, every other term by term equality."""
    if isinstance(left, bool) or isinstance(right, bool):
        return ebv(left) == ebv(right)
    if _is_number(left) and _is_number(right):
        return numeric(left) == numeric(right)
    return left == right


def _is_number(value: Any) -> bool:
    if isinstance(value, Literal):
        return value.is_numeric
    return isinstance(value, (int, float))


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
