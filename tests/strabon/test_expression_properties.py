"""Property test: stSPARQL arithmetic, comparisons and aggregates against
a Python reference.

Random expression trees over random ``xsd:integer`` / ``xsd:double``
literals run as a FILTER, as a BIND and under aggregates.  The reference
below evaluates the same tree with Python numbers and builds one
``Literal`` at the end, so the interpreter must keep intermediate
values exact: the same FILTER verdicts, and the same lexical forms at
BIND and at aggregate output.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import Literal, Namespace
from repro.strabon import StrabonStore

EX = Namespace("http://example.org/")
XSD = "http://www.w3.org/2001/XMLSchema#"
PREFIXES = "PREFIX ex: <http://example.org/>\n"
WHERE = "?s ex:a ?a . ?s ex:b ?b"

ARITHMETIC = ("+", "-", "*", "/")
COMPARISONS = ("<", "<=", ">", ">=", "=", "!=")
LOGICAL = ("&&", "||")
AGGREGATES = ("sum", "avg", "min", "max", "count")

#: A tree is a tuple: ("int", k), ("dbl", x), ("var", name),
#: ("neg", t), (op, left, right), (aggregate, distinct, t) or
#: ("count*",).
constants = st.one_of(
    st.integers(-6, 6).map(lambda k: ("int", k)),
    st.integers(-24, 24).map(lambda k: ("dbl", k / 4)),
)


def trees(leaves, max_leaves=7):
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.tuples(
                st.sampled_from(ARITHMETIC + COMPARISONS + LOGICAL),
                kids,
                kids,
            ),
            st.tuples(st.just("neg"), kids),
        ),
        max_leaves=max_leaves,
    )


row_leaves = st.one_of(
    constants, st.sampled_from([("var", "a"), ("var", "b")])
)
row_trees = trees(row_leaves)
aggregate_calls = st.one_of(
    st.just(("count*",)),
    st.tuples(
        st.sampled_from(AGGREGATES), st.booleans(), trees(row_leaves, 4)
    ),
)
#: Trees over aggregates (at least one) and constants.
aggregate_trees = st.one_of(
    aggregate_calls,
    st.tuples(
        st.sampled_from(ARITHMETIC + COMPARISONS + LOGICAL),
        aggregate_calls,
        trees(st.one_of(constants, aggregate_calls), 3),
    ),
    st.tuples(st.just("neg"), aggregate_calls),
)
rows = st.lists(st.tuples(constants, constants), max_size=5)


def render(tree) -> str:
    """The stSPARQL text of a tree."""
    kind = tree[0]
    if kind == "int":
        return f'"{tree[1]}"^^<{XSD}integer>'
    if kind == "dbl":
        return f'"{tree[1]!r}"^^<{XSD}double>'
    if kind == "var":
        return f"?{tree[1]}"
    if kind == "neg":
        return f"(- {render(tree[1])})"
    if kind == "count*":
        return "COUNT(*)"
    if kind in AGGREGATES:
        distinct = "DISTINCT " if tree[1] else ""
        return f"{kind.upper()}({distinct}{render(tree[2])})"
    return f"({render(tree[1])} {kind} {render(tree[2])})"


class Error(Exception):
    """The reference's expression error."""


def _number(value):
    if isinstance(value, bool):
        raise Error("boolean in numeric context")
    return value


def _ebv(value):
    if isinstance(value, bool):
        return value
    return value != 0 and not (isinstance(value, float) and math.isnan(value))


def _equal(left, right):
    if isinstance(left, bool) or isinstance(right, bool):
        return _ebv(left) == _ebv(right)
    return left == right


def evaluate(tree, row, group=None):
    """The Python value of ``tree`` for ``row`` ({"a": x, "b": y}); with
    ``group`` (a list of rows) aggregates evaluate over it."""
    kind = tree[0]
    if kind in ("int", "dbl"):
        return tree[1]
    if kind == "var":
        if tree[1] not in row:
            raise Error("unbound")
        return row[tree[1]]
    if kind == "neg":
        return -_number(evaluate(tree[1], row, group))
    if kind == "count*":
        return len(group)
    if kind in AGGREGATES:
        return _aggregate(kind, tree[1], tree[2], group)
    if kind == "||":
        try:
            if _ebv(evaluate(tree[1], row, group)):
                return True
        except Error:
            pass
        return _ebv(evaluate(tree[2], row, group))
    if kind == "&&":
        return _ebv(evaluate(tree[1], row, group)) and _ebv(
            evaluate(tree[2], row, group)
        )
    left = evaluate(tree[1], row, group)
    right = evaluate(tree[2], row, group)
    if kind in ARITHMETIC:
        a, b = _number(left), _number(right)
        if kind == "+":
            return a + b
        if kind == "-":
            return a - b
        if kind == "*":
            return a * b
        if b == 0:
            raise Error("division by zero")
        return a / b
    if kind == "=":
        return _equal(left, right)
    if kind == "!=":
        return not _equal(left, right)
    return {
        "<": left < right, "<=": left <= right,
        ">": left > right, ">=": left >= right,
    }[kind]


def _aggregate(kind, distinct, argument, group):
    values = []
    for row in group:
        try:
            values.append(evaluate(argument, row))
        except Error:
            continue
    if distinct:
        # DISTINCT compares terms: 2 and 2.0 stay apart.
        keys = dict.fromkeys(Literal(v) for v in values)
        values = [key.to_python() for key in keys]
    if kind == "count":
        return len(values)
    numbers = [_number(v) for v in values]
    if kind == "sum":
        return sum(numbers)
    if not numbers:
        raise Error("empty group")
    if kind == "avg":
        return sum(numbers) / len(numbers)
    return min(numbers) if kind == "min" else max(numbers)


def reference_term(tree, row, group=None):
    """The n3 of ``tree``'s value, or None where it is an error."""
    try:
        return Literal(evaluate(tree, row, group)).n3()
    except Error:
        return None


def store_of(data):
    store = StrabonStore()
    store.load_graph(
        (EX[f"r{i}"], EX[name], Literal(value[1]))
        for i, pair in enumerate(data)
        for name, value in zip("ab", pair)
    )
    return store


def bindings(data):
    return {
        EX[f"r{i}"]: {"a": a[1], "b": b[1]} for i, (a, b) in enumerate(data)
    }


class TestExpressionsMatchPythonReference:
    @settings(max_examples=150, deadline=None)
    @given(data=rows, tree=row_trees)
    def test_filter_verdicts(self, data, tree):
        store = store_of(data)
        got = store.query(
            PREFIXES + f"SELECT ?s WHERE {{ {WHERE} FILTER({render(tree)}) }}"
        )
        expected = set()
        for subject, row in bindings(data).items():
            try:
                if _ebv(evaluate(tree, row)):
                    expected.add(subject)
            except Error:
                pass
        assert set(got.column("s")) == expected

    @settings(max_examples=150, deadline=None)
    @given(data=rows, tree=row_trees)
    def test_bind_lexical_forms(self, data, tree):
        store = store_of(data)
        got = store.query(
            PREFIXES
            + f"SELECT ?s ?x WHERE {{ {WHERE} BIND({render(tree)} AS ?x) }}"
        )
        assert {
            s: None if x is None else x.n3() for s, x in got.rows()
        } == {
            s: reference_term(tree, row)
            for s, row in bindings(data).items()
        }

    @settings(max_examples=150, deadline=None)
    @given(data=rows, tree=aggregate_trees)
    def test_aggregate_lexical_forms(self, data, tree):
        store = store_of(data)
        # The reference aggregates in the engine's solution order: a
        # float sum, and MIN/MAX over a tie of 2 and 2.0, depend on it.
        by_subject = bindings(data)
        order = store.query(PREFIXES + f"SELECT ?s WHERE {{ {WHERE} }}")
        group = [by_subject[s] for s in order.column("s")]
        got = store.query(
            PREFIXES + f"SELECT ({render(tree)} AS ?x) WHERE {{ {WHERE} }}"
        )
        (row,) = got.rows()
        assert (None if row[0] is None else row[0].n3()) == reference_term(
            tree, {}, group
        )
