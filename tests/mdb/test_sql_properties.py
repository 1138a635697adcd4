"""Property-based tests: the SQL engine vs a plain-Python reference."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mdb import Database
from repro.mdb.errors import SQLTypeError

values = st.integers(min_value=-100, max_value=100)
rows = st.lists(
    st.tuples(values, values), min_size=0, max_size=60
)

# Small nullable domains so joins match often and NULLs are common.
small_ints = st.one_of(st.none(), st.integers(min_value=-2, max_value=2))
int_rows = st.lists(st.tuples(small_ints, small_ints), max_size=12)
wide_ints = st.sampled_from([None, 0, 1, -1, 2, 2**53 + 1])
doubles = st.sampled_from(
    [None, 0.0, -0.0, 1.0, 2.5, float(2**53), float("nan")]
)


def fresh_db(data):
    db = Database()
    db.execute("CREATE TABLE t (a INT, b INT)")
    for a, b in data:
        db.insert_rows("t", [(a, b)])
    return db


def two_tables(left_schema, left, right_schema, right):
    """``l(left_schema)`` and ``r(right_schema)`` holding the given rows."""
    db = Database()
    db.execute(f"CREATE TABLE l ({left_schema})")
    db.execute(f"CREATE TABLE r ({right_schema})")
    if left:
        db.insert_rows("l", left)
    if right:
        db.insert_rows("r", right)
    return db


def matches(x, y):
    """Equi-join key equality: Python ``==``, and NULL matches nothing
    (NaN matches nothing because ``nan != nan``)."""
    return x is not None and y is not None and x == y


def canon(result):
    """Rows with NaN spelled out, so results compare with ``==``."""
    return [
        tuple(
            "nan" if isinstance(v, float) and math.isnan(v) else v
            for v in row
        )
        for row in result
    ]


class TestSelectSemantics:
    @settings(max_examples=40, deadline=None)
    @given(data=rows, cut=values)
    def test_where_filter(self, data, cut):
        db = fresh_db(data)
        got = db.query(f"SELECT a, b FROM t WHERE a > {cut}")
        expected = [r for r in data if r[0] > cut]
        assert sorted(got) == sorted(expected)

    @settings(max_examples=40, deadline=None)
    @given(data=rows)
    def test_order_by_matches_sorted(self, data):
        db = fresh_db(data)
        got = db.query("SELECT a FROM t ORDER BY a")
        assert [r[0] for r in got] == sorted(r[0] for r in data)

    @settings(max_examples=40, deadline=None)
    @given(data=rows)
    def test_order_desc(self, data):
        db = fresh_db(data)
        got = db.query("SELECT a FROM t ORDER BY a DESC")
        assert [r[0] for r in got] == sorted(
            (r[0] for r in data), reverse=True
        )

    @settings(max_examples=40, deadline=None)
    @given(data=rows)
    def test_aggregates_match_python(self, data):
        db = fresh_db(data)
        count = db.scalar("SELECT count(*) FROM t")
        assert count == len(data)
        if data:
            assert db.scalar("SELECT sum(a) FROM t") == sum(
                r[0] for r in data
            )
            assert db.scalar("SELECT min(b) FROM t") == min(
                r[1] for r in data
            )
            assert db.scalar("SELECT max(b) FROM t") == max(
                r[1] for r in data
            )

    @settings(max_examples=40, deadline=None)
    @given(data=rows)
    def test_group_by_matches_python(self, data):
        db = fresh_db(data)
        got = dict(
            (k, c)
            for k, c in db.query(
                "SELECT a, count(*) FROM t GROUP BY a"
            )
        )
        expected = {}
        for a, _ in data:
            expected[a] = expected.get(a, 0) + 1
        assert got == expected

    @settings(max_examples=40, deadline=None)
    @given(data=rows)
    def test_distinct_matches_set(self, data):
        db = fresh_db(data)
        got = db.query("SELECT DISTINCT a FROM t")
        assert sorted(r[0] for r in got) == sorted({r[0] for r in data})

    @settings(max_examples=30, deadline=None)
    @given(data=rows, limit=st.integers(0, 10), offset=st.integers(0, 10))
    def test_limit_offset_window(self, data, limit, offset):
        db = fresh_db(data)
        got = db.query(
            f"SELECT a FROM t ORDER BY a LIMIT {limit} OFFSET {offset}"
        )
        expected = sorted(r[0] for r in data)[offset : offset + limit]
        assert [r[0] for r in got] == expected


class TestJoinSemantics:
    @settings(max_examples=30, deadline=None)
    @given(left=rows, right=rows)
    def test_equi_join_matches_nested_loop(self, left, right):
        db = Database()
        db.execute("CREATE TABLE l (a INT, b INT)")
        db.execute("CREATE TABLE r (c INT, d INT)")
        for a, b in left:
            db.insert_rows("l", [(a, b)])
        for c, d in right:
            db.insert_rows("r", [(c, d)])
        got = db.query(
            "SELECT l.a, l.b, r.c, r.d FROM l JOIN r ON l.a = r.c"
        )
        expected = [
            (a, b, c, d)
            for a, b in left
            for c, d in right
            if a == c
        ]
        assert sorted(got) == sorted(expected)

    @settings(max_examples=30, deadline=None)
    @given(left=rows, right=rows)
    def test_left_join_row_count(self, left, right):
        db = Database()
        db.execute("CREATE TABLE l (a INT, b INT)")
        db.execute("CREATE TABLE r (c INT, d INT)")
        for a, b in left:
            db.insert_rows("l", [(a, b)])
        for c, d in right:
            db.insert_rows("r", [(c, d)])
        got = db.query("SELECT l.a FROM l LEFT JOIN r ON l.a = r.c")
        expected_count = sum(
            max(1, sum(1 for c, _ in right if c == a)) for a, _ in left
        )
        assert len(got) == expected_count


class TestJoinRowOrder:
    """Joins equal a nested loop *in row order*: left rows in table
    order, each one's matches in right-table order."""

    @settings(max_examples=60, deadline=None)
    @given(left=int_rows, right=int_rows)
    def test_nullable_int_keys(self, left, right):
        db = two_tables("a INT, b INT", left, "c INT, d INT", right)
        got = db.query("SELECT l.a, l.b, r.c, r.d FROM l JOIN r ON l.a = r.c")
        expected = [
            (a, b, c, d)
            for a, b in left
            for c, d in right
            if matches(a, c)
        ]
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.lists(st.tuples(wide_ints, small_ints), max_size=10),
        right=st.lists(st.tuples(doubles, small_ints), max_size=10),
    )
    def test_int_double_keys_use_python_equality(self, left, right):
        # 1 == 1.0 and 0 == -0.0 match; 2**53 + 1 != float(2**53).
        db = two_tables("a INT, b INT", left, "y DOUBLE, d INT", right)
        got = db.query("SELECT l.a, l.b, r.y, r.d FROM l JOIN r ON l.a = r.y")
        expected = [
            (a, b, y, d)
            for a, b in left
            for y, d in right
            if matches(a, y)
        ]
        assert canon(got) == canon(expected)

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.lists(st.tuples(doubles, small_ints), max_size=10),
        right=st.lists(st.tuples(doubles, small_ints), max_size=10),
    )
    def test_nan_double_keys_never_match(self, left, right):
        db = two_tables("x DOUBLE, b INT", left, "y DOUBLE, d INT", right)
        got = db.query("SELECT l.x, l.b, r.y, r.d FROM l JOIN r ON l.x = r.y")
        expected = [
            (x, b, y, d)
            for x, b in left
            for y, d in right
            if matches(x, y)
        ]
        assert canon(got) == canon(expected)

    @settings(max_examples=60, deadline=None)
    @given(left=int_rows, right=int_rows)
    def test_two_column_keys(self, left, right):
        db = two_tables("a INT, b INT", left, "c INT, d INT", right)
        got = db.query(
            "SELECT l.a, l.b, r.c, r.d FROM l JOIN r "
            "ON l.a = r.c AND r.d = l.b"
        )
        expected = [
            (a, b, c, d)
            for a, b in left
            for c, d in right
            if matches(a, c) and matches(b, d)
        ]
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(left=int_rows, right=int_rows)
    def test_left_join_rows_and_order(self, left, right):
        db = two_tables("a INT, b INT", left, "c INT, d INT", right)
        got = db.query(
            "SELECT l.a, l.b, r.c, r.d FROM l LEFT JOIN r ON l.a = r.c"
        )
        expected = []
        for a, b in left:
            hits = [(a, b, c, d) for c, d in right if matches(a, c)]
            expected.extend(hits or [(a, b, None, None)])
        assert got == expected


class TestGroupOrder:
    """GROUP BY emits groups in order of first appearance."""

    @settings(max_examples=60, deadline=None)
    @given(data=int_rows)
    def test_nullable_key_first_appearance(self, data):
        db = fresh_db(data)
        got = db.query("SELECT a, count(*), min(b) FROM t GROUP BY a")
        groups = {}
        for a, b in data:
            groups.setdefault(a, []).append(b)
        expected = [
            (a, len(bs), min((b for b in bs if b is not None), default=None))
            for a, bs in groups.items()
        ]
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(data=int_rows)
    def test_mixed_int_double_keys_and_null_group(self, data):
        # One group holds 1 and 1.0 (Python equality) and shows the key
        # of its first row; NULL keys form one group of their own.
        key = (
            "CASE WHEN a IS NULL THEN NULL WHEN a > 0 THEN 1 "
            "WHEN a < 0 THEN 1.0 ELSE a END"
        )
        db = fresh_db(data)
        got = db.query(f"SELECT {key}, count(*) FROM t GROUP BY {key}")

        def python_key(a):
            if a is None:
                return None
            return 1 if a > 0 else 1.0 if a < 0 else a

        groups = {}
        for a, _ in data:
            k = python_key(a)
            groups[k] = groups.get(k, 0) + 1  # keeps the first key object
        expected = [(k, n) for k, n in groups.items()]
        assert [(type(k), k, n) for k, n in got] == [
            (type(k), k, n) for k, n in expected
        ]

    @settings(max_examples=60, deadline=None)
    @given(data=st.lists(doubles, max_size=12))
    def test_every_nan_key_is_its_own_group(self, data):
        db = Database()
        db.execute("CREATE TABLE t (x DOUBLE)")
        if data:
            db.insert_rows("t", [(x,) for x in data])
        got = db.query("SELECT x, count(*) FROM t GROUP BY x")
        groups = {}
        for i, x in enumerate(data):
            nan = isinstance(x, float) and math.isnan(x)
            key = ("nan", i) if nan else x
            groups[key] = groups.get(key, 0) + 1
        expected = [
            ("nan" if isinstance(k, tuple) else k, n) for k, n in groups.items()
        ]
        assert canon(got) == expected


class TestWherePushdown:
    """WHERE around joins: pushed below the join or not, the rows, their
    order and the errors are a nested loop's."""

    JOIN = "SELECT l.a, l.b, r.c, r.d FROM l JOIN r ON l.a = r.c"

    @staticmethod
    def joined(left, right):
        return [
            (a, b, c, d)
            for a, b in left
            for c, d in right
            if matches(a, c)
        ]

    @settings(max_examples=60, deadline=None)
    @given(left=int_rows, right=int_rows, cut=small_ints.filter(bool))
    def test_one_side(self, left, right, cut):
        db = two_tables("a INT, b INT", left, "c INT, d INT", right)
        got = db.query(f"{self.JOIN} WHERE l.b > {cut}")
        expected = [
            row
            for row in self.joined(left, right)
            if row[1] is not None and row[1] > cut
        ]
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(left=int_rows, right=int_rows, cut=small_ints.filter(bool))
    def test_both_sides(self, left, right, cut):
        db = two_tables("a INT, b INT", left, "c INT, d INT", right)
        got = db.query(
            f"{self.JOIN} WHERE l.b IN (0, {cut}) AND r.d BETWEEN {cut} AND 2"
        )
        expected = [
            (a, b, c, d)
            for a, b, c, d in self.joined(left, right)
            if b in (0, cut) and d is not None and cut <= d <= 2
        ]
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(left=int_rows, right=int_rows, cut=small_ints.filter(bool))
    def test_across_or(self, left, right, cut):
        db = two_tables("a INT, b INT", left, "c INT, d INT", right)
        got = db.query(f"{self.JOIN} WHERE l.b > {cut} OR r.d IS NULL")
        expected = [
            (a, b, c, d)
            for a, b, c, d in self.joined(left, right)
            if (b is not None and b > cut) or d is None
        ]
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(left=int_rows, right=int_rows)
    def test_left_join_anti_join(self, left, right):
        # r.c IS NULL holds only for filler rows, so it must be applied
        # after the LEFT JOIN, never pushed to r's scan.
        db = two_tables("a INT, b INT", left, "c INT, d INT", right)
        got = db.query(
            "SELECT l.a, l.b FROM l LEFT JOIN r ON l.a = r.c "
            "WHERE r.c IS NULL"
        )
        expected = [
            (a, b)
            for a, b in left
            if not any(matches(a, c) for c, _ in right)
        ]
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(
        left=int_rows,
        right=int_rows,
        where=st.sampled_from(
            ["r.d < 'x'", "l.b = 0 AND r.d < 'x'", "r.d < 'x' AND l.b = 0"]
        ),
    )
    def test_type_mismatched_literal_errors_as_before(self, left, right, where):
        # ``int < str`` raises once any joined row has a non-NULL r.d —
        # judged on the whole join, whatever else WHERE filters — and an
        # empty join raises nothing.
        db = two_tables("a INT, b INT", left, "c INT, d INT", right)
        sql = f"{self.JOIN} WHERE {where}"
        if any(d is not None for _, _, _, d in self.joined(left, right)):
            with pytest.raises(SQLTypeError):
                db.query(sql)
        else:
            assert db.query(sql) == []


class TestUpdateDeleteSemantics:
    @settings(max_examples=30, deadline=None)
    @given(data=rows, cut=values)
    def test_delete_complement_of_where(self, data, cut):
        db = fresh_db(data)
        db.execute(f"DELETE FROM t WHERE a <= {cut}")
        got = db.query("SELECT a, b FROM t")
        assert sorted(got) == sorted(r for r in data if r[0] > cut)

    @settings(max_examples=30, deadline=None)
    @given(data=rows, cut=values)
    def test_update_only_touches_matching(self, data, cut):
        db = fresh_db(data)
        db.execute(f"UPDATE t SET b = 999 WHERE a = {cut}")
        for a, b in db.query("SELECT a, b FROM t"):
            if a == cut:
                assert b == 999
