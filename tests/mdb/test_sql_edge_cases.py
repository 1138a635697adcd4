"""SQL executor edge cases and regression guards."""

import random

import pytest

from repro.mdb import Database
from repro.mdb.errors import SQLSyntaxError, SQLTypeError
from repro.mdb.sql import executor


@pytest.fixture
def db():
    d = Database()
    d.execute("CREATE TABLE t (id INT, grp STRING, val DOUBLE)")
    d.execute(
        "INSERT INTO t VALUES (1, 'a', 10.0), (2, 'a', NULL), "
        "(3, 'b', 30.0), (4, NULL, 40.0), (5, 'b', NULL)"
    )
    return d


class TestNullSemantics:
    def test_sum_skips_nulls(self, db):
        assert db.scalar("SELECT sum(val) FROM t") == 80.0

    def test_avg_skips_nulls(self, db):
        assert db.scalar("SELECT avg(val) FROM t") == pytest.approx(80 / 3)

    def test_count_column_vs_star(self, db):
        assert db.scalar("SELECT count(val) FROM t") == 3
        assert db.scalar("SELECT count(grp) FROM t") == 4
        assert db.scalar("SELECT count(*) FROM t") == 5

    def test_group_by_null_key_groups_together(self, db):
        db.execute("INSERT INTO t VALUES (6, NULL, 1.0)")
        rows = db.query("SELECT grp, count(*) FROM t GROUP BY grp")
        null_groups = [r for r in rows if r[0] is None]
        assert null_groups == [(None, 2)]

    def test_null_arithmetic_propagates(self, db):
        rows = db.query("SELECT val + 1 FROM t WHERE id = 2")
        assert rows == [(None,)]

    def test_concat_with_null_is_null(self, db):
        rows = db.query("SELECT grp || 'x' FROM t WHERE id = 4")
        assert rows == [(None,)]

    def test_order_by_nulls_last_both_directions(self, db):
        asc = db.query("SELECT id FROM t ORDER BY val")
        desc = db.query("SELECT id FROM t ORDER BY val DESC")
        assert asc[-2:] in ([(2,), (5,)], [(5,), (2,)])
        assert desc[-2:] in ([(2,), (5,)], [(5,), (2,)])
        assert asc[0] == (1,)
        assert desc[0] == (4,)

    def test_in_list_null_never_matches(self, db):
        assert db.scalar(
            "SELECT count(*) FROM t WHERE grp IN ('a', 'b')"
        ) == 4

    def test_where_null_filtered(self, db):
        assert db.scalar("SELECT count(*) FROM t WHERE val > 0") == 3


class TestExpressionsEdge:
    def test_nested_case(self, db):
        rows = db.query(
            "SELECT CASE WHEN val IS NULL THEN 'none' "
            "ELSE CASE WHEN val > 20 THEN 'big' ELSE 'small' END END "
            "FROM t ORDER BY id"
        )
        assert [r[0] for r in rows] == [
            "small", "none", "big", "big", "none",
        ]

    def test_cast_failure(self, db):
        db.execute("INSERT INTO t VALUES (9, 'not-num', 1.0)")
        with pytest.raises(SQLTypeError):
            db.query("SELECT CAST(grp AS INT) FROM t WHERE id = 9")

    def test_like_special_chars_escaped(self, db):
        db.execute("INSERT INTO t VALUES (7, 'a.c', 1.0)")
        db.execute("INSERT INTO t VALUES (8, 'abc', 1.0)")
        rows = db.query("SELECT id FROM t WHERE grp LIKE 'a.c'")
        assert rows == [(7,)]  # '.' is literal, not regex

    def test_mixed_type_comparison_fails(self, db):
        with pytest.raises(SQLTypeError):
            db.query("SELECT * FROM t WHERE grp > 5")

    def test_int_float_promotion(self, db):
        assert db.scalar("SELECT 1 + 0.5") == 1.5
        assert isinstance(db.scalar("SELECT 2 * 3"), int)

    def test_deeply_nested_parentheses(self, db):
        assert db.scalar("SELECT ((((1 + 2)) * ((3))))") == 9

    def test_unary_minus_on_column(self, db):
        rows = db.query("SELECT -val FROM t WHERE id = 1")
        assert rows == [(-10.0,)]

    def test_modulo_by_zero_null(self, db):
        assert db.scalar("SELECT 5 % 0") is None

    @pytest.mark.parametrize("with_nulls", [False, True])
    def test_numeric_cast_equals_per_cell_coerce(
        self, monkeypatch, with_nulls
    ):
        from repro.mdb import types

        cells = {
            "i": [3, -7, 0, 2**53 + 1, None],
            "d": [1.5, -0.0, 1e300, 2.0, None],
            "b": [True, False, True, False, None],
        }
        if not with_nulls:
            cells = {name: values[:-1] for name, values in cells.items()}
        d = Database()
        d.execute("CREATE TABLE n (i INT, d DOUBLE, b BOOL)")
        for row in zip(*cells.values()):
            d.execute(
                "INSERT INTO n VALUES ("
                + ", ".join("NULL" if v is None else str(v) for v in row)
                + ")"
            )
        casts = [("i", "DOUBLE"), ("b", "INT"), ("b", "DOUBLE"),
                 ("d", "BOOL"), ("i", "BOOL")]
        want = {
            (col, to): [types.type_by_name(to).coerce(v) for v in cells[col]]
            for col, to in casts
        }
        calls = []
        coerce = types.ColumnType.coerce
        monkeypatch.setattr(
            types.ColumnType,
            "coerce",
            lambda self, v: calls.append(v) or coerce(self, v),
        )
        got = {
            (col, to): [
                r[0] for r in d.query(f"SELECT CAST({col} AS {to}) FROM n")
            ]
            for col, to in casts
        }
        monkeypatch.undo()
        for cast in casts:
            assert got[cast] == want[cast]
            assert list(map(type, got[cast])) == list(map(type, want[cast]))
        # Numeric operands take the one numpy cast, not the cell loop.
        assert calls == []

    def test_arithmetic_overflow_is_a_domain_error(self, db):
        with pytest.raises(SQLTypeError, match="out of range"):
            db.query("SELECT 99999999999999999999 + 1")
        with pytest.raises(SQLTypeError, match="out of range"):
            db.query("SELECT 2 - 99999999999999999999")


class TestGroupingEdge:
    def test_having_aggregate_not_in_select(self, db):
        rows = db.query(
            "SELECT grp FROM t GROUP BY grp HAVING count(val) >= 1 "
        )
        # The NULL group qualifies too: id=4 has grp NULL but val 40.
        assert sorted(r[0] or "" for r in rows) == ["", "a", "b"]

    def test_group_by_expression_in_select(self, db):
        rows = db.query(
            "SELECT id % 2, count(*) FROM t GROUP BY id % 2 "
            "ORDER BY id % 2"
        )
        assert rows == [(0, 2), (1, 3)]

    def test_min_max_on_strings(self, db):
        assert db.scalar("SELECT min(grp) FROM t") == "a"
        assert db.scalar("SELECT max(grp) FROM t") == "b"

    def test_group_concat(self, db):
        value = db.scalar(
            "SELECT group_concat(grp) FROM t WHERE grp = 'a'"
        )
        assert value == "a,a"

    def test_aggregate_of_expression(self, db):
        assert db.scalar(
            "SELECT sum(val * 2) FROM t WHERE val IS NOT NULL"
        ) == 160.0

    def test_order_by_aggregate_directly(self, db):
        rows = db.query(
            "SELECT grp FROM t WHERE grp IS NOT NULL "
            "GROUP BY grp ORDER BY sum(val) DESC"
        )
        assert rows[0] == ("b",)


class TestJoinsEdge:
    @pytest.fixture
    def jdb(self, db):
        db.execute("CREATE TABLE u (id INT, tag STRING)")
        db.execute("INSERT INTO u VALUES (1, 'x'), (1, 'y'), (99, 'z')")
        return db

    def test_join_duplicate_keys_multiply(self, jdb):
        assert jdb.scalar(
            "SELECT count(*) FROM t JOIN u ON t.id = u.id"
        ) == 2

    def test_left_join_then_where_on_right(self, jdb):
        rows = jdb.query(
            "SELECT t.id FROM t LEFT JOIN u ON t.id = u.id "
            "WHERE u.tag IS NULL ORDER BY t.id"
        )
        assert [r[0] for r in rows] == [2, 3, 4, 5]

    def test_join_on_expression_falls_back(self, jdb):
        # Non-column-equality condition: nested-loop path.
        assert jdb.scalar(
            "SELECT count(*) FROM t JOIN u ON t.id + 98 = u.id"
        ) == 1

    def test_empty_left_side(self, jdb):
        jdb.execute("CREATE TABLE empty (id INT)")
        assert jdb.scalar(
            "SELECT count(*) FROM empty JOIN u ON empty.id = u.id"
        ) == 0

    def test_insert_select_with_join(self, jdb):
        jdb.execute("CREATE TABLE pairs (tid INT, tag STRING)")
        jdb.execute(
            "INSERT INTO pairs SELECT t.id, u.tag FROM t "
            "JOIN u ON t.id = u.id"
        )
        assert jdb.scalar("SELECT count(*) FROM pairs") == 2


class TestResidualOn:
    """An inner ``ON`` with key equalities plus other conjuncts joins on
    the keys and then filters; it never builds the cross product."""

    @pytest.fixture
    def pair(self):
        rng = random.Random(7)
        left = [
            (rng.choice([None, 0, 1, 2]), rng.randint(-3, 3)) for _ in range(40)
        ]
        right = [
            (rng.choice([None, 0, 1, 2]), rng.randint(-3, 3)) for _ in range(40)
        ]
        db = Database()
        db.execute("CREATE TABLE l (a INT, b INT)")
        db.execute("CREATE TABLE r (c INT, d INT)")
        db.insert_rows("l", left)
        db.insert_rows("r", right)
        return db, left, right

    @pytest.fixture
    def no_cross_join(self, monkeypatch):
        def refuse(left, right):
            raise AssertionError("inner join built a cross product")

        monkeypatch.setattr(executor, "_cross_join", refuse)

    def test_mixed_on_equals_nested_loop_in_order(self, pair, no_cross_join):
        db, left, right = pair
        got = db.query(
            "SELECT l.a, l.b, r.c, r.d FROM l JOIN r "
            "ON l.a = r.c AND l.b < r.d AND r.d <> 0"
        )
        expected = [
            (a, b, c, d)
            for a, b in left
            for c, d in right
            if a is not None and a == c and b < d and d != 0
        ]
        assert got == expected and expected

    def test_key_equality_is_python_equality_with_a_residual(
        self, no_cross_join
    ):
        # The key conjunct means what it means without the residual:
        # 1 == 1.0, but 2**53 + 1 != float(2**53).
        db = Database()
        db.execute("CREATE TABLE l (a INT, b INT)")
        db.execute("CREATE TABLE r (y DOUBLE, d INT)")
        db.insert_rows("l", [(1, 0), (2**53 + 1, 0)])
        db.insert_rows("r", [(1.0, 5), (float(2**53), 5)])
        sql = "SELECT l.a, r.y FROM l JOIN r ON l.a = r.y"
        assert db.query(sql) == [(1, 1.0)]
        assert db.query(sql + " AND l.b < r.d") == [(1, 1.0)]

    def test_raising_residual_keeps_the_cross_product(self):
        # `l.b < 'x'` raises on every row it sees.  No keys match here,
        # so judged on the key matches alone it would not raise at all.
        db = Database()
        db.execute("CREATE TABLE l (a INT, b INT)")
        db.execute("CREATE TABLE r (c INT, d INT)")
        db.insert_rows("l", [(1, 0)])
        db.insert_rows("r", [(2, 0)])
        with pytest.raises(SQLTypeError):
            db.query(
                "SELECT count(*) FROM l JOIN r ON l.a = r.c AND l.b < 'x'"
            )

    def test_left_join_residual_appends_unmatched_rows(self, pair):
        db, left, right = pair
        got = db.query(
            "SELECT l.a, l.b, r.d FROM l LEFT JOIN r "
            "ON l.a = r.c AND l.b < r.d"
        )
        hits = [
            [(a, b, d) for c, d in right if a is not None and a == c and b < d]
            for a, b in left
        ]
        unmatched = [(a, b, None) for (a, b), h in zip(left, hits) if not h]
        assert got == [row for h in hits for row in h] + unmatched


class TestArrayRelationalMix:
    def test_insert_select_from_array(self):
        db = Database()
        db.execute(
            "CREATE ARRAY a (x INT DIMENSION [0:3], v DOUBLE DEFAULT 2.0)"
        )
        db.execute("CREATE TABLE snapshot (x INT, v DOUBLE)")
        db.execute("INSERT INTO snapshot SELECT x, v FROM a")
        assert db.scalar("SELECT sum(v) FROM snapshot") == 6.0

    def test_array_table_aggregation_join(self):
        db = Database()
        db.execute(
            "CREATE ARRAY a (x INT DIMENSION [0:4], v DOUBLE DEFAULT 1.0)"
        )
        db.execute("UPDATE a SET v = x * 1.0")
        db.execute("CREATE TABLE labels (x INT, name STRING)")
        db.execute(
            "INSERT INTO labels VALUES (0,'zero'),(1,'one'),"
            "(2,'two'),(3,'three')"
        )
        rows = db.query(
            "SELECT labels.name FROM a JOIN labels ON a.x = labels.x "
            "WHERE a.v >= 2 ORDER BY a.v"
        )
        assert [r[0] for r in rows] == ["two", "three"]


class TestParserEdge:
    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT",
            "SELECT FROM t",
            "SELECT * FROM",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t GROUP BY",
            "SELECT * FROM t ORDER",
            "INSERT INTO t",
            "UPDATE t",
            "DELETE t",
            "SELECT * FROM t LIMIT 1.5",
            "SELECT CASE END",
        ],
    )
    def test_rejected(self, bad):
        db = Database()
        db.execute("CREATE TABLE t (id INT)")
        with pytest.raises(SQLSyntaxError):
            db.execute(bad)

    def test_quoted_identifiers(self):
        db = Database()
        db.execute('CREATE TABLE "Weird Name" (id INT)')
        db.execute('INSERT INTO "Weird Name" VALUES (1)')
        assert db.scalar('SELECT count(*) FROM "Weird Name"') == 1

    def test_keywords_case_insensitive(self):
        db = Database()
        db.execute("create table T (ID int)")
        db.execute("insert into t values (1)")
        assert db.scalar("select COUNT(*) from T") == 1
