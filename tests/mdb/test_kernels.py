"""SciQL UPDATE/SELECT on the SQL executor, and its vector primitives.

Array statements run on the executor's one expression engine.  Every
statement here is checked against cells or rows computed independently
in plain Python — same cells, same rowcounts, same exceptions — serial
and tiled alike.  The vector primitives in :mod:`repro.mdb.sql.vectors`
are additionally pinned directly, including the object-dtype edge cases
that decide whether a fast lane may engage at all.
"""

import math
import warnings

import numpy as np
import pytest

from repro.mdb import Database
from repro.mdb.errors import CatalogError, SQLTypeError
from repro.mdb.sql import vectors


def seeded_db() -> Database:
    db = Database()
    db.execute(
        "CREATE ARRAY img (x INT DIMENSION [0:6], y INT DIMENSION [0:5], "
        "v DOUBLE DEFAULT 0.0, w DOUBLE DEFAULT 1.0)"
    )
    arr = db.array("img")
    # Seed the planes directly so every run starts from identical cells
    # without going through UPDATE itself.
    xs = np.arange(6, dtype=np.float64)[:, None]
    ys = np.arange(5, dtype=np.float64)[None, :]
    arr._values["v"][:] = xs * 10.0 + ys - 12.0
    arr._values["w"][:] = (xs - ys) * 0.5
    return db


def seeded_cells():
    """The cells of :func:`seeded_db` as dicts, in C order."""
    return [
        {"x": x, "y": y, "v": x * 10.0 + y - 12.0, "w": (x - y) * 0.5}
        for x in range(6)
        for y in range(5)
    ]


#: UPDATE statements covering every operator class: arithmetic
#: (including masked division), comparisons, AND/OR/NOT, unary minus,
#: IN / NOT IN, BETWEEN / NOT BETWEEN, IS [NOT] NULL, dimension
#: references in both WHERE and SET, multi-assignment swap.  Each maps
#: to its per-cell meaning: (WHERE, {attribute: SET value or None for
#: NULL, which leaves the cell unchanged}).
UPDATE_MEANING = {
    "UPDATE img SET v = v * 2 + 1 WHERE x > 2": (
        lambda c: c["x"] > 2,
        {"v": lambda c: c["v"] * 2 + 1},
    ),
    "UPDATE img SET v = -v WHERE NOT (y < 2)": (
        lambda c: not c["y"] < 2,
        {"v": lambda c: -c["v"]},
    ),
    "UPDATE img SET v = v / (x + 1) WHERE x + y >= 4 AND v <> 0": (
        lambda c: c["x"] + c["y"] >= 4 and c["v"] != 0,
        {"v": lambda c: c["v"] / (c["x"] + 1)},
    ),
    "UPDATE img SET v = v / (x - 3)": (
        lambda c: True,
        {"v": lambda c: None if c["x"] == 3 else c["v"] / (c["x"] - 3)},
    ),
    "UPDATE img SET v = v % 3 WHERE x IN (0, 2, 5)": (
        lambda c: c["x"] in (0, 2, 5),
        {"v": lambda c: c["v"] % 3},
    ),
    "UPDATE img SET v = v + 1 WHERE x NOT IN (1, 3)": (
        lambda c: c["x"] not in (1, 3),
        {"v": lambda c: c["v"] + 1},
    ),
    "UPDATE img SET v = w, w = v WHERE y BETWEEN 1 AND 3": (
        lambda c: 1 <= c["y"] <= 3,
        {"v": lambda c: c["w"], "w": lambda c: c["v"]},
    ),
    "UPDATE img SET v = x WHERE y NOT BETWEEN 1 AND 2": (
        lambda c: not 1 <= c["y"] <= 2,
        {"v": lambda c: c["x"]},
    ),
    "UPDATE img SET v = 7.5 WHERE x = 3 OR y = 0": (
        lambda c: c["x"] == 3 or c["y"] == 0,
        {"v": lambda c: 7.5},
    ),
    "UPDATE img SET v = v + w * 2": (
        lambda c: True,
        {"v": lambda c: c["v"] + c["w"] * 2},
    ),
    "UPDATE img SET w = x * y WHERE v IS NOT NULL": (
        lambda c: True,
        {"w": lambda c: c["x"] * c["y"]},
    ),
    "UPDATE img SET v = x * 100 + y WHERE w <= 0.5": (
        lambda c: c["w"] <= 0.5,
        {"v": lambda c: c["x"] * 100 + c["y"]},
    ),
    "UPDATE img SET v = sign(v) + 1 WHERE w > 0": (
        lambda c: c["w"] > 0,
        {"v": lambda c: (c["v"] > 0) - (c["v"] < 0) + 1},
    ),
}
UPDATES = list(UPDATE_MEANING)


def expected_update(sql):
    """Rowcount + final planes of ``sql``, computed cell by cell."""
    where, sets = UPDATE_MEANING[sql]
    cells = seeded_cells()
    planes = {
        name: np.array([c[name] for c in cells]).reshape(6, 5)
        for name in ("v", "w")
    }
    count = 0
    for i, cell in enumerate(cells):
        if not where(cell):
            continue
        count += 1
        for name, value in sets.items():
            new = value(cell)
            if new is not None:
                planes[name].flat[i] = new
    return count, planes


def run_update(sql):
    """Rowcount + final planes of ``sql`` run on the engine."""
    db = seeded_db()
    count = db.execute(sql).rowcount
    arr = db.array("img")
    return count, {k: p.copy() for k, p in arr._values.items()}


def assert_same_update(got, want):
    assert got[0] == want[0]
    for name in want[1]:
        assert np.array_equal(got[1][name], want[1][name]), name


class TestUpdateEquality:
    @pytest.mark.parametrize("sql", UPDATES)
    def test_compiled_matches_interpreted(self, sql):
        assert_same_update(run_update(sql), expected_update(sql))

    def test_unknown_attribute_same_error_both_modes(self):
        db = seeded_db()
        with pytest.raises(CatalogError):
            db.execute("UPDATE img SET nope = 1.0")

    def test_empty_mask_skips_unknown_column_in_set(self):
        # As for a table, an UPDATE whose WHERE matches nothing returns
        # 0 before its SET expressions are ever evaluated.
        db = seeded_db()
        count = db.execute("UPDATE img SET v = nope + 1 WHERE x > 99").rowcount
        assert count == 0

    def test_plan_cache_hit_on_repeat(self):
        # The repeated statement reuses its parsed plan and still sees
        # the cells the first run wrote.
        db = seeded_db()
        sql = "UPDATE img SET v = v + 1 WHERE x > 2"
        db.execute(sql)
        hits = db.plan_cache.hits
        db.execute(sql)
        assert db.plan_cache.hits > hits
        assert db.array("img").get([3, 0], "v") == 20.0


class TestDimColumnCache:
    def test_values_match_meshgrid(self):
        db = seeded_db()
        arr = db.array("img")
        xg, yg = np.meshgrid(np.arange(6), np.arange(5), indexing="ij")
        assert np.array_equal(arr.dim_column("x"), xg.reshape(-1))
        assert np.array_equal(arr.dim_column("y"), yg.reshape(-1))

    def test_cached_and_read_only(self):
        arr = seeded_db().array("img")
        col = arr.dim_column("x")
        assert arr.dim_column("x") is col
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = 99

    def test_unknown_dimension_raises(self):
        arr = seeded_db().array("img")
        with pytest.raises(CatalogError):
            arr.dim_column("z")

    def test_copy_and_slice_get_fresh_caches(self):
        arr = seeded_db().array("img")
        col = arr.dim_column("x")
        sliced = arr.slice(x=(2, 5))
        assert sliced.dim_column("x") is not col
        # Slices keep absolute coordinates of the parent window.
        assert sliced.dim_column("x").min() == 2

    def test_update_materialises_only_referenced_dims(self):
        db = seeded_db()
        arr = db.array("img")
        assert arr._dim_cols == {}
        db.execute("UPDATE img SET v = v + 1 WHERE x > 2")
        assert set(arr._dim_cols) == {"x"}


class TestInListFastPath:
    def test_twenty_item_list_matches_loop(self):
        # Regression: the np.isin lane over a 20-item list must agree
        # with the per-item compare loop, NULLs excluded in both
        # directions (IN and NOT IN).
        db = Database()
        db.execute("CREATE TABLE t (n INT, s STRING)")
        for i in range(12):
            db.execute(f"INSERT INTO t VALUES ({i}, 'name{i}')")
        db.execute("INSERT INTO t VALUES (NULL, NULL)")
        items = ", ".join(str(i) for i in range(-4, 16))  # 20 items
        rows = db.execute(
            f"SELECT n FROM t WHERE n IN ({items})"
        ).rows()
        assert sorted(r[0] for r in rows) == list(range(12))
        rows = db.execute(
            f"SELECT n FROM t WHERE n NOT IN ({items})"
        ).rows()
        assert rows == []  # NULL operand matches neither side

    def test_string_inlist(self):
        db = Database()
        db.execute("CREATE TABLE t (s STRING)")
        for s in ("a", "b", "c", None):
            db.execute(
                "INSERT INTO t VALUES (NULL)"
                if s is None
                else f"INSERT INTO t VALUES ('{s}')"
            )
        rows = db.execute("SELECT s FROM t WHERE s IN ('a', 'c', 'z')").rows()
        assert sorted(r[0] for r in rows) == ["a", "c"]
        rows = db.execute("SELECT s FROM t WHERE s NOT IN ('a')").rows()
        assert sorted(r[0] for r in rows) == ["b", "c"]

    def test_null_items_never_match(self):
        db = Database()
        db.execute("CREATE TABLE t (n INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO t VALUES (2)")
        rows = db.execute("SELECT n FROM t WHERE n IN (1, NULL)").rows()
        assert [r[0] for r in rows] == [1]
        rows = db.execute("SELECT n FROM t WHERE n NOT IN (1, NULL)").rows()
        assert [r[0] for r in rows] == [2]

    def test_oversized_int_mixed_with_float_falls_back(self):
        big = 2**53 + 1
        data = np.empty(2, dtype=object)
        data[:] = [big, 2.0]
        data = data.astype(np.int64)
        out = vectors.vec_inlist_literals(
            data, np.ones(2, dtype=bool), [float(big), 2.0, big], False
        )
        assert out is None  # exactness cannot be guaranteed through f64


class TestConcat:
    def test_string_concat_with_nulls(self):
        db = Database()
        db.execute("CREATE TABLE t (a STRING, b STRING)")
        db.execute("INSERT INTO t VALUES ('foo', 'bar')")
        db.execute("INSERT INTO t VALUES ('x', NULL)")
        db.execute("INSERT INTO t VALUES (NULL, 'y')")
        rows = db.execute("SELECT a || b FROM t").rows()
        assert [r[0] for r in rows] == ["foobar", None, None]

    def test_mixed_type_concat_formats_like_fstring(self):
        db = Database()
        db.execute("CREATE TABLE t (a STRING, n INT)")
        db.execute("INSERT INTO t VALUES ('id-', 7)")
        rows = db.execute("SELECT a || n FROM t").rows()
        assert rows[0][0] == "id-7"


class TestVectorPrimitives:
    def test_python_float_division_by_zero_raises(self):
        ldata = np.empty(2, dtype=object)
        ldata[:] = [1.0, 2.0]
        rdata = np.empty(2, dtype=object)
        rdata[:] = [2.0, 0.0]
        valid = np.ones(2, dtype=bool)
        with pytest.raises(ZeroDivisionError, match="float division"):
            vectors.vec_arith("/", ldata, rdata, valid)
        with pytest.raises(ZeroDivisionError, match="float modulo"):
            vectors.vec_arith("%", ldata, rdata, valid)

    def test_np_float64_division_by_zero_stays_inf(self):
        # np.float64 scalars divide to inf instead of raising; the fast
        # lane must refuse them so the loop's semantics survive.
        ldata = np.empty(1, dtype=object)
        ldata[0] = np.float64(1.0)
        rdata = np.empty(1, dtype=object)
        rdata[0] = np.float64(0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # inf, and quietly
            data, valid = vectors.vec_arith(
                "/", ldata, rdata, np.ones(1, dtype=bool)
            )
        assert np.isinf(data[0]) and valid[0]

    def test_integer_division_by_zero_masked_null(self):
        data, valid = vectors.vec_arith(
            "/",
            np.array([6, 7], dtype=np.int64),
            np.array([2, 0], dtype=np.int64),
            np.ones(2, dtype=bool),
        )
        assert data[0] == 3 and valid[0]
        assert not valid[1]

    def test_mixed_type_compare_raises_sqltypeerror(self):
        ldata = np.empty(2, dtype=object)
        ldata[:] = [1, "a"]
        rdata = np.empty(2, dtype=object)
        rdata[:] = ["b", "c"]
        with pytest.raises(SQLTypeError, match="cannot compare"):
            vectors.vec_compare("<", ldata, rdata, np.ones(2, dtype=bool))

    def test_oversized_int_compares_exactly(self):
        # 2**53 and 2**53 + 1 collapse to the same float64; the loop
        # fallback must keep them distinct.
        ldata = np.empty(1, dtype=object)
        ldata[0] = 2**53 + 1
        rdata = np.empty(1, dtype=object)
        rdata[0] = 2**53
        data, valid = vectors.vec_compare(
            ">", ldata, rdata, np.ones(1, dtype=bool)
        )
        assert bool(data[0]) and bool(valid[0])
        data, _ = vectors.vec_compare(
            "=", ldata, rdata, np.ones(1, dtype=bool)
        )
        assert not bool(data[0])

    def test_null_rows_stay_null_through_arith(self):
        ldata = np.array([1.0, 2.0])
        rdata = np.array([10.0, 20.0])
        valid = np.array([True, False])
        data, out_valid = vectors.vec_arith("+", ldata, rdata, valid)
        assert data[0] == 11.0
        assert not out_valid[1]


# ---------------------------------------------------------------------------
# SELECT over arrays
# ---------------------------------------------------------------------------


def _distinct(rows):
    seen = []
    for row in rows:
        if row not in seen:
            seen.append(row)
    return seen


def _group_max(cells):
    best = {}
    for c in cells:
        best[c["x"]] = max(best.get(c["x"], c["v"]), c["v"])
    return [(x, m) for x, m in best.items()]


#: SELECT statements over the array (projections, scalar functions,
#: star expansion, DISTINCT, LIMIT/OFFSET, GROUP BY aggregates,
#: ORDER BY), each with its result names and rows computed from the
#: cells in plain Python.
SELECT_MEANING = {
    "SELECT x, y, v FROM img WHERE v > -2.0": (
        ("x", "y", "v"),
        lambda cs: [(c["x"], c["y"], c["v"]) for c in cs if c["v"] > -2.0],
    ),
    "SELECT * FROM img WHERE w <= 0.5": (
        ("x", "y", "v", "w"),
        lambda cs: [
            (c["x"], c["y"], c["v"], c["w"]) for c in cs if c["w"] <= 0.5
        ],
    ),
    "SELECT v + w AS s, v * 2 - 1 AS t FROM img WHERE x IN (1, 3, 5)": (
        ("s", "t"),
        lambda cs: [
            (c["v"] + c["w"], c["v"] * 2 - 1)
            for c in cs
            if c["x"] in (1, 3, 5)
        ],
    ),
    "SELECT abs(v) AS a, floor(w) AS f, ceil(w) AS c FROM img": (
        ("a", "f", "c"),
        lambda cs: [
            (abs(c["v"]), math.floor(c["w"]), math.ceil(c["w"])) for c in cs
        ],
    ),
    "SELECT sqrt(abs(v)) AS r FROM img WHERE v <> 0": (
        ("r",),
        lambda cs: [(math.sqrt(abs(c["v"])),) for c in cs if c["v"] != 0],
    ),
    "SELECT power(v, 2) AS p, power(2.0, w) AS q FROM img WHERE v > 0": (
        ("p", "q"),
        lambda cs: [(c["v"] ** 2.0, 2.0 ** c["w"]) for c in cs if c["v"] > 0],
    ),
    "SELECT DISTINCT x FROM img WHERE v > 0": (
        ("x",),
        lambda cs: _distinct([(c["x"],) for c in cs if c["v"] > 0]),
    ),
    "SELECT x, v FROM img WHERE v > -5 LIMIT 7 OFFSET 3": (
        ("x", "v"),
        lambda cs: [(c["x"], c["v"]) for c in cs if c["v"] > -5][3:10],
    ),
    "SELECT -v AS n FROM img": (
        ("n",),
        lambda cs: [(-c["v"],) for c in cs],
    ),
    "SELECT x, max(v) AS m FROM img GROUP BY x": (
        ("x", "m"),
        _group_max,
    ),
    "SELECT x, v FROM img ORDER BY v": (
        ("x", "v"),
        lambda cs: sorted(((c["x"], c["v"]) for c in cs), key=lambda r: r[1]),
    ),
}
SELECTS = list(SELECT_MEANING)


class TestSelectEquality:
    @pytest.mark.parametrize("sql", SELECTS)
    def test_compiled_matches_interpreted(self, sql):
        names, rows = SELECT_MEANING[sql]
        result = seeded_db().execute(sql)
        assert tuple(result.names) == names
        assert result.rows() == rows(seeded_cells())

    def test_plan_cache_hit_on_repeat(self):
        db = seeded_db()
        db.execute("SELECT x, v FROM img WHERE v > 0")
        hits = db.plan_cache.hits
        db.execute("SELECT x, v FROM img WHERE v > 0")
        assert db.plan_cache.hits > hits

    def test_unknown_column_same_error_both_modes(self):
        with pytest.raises(CatalogError):
            seeded_db().execute("SELECT nope FROM img")


# ---------------------------------------------------------------------------
# Scalar-function lanes
# ---------------------------------------------------------------------------


class TestScalarFunctionLanes:
    """Per-row error semantics of the scalar functions over arrays.

    The registry implementations define the contract: ``sqrt`` of a
    negative is a silent NaN, ``power(0, negative)`` raises
    ``ExecutionError``, ``power`` overflow propagates a *raw*
    ``OverflowError``, and a negative base with a fractional exponent
    yields python's complex result.
    """

    def _outcome(self, values, sql):
        db = Database()
        db.execute(
            f"CREATE ARRAY t (x INT DIMENSION [0:{len(values)}], "
            "v DOUBLE DEFAULT 0.0)"
        )
        db.array("t")._values["v"][:] = np.asarray(values, dtype=np.float64)
        try:
            return "ok", db.execute(sql).rows()
        except Exception as exc:  # noqa: BLE001 - the error is the outcome
            return type(exc).__name__, str(exc)

    def test_sqrt_negative_is_silent_nan_both_modes(self):
        kind, rows = self._outcome(
            [-1.0, 4.0, -9.0], "SELECT sqrt(v) AS r FROM t"
        )
        assert kind == "ok"
        assert math.isnan(rows[0][0]) and math.isnan(rows[2][0])
        assert rows[1] == (2.0,)

    def test_power_zero_negative_raises_execution_error(self):
        kind, _ = self._outcome(
            [2.0, 0.0, 3.0], "SELECT power(v, -1) AS r FROM t"
        )
        assert kind == "ExecutionError"

    def test_power_overflow_raises_raw_overflowerror(self):
        kind, _ = self._outcome(
            [1e200, 2.0], "SELECT power(v, 3) AS r FROM t"
        )
        assert kind == "OverflowError"

    def test_power_negative_base_fractional_exponent(self):
        kind, rows = self._outcome(
            [-2.0, 4.0], "SELECT power(v, 0.5) AS r FROM t"
        )
        assert (kind, rows) == ("ok", [((-2.0) ** 0.5,), (2.0,)])

    def test_power_bit_identical_on_random_doubles(self):
        # Regression: np.power's SIMD lane differs from python's
        # ``float ** float`` in the last ulp on a few percent of
        # ordinary inputs, so ``power`` must stay on the exact per-row
        # loop.  A vectorised replacement that is not bit-identical
        # fails here.
        rng = np.random.default_rng(42)
        values = rng.uniform(0.5, 9.0, 512)
        for exponent in ("2", "2.5", "3", "-1.0"):
            sql = f"SELECT power(v, {exponent}) AS r FROM t"
            kind, rows = self._outcome(values, sql)
            want = [(float(v) ** float(exponent),) for v in values]
            assert (kind, rows) == ("ok", want), exponent


# ---------------------------------------------------------------------------
# tile_aggregate
# ---------------------------------------------------------------------------


class TestTileAggregatePlans:
    def _tile(self, extents, tile, func):
        """The engine's tiled reduction and a per-tile reference."""
        db = Database()
        db.execute(
            f"CREATE ARRAY a (x INT DIMENSION [0:{extents[0]}], "
            f"y INT DIMENSION [0:{extents[1]}], v DOUBLE DEFAULT 0.0)"
        )
        arr = db.array("a")
        rng = np.random.default_rng(extents[0] * 100 + extents[1])
        arr._values["v"][:] = rng.normal(0, 5, extents)
        out = arr.tile_aggregate(tile=list(tile), func=func, attr="v")
        got = out.attribute(out.attributes[0][0]).copy()
        plane = arr.attribute("v")
        reduce = {"mean": np.mean, "sum": np.sum, "min": np.min, "max": np.max}
        want = np.array(
            [
                [
                    reduce[func](
                        plane[i : i + tile[0], j : j + tile[1]]
                    )
                    for j in range(0, got.shape[1] * tile[1], tile[1])
                ]
                for i in range(0, got.shape[0] * tile[0], tile[0])
            ]
        )
        return got, want

    @pytest.mark.parametrize("func", ["mean", "sum", "min", "max"])
    def test_compiled_matches_interpreted(self, func):
        got, want = self._tile((12, 9), (3, 3), func)
        assert got.shape == (4, 3)
        # Summation order may differ from the per-tile reduction: allow
        # float64 rounding, nothing more.
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_same_signature_different_shape_no_stale_plan(self):
        # Two same-named arrays of different shapes must each reduce at
        # their own shape.
        a, _ = self._tile((8, 6), (2, 3), "mean")
        b, _ = self._tile((4, 6), (2, 3), "mean")
        assert a.shape == (4, 2)
        assert b.shape == (2, 2)
