"""Compiled-kernel vs interpreter equality for the SQL/SciQL layer.

The compiled path (``REPRO_KERNELS`` on, the default) must be
bit-for-bit indistinguishable from the per-row interpretive path —
same cells, same rowcounts, same exceptions — serial and tiled alike.
The vector primitives in :mod:`repro.kernels` are additionally pinned
directly, including the object-dtype edge cases that decide whether a
fast lane may engage at all.
"""

import warnings

import numpy as np
import pytest

from repro import kernels, parallel
from repro.mdb import Database
from repro.mdb.errors import CatalogError, SQLTypeError


def seeded_db() -> Database:
    db = Database()
    db.execute(
        "CREATE ARRAY img (x INT DIMENSION [0:6], y INT DIMENSION [0:5], "
        "v DOUBLE DEFAULT 0.0, w DOUBLE DEFAULT 1.0)"
    )
    arr = db.array("img")
    # Seed the planes directly so both execution modes start from
    # identical cells without going through UPDATE itself.
    xs = np.arange(6, dtype=np.float64)[:, None]
    ys = np.arange(5, dtype=np.float64)[None, :]
    arr._values["v"][:] = xs * 10.0 + ys - 12.0
    arr._values["w"][:] = (xs - ys) * 0.5
    return db


#: UPDATE statements covering every operator the compiler lowers:
#: arithmetic (including masked division), comparisons, AND/OR/NOT,
#: unary minus, IN / NOT IN, BETWEEN / NOT BETWEEN, IS [NOT] NULL,
#: dimension references in both WHERE and SET, multi-assignment swap.
UPDATES = [
    "UPDATE img SET v = v * 2 + 1 WHERE x > 2",
    "UPDATE img SET v = -v WHERE NOT (y < 2)",
    "UPDATE img SET v = v / (x + 1) WHERE x + y >= 4 AND v <> 0",
    "UPDATE img SET v = v / (x - 3)",
    "UPDATE img SET v = v % 3 WHERE x IN (0, 2, 5)",
    "UPDATE img SET v = v + 1 WHERE x NOT IN (1, 3)",
    "UPDATE img SET v = w, w = v WHERE y BETWEEN 1 AND 3",
    "UPDATE img SET v = x WHERE y NOT BETWEEN 1 AND 2",
    "UPDATE img SET v = 7.5 WHERE x = 3 OR y = 0",
    "UPDATE img SET v = v + w * 2",
    "UPDATE img SET w = x * y WHERE v IS NOT NULL",
    "UPDATE img SET v = x * 100 + y WHERE w <= 0.5",
]


def run_update(monkeypatch, sql, kernels_on, workers=None):
    """Rowcount + final planes of ``sql`` under one execution mode."""
    kernels.clear_caches()
    if kernels_on:
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
    else:
        monkeypatch.setenv(kernels.KERNELS_ENV, "0")
    if workers is None:
        monkeypatch.delenv(parallel.WORKERS_ENV, raising=False)
    else:
        monkeypatch.setenv(parallel.WORKERS_ENV, str(workers))
    db = seeded_db()
    count = db.execute(sql).rowcount
    arr = db.array("img")
    return count, {k: p.copy() for k, p in arr._values.items()}


class TestUpdateEquality:
    @pytest.mark.parametrize("sql", UPDATES)
    def test_compiled_matches_interpreted(self, monkeypatch, sql):
        want = run_update(monkeypatch, sql, kernels_on=False)
        got = run_update(monkeypatch, sql, kernels_on=True)
        assert got[0] == want[0]
        for name in want[1]:
            assert np.array_equal(
                got[1][name], want[1][name], equal_nan=True
            ), name

    @pytest.mark.parametrize("sql", UPDATES)
    def test_tiled_matches_serial(self, monkeypatch, sql):
        # Force the tiler to split even a 30-cell array so the
        # gather/scatter band path is exercised, then compare against
        # the serial compiled run.
        want = run_update(monkeypatch, sql, kernels_on=True)
        kernels.TILER.reset()
        # Drag the observed rate down to ~10 cells/sec so a 30-cell
        # array estimates well past the tiling threshold.
        for _ in range(40):
            kernels.TILER.observe("sciql.update", 10, 1.0)
        assert kernels.TILER.parts("sciql.update", 30, 4) > 1
        monkeypatch.setenv(parallel.WORKERS_ENV, "4")
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        db = seeded_db()
        count = db.execute(sql).rowcount
        arr = db.array("img")
        assert count == want[0]
        for name in want[1]:
            assert np.array_equal(
                arr._values[name], want[1][name], equal_nan=True
            ), name

    def test_unknown_attribute_same_error_both_modes(self, monkeypatch):
        for on in (True, False):
            kernels.clear_caches()
            if on:
                monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
            else:
                monkeypatch.setenv(kernels.KERNELS_ENV, "0")
            db = seeded_db()
            with pytest.raises(CatalogError):
                db.execute("UPDATE img SET nope = 1.0")

    def test_empty_mask_skips_unknown_column_in_set(self, monkeypatch):
        # The interpretive path returns 0 before it ever evaluates the
        # SET expressions when no cell matches; the dispatcher must
        # preserve that raise order rather than failing at compile time.
        for on in (True, False):
            kernels.clear_caches()
            if on:
                monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
            else:
                monkeypatch.setenv(kernels.KERNELS_ENV, "0")
            db = seeded_db()
            count = db.execute(
                "UPDATE img SET v = nope + 1 WHERE x > 99"
            ).rowcount
            assert count == 0

    def test_plan_cache_hit_on_repeat(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        kernels.clear_caches()
        db = seeded_db()
        db.execute("UPDATE img SET v = v + 1 WHERE x > 2")
        misses = kernels.sql_kernel_cache.misses
        hits = kernels.sql_kernel_cache.hits
        db.execute("UPDATE img SET v = v + 1 WHERE x > 2")
        assert kernels.sql_kernel_cache.hits > hits
        assert kernels.sql_kernel_cache.misses == misses

    def test_unsupported_expression_falls_back(self, monkeypatch):
        # sign() is registered but not lowered; the statement must still
        # execute via the interpretive path and cache the refusal (no
        # recompile storm), with the repeat lookup counted as a refusal
        # rather than a hit.
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        kernels.clear_caches()
        db = Database()
        db.execute(
            "CREATE ARRAY t (x INT DIMENSION [0:3], v DOUBLE DEFAULT 1.0)"
        )
        db.execute("UPDATE t SET v = sign(v) + 1")
        misses = kernels.sql_kernel_cache.misses
        hits = kernels.sql_kernel_cache.hits
        refusals = kernels.sql_kernel_cache.refusals
        db.execute("UPDATE t SET v = sign(v) + 1")
        assert kernels.sql_kernel_cache.misses == misses
        assert kernels.sql_kernel_cache.hits == hits
        assert kernels.sql_kernel_cache.refusals == refusals + 1
        assert db.array("t")._values["v"][0] == 2.0


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

    def test_update_materialises_only_referenced_dims(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        kernels.clear_caches()
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
        out = kernels.vec_inlist_literals(
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
            kernels.vec_arith("/", ldata, rdata, valid)
        with pytest.raises(ZeroDivisionError, match="float modulo"):
            kernels.vec_arith("%", ldata, rdata, valid)

    def test_np_float64_division_by_zero_stays_inf(self):
        # np.float64 scalars divide to inf instead of raising; the fast
        # lane must refuse them so the loop's semantics survive.
        ldata = np.empty(1, dtype=object)
        ldata[0] = np.float64(1.0)
        rdata = np.empty(1, dtype=object)
        rdata[0] = np.float64(0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # inf, and quietly
            data, valid = kernels.vec_arith(
                "/", ldata, rdata, np.ones(1, dtype=bool)
            )
        assert np.isinf(data[0]) and valid[0]

    def test_integer_division_by_zero_masked_null(self):
        data, valid = kernels.vec_arith(
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
            kernels.vec_compare("<", ldata, rdata, np.ones(2, dtype=bool))

    def test_oversized_int_compares_exactly(self):
        # 2**53 and 2**53 + 1 collapse to the same float64; the loop
        # fallback must keep them distinct.
        ldata = np.empty(1, dtype=object)
        ldata[0] = 2**53 + 1
        rdata = np.empty(1, dtype=object)
        rdata[0] = 2**53
        data, valid = kernels.vec_compare(
            ">", ldata, rdata, np.ones(1, dtype=bool)
        )
        assert bool(data[0]) and bool(valid[0])
        data, _ = kernels.vec_compare(
            "=", ldata, rdata, np.ones(1, dtype=bool)
        )
        assert not bool(data[0])

    def test_null_rows_stay_null_through_arith(self):
        ldata = np.array([1.0, 2.0])
        rdata = np.array([10.0, 20.0])
        valid = np.array([True, False])
        data, out_valid = kernels.vec_arith("+", ldata, rdata, valid)
        assert data[0] == 11.0
        assert not out_valid[1]


class TestAdaptiveTiler:
    @pytest.fixture(autouse=True)
    def fresh(self):
        kernels.TILER.reset()
        yield
        kernels.TILER.reset()

    def test_cold_start_uses_default_rate(self):
        assert kernels.TILER.rate("sciql.map") == (
            kernels.AdaptiveTiler.DEFAULT_RATE
        )

    def test_observation_moves_rate_and_parts(self):
        assert kernels.TILER.parts("op", 1000, 4) == 1
        kernels.TILER.observe("op", 1000, 1.0)  # brutally slow: 1k c/s
        assert kernels.TILER.rate("op") < 1e5
        assert kernels.TILER.parts("op", 1000, 4) > 1

    def test_parts_bounded_by_workers(self):
        kernels.TILER.observe("op", 1000, 1.0)
        assert kernels.TILER.parts("op", 10**9, 4) == 8


# ---------------------------------------------------------------------------
# SELECT lowering
# ---------------------------------------------------------------------------


#: SELECT statements the compiler lowers (projections, scalar
#: functions, star expansion, DISTINCT, LIMIT/OFFSET) plus shapes it
#: must refuse (ORDER BY, GROUP BY aggregates) — parity holds either
#: way because refusal falls back to the interpretive frame pipeline.
SELECTS = [
    "SELECT x, y, v FROM img WHERE v > -2.0",
    "SELECT * FROM img WHERE w <= 0.5",
    "SELECT v + w AS s, v * 2 - 1 AS t FROM img WHERE x IN (1, 3, 5)",
    "SELECT abs(v) AS a, floor(w) AS f, ceil(w) AS c FROM img",
    "SELECT sqrt(abs(v)) AS r FROM img WHERE v <> 0",
    "SELECT power(v, 2) AS p, power(2.0, w) AS q FROM img WHERE v > 0",
    "SELECT DISTINCT x FROM img WHERE v > 0",
    "SELECT x, v FROM img WHERE v > -5 LIMIT 7 OFFSET 3",
    "SELECT -v AS n FROM img",
    "SELECT x, max(v) AS m FROM img GROUP BY x",
    "SELECT x, v FROM img ORDER BY v",
]


def run_select(monkeypatch, sql, kernels_on):
    """Column names + rows of ``sql`` under one execution mode."""
    kernels.clear_caches()
    if kernels_on:
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
    else:
        monkeypatch.setenv(kernels.KERNELS_ENV, "0")
    db = seeded_db()
    result = db.execute(sql)
    # repr() round-trip makes NaN rows comparable (nan != nan).
    return tuple(result.names), [repr(r) for r in result.rows()]


class TestSelectEquality:
    @pytest.mark.parametrize("sql", SELECTS)
    def test_compiled_matches_interpreted(self, monkeypatch, sql):
        want = run_select(monkeypatch, sql, kernels_on=False)
        got = run_select(monkeypatch, sql, kernels_on=True)
        assert got == want

    def test_plan_cache_hit_on_repeat(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        kernels.clear_caches()
        db = seeded_db()
        db.execute("SELECT x, v FROM img WHERE v > 0")
        misses = kernels.sql_kernel_cache.misses
        hits = kernels.sql_kernel_cache.hits
        db.execute("SELECT x, v FROM img WHERE v > 0")
        assert kernels.sql_kernel_cache.hits > hits
        assert kernels.sql_kernel_cache.misses == misses

    def test_refused_select_counted_as_refusal_not_hit(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        kernels.clear_caches()
        db = seeded_db()
        db.execute("SELECT x, v FROM img ORDER BY v")
        misses = kernels.sql_kernel_cache.misses
        hits = kernels.sql_kernel_cache.hits
        refusals = kernels.sql_kernel_cache.refusals
        db.execute("SELECT x, v FROM img ORDER BY v")
        assert kernels.sql_kernel_cache.misses == misses
        assert kernels.sql_kernel_cache.hits == hits
        assert kernels.sql_kernel_cache.refusals == refusals + 1

    def test_unknown_column_same_error_both_modes(self, monkeypatch):
        for on in (True, False):
            kernels.clear_caches()
            if on:
                monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
            else:
                monkeypatch.setenv(kernels.KERNELS_ENV, "0")
            db = seeded_db()
            with pytest.raises(CatalogError):
                db.execute("SELECT nope FROM img")

    def test_compiled_lane_engaged(self, monkeypatch):
        from repro import obs

        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        kernels.clear_caches()
        db = seeded_db()
        before = obs.snapshot()["counters"].get("sciql.select.compiled", 0)
        db.execute("SELECT x, v FROM img WHERE v > 0")
        after = obs.snapshot()["counters"].get("sciql.select.compiled", 0)
        assert after == before + 1


# ---------------------------------------------------------------------------
# Scalar-function lanes
# ---------------------------------------------------------------------------


class TestScalarFunctionLanes:
    """Per-row error semantics of the compiled scalar-function lanes.

    The registry implementations define the contract: ``sqrt`` of a
    negative is a silent NaN, ``power(0, negative)`` raises
    ``ExecutionError``, ``power`` overflow propagates a *raw*
    ``OverflowError``, and a negative base with a fractional exponent
    yields python's complex result.  The compiled path must reproduce
    each outcome exactly.
    """

    def _db_with_values(self, values):
        db = Database()
        hi = len(values)
        db.execute(
            f"CREATE ARRAY t (x INT DIMENSION [0:{hi}], "
            "v DOUBLE DEFAULT 0.0)"
        )
        arr = db.array("t")
        arr._values["v"][:] = np.asarray(values, dtype=np.float64)
        return db

    def _both_modes(self, monkeypatch, values, sql):
        outcomes = []
        for on in (True, False):
            kernels.clear_caches()
            if on:
                monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
            else:
                monkeypatch.setenv(kernels.KERNELS_ENV, "0")
            db = self._db_with_values(values)
            try:
                result = db.execute(sql)
                outcomes.append(("ok", [repr(r) for r in result.rows()]))
            except Exception as exc:  # noqa: BLE001 - parity on any error
                outcomes.append((type(exc).__name__, str(exc)))
        return outcomes

    def test_sqrt_negative_is_silent_nan_both_modes(self, monkeypatch):
        on, off = self._both_modes(
            monkeypatch, [-1.0, 4.0, -9.0], "SELECT sqrt(v) AS r FROM t"
        )
        assert on == off
        assert on[0] == "ok" and "nan" in on[1][0]

    def test_power_zero_negative_raises_execution_error(self, monkeypatch):
        on, off = self._both_modes(
            monkeypatch, [2.0, 0.0, 3.0], "SELECT power(v, -1) AS r FROM t"
        )
        assert on == off
        assert on[0] == "ExecutionError"

    def test_power_overflow_raises_raw_overflowerror(self, monkeypatch):
        on, off = self._both_modes(
            monkeypatch, [1e200, 2.0], "SELECT power(v, 3) AS r FROM t"
        )
        assert on == off
        assert on[0] == "OverflowError"

    def test_power_negative_base_fractional_exponent(self, monkeypatch):
        on, off = self._both_modes(
            monkeypatch, [-2.0, 4.0], "SELECT power(v, 0.5) AS r FROM t"
        )
        assert on == off

    def test_power_bit_identical_on_random_doubles(self, monkeypatch):
        # Regression: np.power's SIMD lane differs from python's
        # ``float ** float`` in the last ulp on a few percent of
        # ordinary inputs, so the compiled lane must stay on the exact
        # per-row loop.  A vectorised replacement that is not
        # bit-identical fails here.
        rng = np.random.default_rng(42)
        values = rng.uniform(0.5, 9.0, 512)
        for exponent in ("2", "2.5", "3", "-1.0"):
            sql = f"SELECT power(v, {exponent}) AS r FROM t"
            on, off = self._both_modes(monkeypatch, values, sql)
            assert on == off, exponent


# ---------------------------------------------------------------------------
# tile_aggregate plans
# ---------------------------------------------------------------------------


class TestTileAggregatePlans:
    def _tile(self, monkeypatch, kernels_on, extents, tile, func):
        if kernels_on:
            monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        else:
            monkeypatch.setenv(kernels.KERNELS_ENV, "0")
        db = Database()
        db.execute(
            f"CREATE ARRAY a (x INT DIMENSION [0:{extents[0]}], "
            f"y INT DIMENSION [0:{extents[1]}], v DOUBLE DEFAULT 0.0)"
        )
        arr = db.array("a")
        rng = np.random.default_rng(extents[0] * 100 + extents[1])
        arr._values["v"][:] = rng.normal(0, 5, extents)
        out = arr.tile_aggregate(tile=list(tile), func=func, attr="v")
        return out.attribute(out.attributes[0][0]).copy()

    @pytest.mark.parametrize("func", ["mean", "sum", "min", "max"])
    def test_compiled_matches_interpreted(self, monkeypatch, func):
        kernels.clear_caches()
        want = self._tile(monkeypatch, False, (12, 9), (3, 3), func)
        got = self._tile(monkeypatch, True, (12, 9), (3, 3), func)
        assert np.array_equal(got, want, equal_nan=True)

    def test_same_signature_different_shape_no_stale_plan(self, monkeypatch):
        # Regression: array_signature carries no dimension extents, so
        # two same-named arrays of different shapes must not share a
        # tile plan (the trimmed shape is baked into the closure).
        kernels.clear_caches()
        a = self._tile(monkeypatch, True, (8, 6), (2, 3), "mean")
        b = self._tile(monkeypatch, True, (4, 6), (2, 3), "mean")
        assert a.shape == (4, 2)
        assert b.shape == (2, 2)

    def test_plan_cache_hit_on_repeat(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        kernels.clear_caches()
        db = Database()
        db.execute(
            "CREATE ARRAY a (x INT DIMENSION [0:6], "
            "y INT DIMENSION [0:6], v DOUBLE DEFAULT 1.0)"
        )
        arr = db.array("a")
        arr.tile_aggregate(tile=[2, 2], func="sum", attr="v")
        hits = kernels.sql_kernel_cache.hits
        arr.tile_aggregate(tile=[2, 2], func="sum", attr="v")
        assert kernels.sql_kernel_cache.hits > hits
