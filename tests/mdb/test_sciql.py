"""SciQL array tests: DDL, relational view, array-native operators."""

import numpy as np
import pytest

from repro.mdb import Database, DOUBLE, INT
from repro.mdb.errors import CatalogError, ExecutionError, SQLTypeError
from repro.mdb.sciql import Dimension, SciArray


@pytest.fixture
def db():
    d = Database()
    d.execute(
        "CREATE ARRAY img (x INT DIMENSION [0:4], y INT DIMENSION [0:4], "
        "v DOUBLE DEFAULT 0.0)"
    )
    return d


class TestArrayDDL:
    def test_create_via_sql(self, db):
        assert db.arrays() == ["img"]
        arr = db.array("img")
        assert arr.shape == (4, 4)
        assert arr.column_names == ["x", "y", "v"]

    def test_default_applied(self, db):
        db.execute(
            "CREATE ARRAY ones (x INT DIMENSION [0:2], v DOUBLE DEFAULT 1.5)"
        )
        assert db.scalar("SELECT sum(v) FROM ones") == 3.0

    def test_drop_array(self, db):
        db.execute("DROP ARRAY img")
        assert db.arrays() == []

    def test_array_without_dimension_rejected(self, db):
        from repro.mdb.errors import SQLSyntaxError

        with pytest.raises(SQLSyntaxError):
            db.execute("CREATE ARRAY bad (v DOUBLE)")

    def test_array_without_attribute_rejected(self, db):
        from repro.mdb.errors import SQLSyntaxError

        with pytest.raises(SQLSyntaxError):
            db.execute("CREATE ARRAY bad (x INT DIMENSION [0:4])")

    def test_empty_dimension_rejected(self):
        with pytest.raises(SQLTypeError):
            Dimension("x", 5, 5)

    def test_offset_dimension(self):
        arr = SciArray(
            "a", [Dimension("x", 10, 14)], [("v", DOUBLE)]
        )
        arr.set([12], 7.0)
        assert arr.get([12]) == 7.0
        with pytest.raises(ExecutionError):
            arr.get([9])

    def test_multiple_attributes(self):
        arr = SciArray(
            "multi",
            [Dimension("x", 0, 2)],
            [("a", DOUBLE), ("b", INT)],
            defaults=[0.5, 3],
        )
        assert arr.get([0], "a") == 0.5
        assert arr.get([1], "b") == 3


class TestRelationalView:
    def test_select_cells(self, db):
        rows = db.query(
            "SELECT x, y, v FROM img WHERE x = 0 AND y < 2 ORDER BY y"
        )
        assert rows == [(0, 0, 0.0), (0, 1, 0.0)]

    def test_aggregate_over_array(self, db):
        assert db.scalar("SELECT count(*) FROM img") == 16

    def test_update_via_sql(self, db):
        count = db.execute("UPDATE img SET v = 5.0 WHERE x + y = 3").rowcount
        assert count == 4
        assert db.scalar("SELECT sum(v) FROM img") == 20.0

    def test_update_uses_dimension_expressions(self, db):
        db.execute("UPDATE img SET v = x * 10 + y")
        assert db.scalar("SELECT max(v) FROM img") == 33.0

    def test_update_self_referential(self, db):
        db.execute("UPDATE img SET v = 2.0")
        db.execute("UPDATE img SET v = v * 3 WHERE x = 1")
        assert db.scalar("SELECT sum(v) FROM img WHERE x = 1") == 24.0

    def test_group_by_dimension(self, db):
        db.execute("UPDATE img SET v = 1.0")
        rows = db.query(
            "SELECT x, sum(v) FROM img GROUP BY x ORDER BY x"
        )
        assert rows == [(0, 4.0), (1, 4.0), (2, 4.0), (3, 4.0)]

    def test_join_array_with_table(self, db):
        db.execute("CREATE TABLE thresholds (x INT, cut DOUBLE)")
        db.execute("INSERT INTO thresholds VALUES (0, 0.5), (1, 0.5)")
        db.execute("UPDATE img SET v = 1.0 WHERE x < 2")
        rows = db.query(
            "SELECT img.x, count(*) FROM img JOIN thresholds "
            "ON img.x = thresholds.x WHERE img.v > thresholds.cut "
            "GROUP BY img.x ORDER BY img.x"
        )
        assert rows == [(0, 4), (1, 4)]

    def test_select_result_does_not_alias_the_plane(self):
        db = Database()
        db.execute(
            "CREATE ARRAY a (x INT DIMENSION [0:3], v DOUBLE DEFAULT 1.0)"
        )
        result = db.execute(
            "SELECT v, CASE WHEN v > 0 THEN 1 ELSE 0 END AS c FROM a"
        )
        db.array("a").fill(7.0, attr="v")
        assert result.column("v") == [1.0, 1.0, 1.0]
        assert result.column("c") == [1, 1, 1]

    def test_update_set_evaluates_only_where_survivors(self, db):
        # power(0, -1) raises, but only on the cells WHERE rejects: as in
        # a table UPDATE, SET sees only the cells that passed WHERE.
        db.execute("UPDATE img SET v = x")
        count = db.execute(
            "UPDATE img SET v = CASE WHEN y = 0 THEN power(v, -1) "
            "ELSE CAST(v AS INT) END WHERE v <> 0"
        ).rowcount
        assert count == 12
        assert db.query("SELECT v FROM img WHERE y = 0 ORDER BY x") == [
            (0.0,), (1.0,), (0.5,), (1.0 / 3.0,)
        ]
        assert db.scalar("SELECT sum(v) FROM img WHERE y > 0") == 18.0


class TestArrayOperators:
    def make(self, n=8):
        arr = SciArray(
            "a",
            [Dimension("x", 0, n), Dimension("y", 0, n)],
            [("v", DOUBLE)],
        )
        grid = np.arange(n * n, dtype=float).reshape(n, n)
        arr.set_attribute("v", grid)
        return arr

    def test_attribute_roundtrip(self):
        arr = self.make()
        assert arr.attribute("v")[2, 3] == 19.0

    def test_set_attribute_shape_checked(self):
        arr = self.make()
        with pytest.raises(ExecutionError):
            arr.set_attribute("v", np.zeros((3, 3)))

    def test_slice_preserves_coordinates(self):
        arr = self.make()
        window = arr.slice(x=(2, 5), y=(4, 8))
        assert window.shape == (3, 4)
        assert window.get([2, 4]) == arr.get([2, 4])
        assert window.dimension("x").start == 2

    def test_slice_clamps_to_bounds(self):
        arr = self.make(4)
        window = arr.slice(x=(2, 100))
        assert window.shape == (2, 4)

    def test_slice_unknown_dimension(self):
        arr = self.make(4)
        with pytest.raises(CatalogError):
            arr.slice(z=(0, 1))

    def test_slice_empty_rejected(self):
        arr = self.make(4)
        with pytest.raises(ExecutionError):
            arr.slice(x=(3, 3))

    def test_map(self):
        arr = self.make(2)
        arr.map(lambda v: v * 10)
        assert arr.get([1, 1]) == 30.0

    def test_map_shape_guard(self):
        arr = self.make(2)
        with pytest.raises(ExecutionError):
            arr.map(lambda v: v[:1])

    def test_fill(self):
        arr = self.make(2)
        arr.fill(7.5)
        assert np.all(arr.attribute("v") == 7.5)

    def test_tile_aggregate_mean(self):
        arr = self.make(4)
        coarse = arr.tile_aggregate([2, 2], "mean")
        assert coarse.shape == (2, 2)
        # Top-left tile of values [[0,1],[4,5]] -> mean 2.5
        assert coarse.get([0, 0]) == 2.5

    def test_tile_aggregate_truncates_edges(self):
        arr = self.make(5)
        coarse = arr.tile_aggregate([2, 2], "sum")
        assert coarse.shape == (2, 2)

    def test_tile_aggregate_funcs(self):
        arr = self.make(4)
        assert arr.tile_aggregate([2, 2], "max").get([0, 0]) == 5.0
        assert arr.tile_aggregate([2, 2], "min").get([0, 0]) == 0.0
        assert arr.tile_aggregate([2, 2], "sum").get([0, 0]) == 10.0

    def test_tile_aggregate_bad_func(self):
        arr = self.make(4)
        with pytest.raises(ExecutionError):
            arr.tile_aggregate([2, 2], "mode")

    def test_tile_larger_than_array(self):
        arr = self.make(2)
        with pytest.raises(ExecutionError):
            arr.tile_aggregate([4, 4])

    def test_count_where(self):
        arr = self.make(4)
        assert arr.count_where(lambda v: v > 10) == 5

    def test_copy_independent(self):
        arr = self.make(2)
        clone = arr.copy("b")
        arr.fill(0.0)
        assert clone.get([1, 1]) == 3.0

    def test_cell_count(self):
        assert self.make(8).cell_count == 64
