"""Table and catalog tests."""

import numpy as np
import pytest

from repro.mdb import Catalog, Column, INT, STRING, DOUBLE, Table
from repro.mdb.errors import CatalogError, ExecutionError


def make_table():
    t = Table(
        "products",
        [Column("id", INT), Column("name", STRING), Column("cloud", DOUBLE)],
    )
    t.insert_rows(
        [
            (1, "a", 0.5),
            (2, "b", None),
            (3, "c", 0.9),
        ]
    )
    return t


class TestTable:
    def test_schema(self):
        t = make_table()
        assert t.column_names == ["id", "name", "cloud"]
        assert t.column_type("name") == STRING

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("x", INT), Column("X", INT)])

    def test_empty_schema_rejected(self):
        with pytest.raises(CatalogError):
            Table("t", [])

    def test_insert_and_row_access(self):
        t = make_table()
        assert len(t) == 3
        assert t.row(1) == (2, "b", None)

    def test_insert_wrong_width(self):
        t = make_table()
        with pytest.raises(ExecutionError):
            t.insert_rows([(4, "x", 0.1), (5, "x")])
        assert len(t) == 3

    def test_insert_columns_needs_every_column(self):
        t = make_table()
        with pytest.raises(CatalogError):
            t.insert_columns({"id": [4], "name": [None]})
        assert len(t) == 3

    def test_insert_columns_unknown_column(self):
        t = make_table()
        with pytest.raises(CatalogError):
            t.insert_columns(
                {"id": [4], "name": [None], "cloud": [None], "bogus": [1]}
            )
        assert len(t) == 3

    def test_delete_positions(self):
        t = make_table()
        assert t.delete_positions(np.array([1])) == 1
        assert len(t) == 2
        assert [r[0] for r in t.rows()] == [1, 3]

    def test_delete_nothing(self):
        t = make_table()
        assert t.delete_positions(np.array([], dtype=int)) == 0

    def test_update_positions(self):
        t = make_table()
        t.update_positions(np.array([0, 2]), {"cloud": [0.1, None]})
        assert t.row(0)[2] == 0.1
        assert t.row(2)[2] is None

    def test_truncate(self):
        t = make_table()
        t.truncate()
        assert len(t) == 0

    def test_scan(self):
        t = make_table()
        vectors = t.scan(["id"])
        assert list(vectors["id"]) == [1, 2, 3]

    def test_unknown_column(self):
        t = make_table()
        with pytest.raises(CatalogError):
            t.column("nope")


class TestCatalog:
    def test_add_and_get_table(self):
        cat = Catalog()
        t = make_table()
        cat.add_table(t)
        assert cat.table("PRODUCTS") is t
        assert cat.has_table("products")
        assert cat.table_names() == ["products"]

    def test_duplicate_table_rejected(self):
        cat = Catalog()
        cat.add_table(make_table())
        with pytest.raises(CatalogError):
            cat.add_table(make_table())

    def test_drop_table(self):
        cat = Catalog()
        cat.add_table(make_table())
        assert cat.drop_table("products")
        assert not cat.has_table("products")

    def test_drop_missing(self):
        cat = Catalog()
        with pytest.raises(CatalogError):
            cat.drop_table("nope")
        assert cat.drop_table("nope", if_exists=True) is False

    def test_array_table_name_collision(self):
        from repro.mdb.sciql import Dimension, SciArray

        cat = Catalog()
        cat.add_table(make_table())
        arr = SciArray(
            "products", [Dimension("x", 0, 2)], [("v", DOUBLE)]
        )
        with pytest.raises(CatalogError):
            cat.add_array(arr)

    def test_relation_lookup(self):
        from repro.mdb.sciql import Dimension, SciArray

        cat = Catalog()
        cat.add_table(make_table())
        arr = SciArray("img", [Dimension("x", 0, 2)], [("v", DOUBLE)])
        cat.add_array(arr)
        assert cat.relation("products").name == "products"
        assert cat.relation("img") is arr
        assert cat.has_relation("img")
        with pytest.raises(CatalogError):
            cat.relation("missing")
