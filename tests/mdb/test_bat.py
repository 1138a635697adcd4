"""BAT column tests."""

import numpy as np
import pytest

from repro.mdb import BAT, DOUBLE, INT, STRING, BOOL, TIMESTAMP
from repro.mdb.errors import ExecutionError, SQLTypeError
from repro.mdb.types import infer_type, type_by_name


class TestAppendGet:
    def test_append_and_get(self):
        bat = BAT(INT, [1, 2, 3])
        assert len(bat) == 3
        assert bat.get(1) == 2

    def test_null_handling(self):
        bat = BAT(INT, [1, None, 3])
        assert bat.get(1) is None
        assert list(bat.validity) == [True, False, True]

    def test_type_coercion(self):
        bat = BAT(INT, ["5", 6.0])
        assert bat.to_list() == [5, 6]

    def test_coercion_failure(self):
        with pytest.raises(SQLTypeError, match="not-a-number"):
            BAT(INT, [1, "not-a-number"])

    def test_string_column(self):
        bat = BAT(STRING, ["a", None, "c"])
        assert bat.to_list() == ["a", None, "c"]

    def test_bool_column_from_strings(self):
        bat = BAT(BOOL, ["true", "0", True])
        assert bat.to_list() == [True, False, True]

    def test_growth_beyond_initial_capacity(self):
        bat = BAT(INT, range(1000))
        assert len(bat) == 1000
        assert bat.get(999) == 999

    def test_get_returns_python_types(self):
        bat = BAT(DOUBLE, [1.5])
        value = bat.get(0)
        assert isinstance(value, float) and not isinstance(value, np.floating)

    def test_out_of_range(self):
        bat = BAT(INT, [1])
        with pytest.raises(ExecutionError):
            bat.get(5)
        with pytest.raises(ExecutionError):
            bat.get(-1)


def assign(bat, position, value):
    """Overwrite one row the way ``Table.update_positions`` does."""
    bat.assign(np.array([position]), *bat.ctype.coerce_column([value]))


class TestMutation:
    def test_set(self):
        bat = BAT(INT, [1, 2, 3])
        assign(bat, 1, 99)
        assert bat.get(1) == 99

    def test_set_null(self):
        bat = BAT(INT, [1, 2])
        assign(bat, 0, None)
        assert bat.get(0) is None

    def test_set_over_null(self):
        bat = BAT(INT, [None])
        assign(bat, 0, 7)
        assert bat.get(0) == 7

    def test_assign_out_of_range(self):
        bat = BAT(INT, [1, 2])
        with pytest.raises(ExecutionError):
            assign(bat, 2, 7)
        assert bat.to_list() == [1, 2]


class TestBulk:
    def test_take(self):
        bat = BAT(INT, [10, 20, 30, 40])
        out = bat.take(np.array([3, 1]))
        assert out.to_list() == [40, 20]
        assert len(bat) == 4  # source unchanged

    def test_take_preserves_nulls(self):
        bat = BAT(INT, [1, None, 3])
        out = bat.take(np.array([1, 2]))
        assert out.to_list() == [None, 3]

    def test_values_view(self):
        bat = BAT(INT, [1, 2, 3])
        assert list(bat.values) == [1, 2, 3]

    def test_select_mask(self):
        bat = BAT(INT, [5, 10, 15])
        positions = bat.select_mask(bat.values > 7)
        assert list(positions) == [1, 2]

    def test_copy_independent(self):
        bat = BAT(INT, [1, 2])
        clone = bat.copy()
        assign(bat, 0, 99)
        assert clone.get(0) == 1

    def test_iteration(self):
        bat = BAT(STRING, ["x", None])
        assert list(bat) == ["x", None]


class TestTypes:
    def test_type_by_name_aliases(self):
        assert type_by_name("integer") == INT
        assert type_by_name("VARCHAR(50)") == STRING
        assert type_by_name("float") == DOUBLE
        assert type_by_name("boolean") == BOOL

    def test_unknown_type(self):
        with pytest.raises(SQLTypeError):
            type_by_name("blob")

    def test_infer_type(self):
        from datetime import datetime

        assert infer_type(5) == INT
        assert infer_type(5.0) == DOUBLE
        assert infer_type(True) == BOOL
        assert infer_type("x") == STRING
        assert infer_type(datetime.now()) == TIMESTAMP
        assert infer_type(None) is None

    def test_timestamp_coercion(self):
        from datetime import datetime

        bat = BAT(TIMESTAMP, ["2007-08-25T12:30:00"])
        assert bat.get(0) == datetime(2007, 8, 25, 12, 30)
