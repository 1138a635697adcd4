"""The typed write path: one coercion, staged before any BAT changes.

``ColumnType.coerce_column`` is the only place a Python value becomes a
typed cell; ``Table.insert_columns`` and ``Table.update_positions`` stage
every column through it before touching a BAT, and the journal records
the coerced values.  The property below pins ``coerce_column`` to the
per-cell ``coerce`` reference; the rest are regressions for writes that
used to leave a table ragged, half updated, or different after a reopen.
"""

import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mdb import Database
from repro.mdb.errors import SQLTypeError
from repro.mdb.storage import open_database
from repro.mdb.types import BOOL, DOUBLE, INT, STRING, TIMESTAMP

TYPES = (INT, DOUBLE, STRING, BOOL, TIMESTAMP)

HOSTILE = ("", "\x00", "a\x00", "\ud800x", "Πελοπόννησος 火", 'q"uo\\te')

OFFSETS = st.sampled_from(
    [None, timezone.utc, timezone(timedelta(hours=3)),
     timezone(timedelta(hours=-5, minutes=-30))]
)

CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.from_regex(r"\s?-?[0-9]{1,22}(\.[0-9]{0,4})?\s?", fullmatch=True),
    st.sampled_from(
        ["true", " T ", "0", "nan", "inf", "-inf", "1e400", "x"] + list(HOSTILE)
    ),
    st.text(max_size=6),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    st.builds(
        lambda dt, tz: dt.replace(tzinfo=tz),
        st.datetimes(min_value=datetime(1900, 1, 1)),
        OFFSETS,
    ),
    st.builds(
        lambda dt, tz: dt.replace(tzinfo=tz).isoformat(),
        st.datetimes(min_value=datetime(1900, 1, 1)),
        OFFSETS,
    ),
    st.just({"t": "2007-08-25T12:00:00"}),
)

ARRAYS = hnp.arrays(
    dtype=st.sampled_from(
        [np.int8, np.int64, np.uint64, np.float16, np.float32, np.float64,
         np.bool_, np.str_]
    ),
    shape=st.integers(min_value=0, max_value=12),
)

COLUMNS = st.one_of(
    st.lists(CELLS, max_size=12),
    st.lists(st.sampled_from(["a", "b", None]), max_size=12),
    st.lists(st.one_of(st.none(), st.integers(-5, 5)), max_size=12),
    st.lists(st.one_of(st.none(), st.floats()), max_size=12),
    ARRAYS,
)


def per_cell(ctype, values):
    """The reference: ``coerce`` once per cell, in order."""
    n = len(values)
    data = ctype.empty_array(n)
    valid = np.zeros(n, dtype=bool)
    filler = None if ctype.dtype == np.dtype(object) else 0
    for i, raw in enumerate(values):
        value = ctype.coerce(raw)
        valid[i] = value is not None
        data[i] = filler if value is None else value
    return data, valid


def outcome(fn, ctype, values):
    """What a coercion gives, comparable by ``==``: exact cells (type and
    repr, so -0.0, NaN payload-free floats and UTC offsets count), the
    mask, or the exception's type and message."""
    try:
        data, valid = fn(ctype, values)
    except SQLTypeError as exc:
        return ("error", type(exc).__name__, str(exc))
    assert data.dtype == ctype.dtype and valid.dtype == bool
    cells = [(type(v).__name__, repr(v)) for v in data.tolist()]
    return ("ok", cells, valid.tolist())


class TestCoerceColumnProperty:
    @settings(max_examples=600, deadline=None)
    @given(ctype=st.sampled_from(TYPES), values=COLUMNS)
    @example(ctype=DOUBLE, values=[None, -0.0])
    @example(ctype=INT, values=[None, 2**63])
    def test_equals_per_cell_coerce(self, ctype, values):
        expected = outcome(per_cell, ctype, values)
        got = outcome(lambda c, v: c.coerce_column(v), ctype, values)
        assert got == expected

    @pytest.mark.parametrize("ctype", TYPES)
    def test_result_does_not_alias_the_input(self, ctype):
        values, _ = per_cell(ctype, [None, None, None])
        data, _ = ctype.coerce_column(values)
        assert data is not values and not np.shares_memory(data, values)


class TestOutOfRange:
    @pytest.mark.parametrize(
        "ctype, value",
        [(INT, 2**63), (INT, -(2**63) - 1), (INT, float("inf")),
         (INT, np.uint64(2**64 - 1)), (DOUBLE, 10**400)],
        ids=["int64-max+1", "int64-min-1", "inf", "uint64-max", "10**400"],
    )
    def test_coerce_names_the_value(self, ctype, value):
        message = re.escape(f"cannot convert {value!r} to {ctype.name}")
        with pytest.raises(SQLTypeError, match=message):
            ctype.coerce(value)
        with pytest.raises(SQLTypeError, match=message):
            ctype.coerce_column([1, value])

    @pytest.fixture
    def db(self):
        db = Database()
        db.execute("CREATE TABLE t (i INT, d DOUBLE)")
        db.execute("INSERT INTO t VALUES (1, 0.5)")
        return db

    def test_insert_rows(self, db):
        with pytest.raises(SQLTypeError, match=str(2**63)):
            db.insert_rows("t", [(2, 1.5), (2**63, 2.5)])
        assert db.query("SELECT * FROM t") == [(1, 0.5)]

    def test_insert_columns(self, db):
        with pytest.raises(SQLTypeError, match="inf"):
            db.insert_columns("t", {"i": [2, float("inf")], "d": [1.0, 2.0]})
        assert db.query("SELECT * FROM t") == [(1, 0.5)]

    def test_sql_insert(self, db):
        with pytest.raises(SQLTypeError, match="99999999999999999999"):
            db.execute("INSERT INTO t VALUES (99999999999999999999, 1.0)")
        assert db.query("SELECT * FROM t") == [(1, 0.5)]


class TestStagedWrites:
    def test_bad_cell_in_a_later_column_leaves_the_table_whole(self):
        db = Database()
        db.execute("CREATE TABLE t (i INT, d DOUBLE)")
        db.execute("INSERT INTO t VALUES (1, 0.5), (2, 1.5)")
        with pytest.raises(SQLTypeError, match="'z'"):
            db.execute("INSERT INTO t VALUES (5, 'z')")
        table = db.table("t")
        assert len(table.column("i")) == len(table.column("d")) == 2
        assert db.query("SELECT * FROM t") == [(1, 0.5), (2, 1.5)]

    def test_failing_assignment_applies_no_assignment(self):
        db = Database()
        db.execute("CREATE TABLE t (i INT, s STRING)")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'a')")
        with pytest.raises(SQLTypeError, match="'a'"):
            db.execute("UPDATE t SET s = 'b', i = s")
        assert db.query("SELECT * FROM t") == [(1, "a"), (2, "a")]

    def test_update_coerces_like_insert(self):
        db = Database()
        db.execute("CREATE TABLE t (i INT, s STRING)")
        db.execute("INSERT INTO t VALUES (1, 'a')")
        db.execute("UPDATE t SET s = i * 1.5, i = '7'")
        assert db.query("SELECT * FROM t") == [(7, "1.5")]


def exact(rows):
    return [tuple((type(v).__name__, repr(v)) for v in row) for row in rows]


class TestJournalRecordsCoercedValues:
    """What a reopen replays is what memory held, cell for cell."""

    def reopened_rows(self, data_dir, eng):
        before = exact(eng.db.query("SELECT * FROM t"))
        eng.close()
        eng = open_database(data_dir)
        after = exact(eng.db.query("SELECT * FROM t"))
        eng.close()
        return before, after

    def test_small_insert_rows_batch(self, tmp_path):
        data_dir = str(tmp_path / "data")
        eng = open_database(data_dir)
        eng.db.execute("CREATE TABLE t (s STRING, n INT, at TIMESTAMP)")
        eng.db.insert_rows(
            "t",
            [
                (np.float32(0.1), np.int64(3), "2007-08-25T12:00:00+03:00"),
                ({"t": "2007-08-25T12:00:00"}, True, None),
                (7, 2.9, datetime(2007, 8, 25)),
            ],
        )
        before, after = self.reopened_rows(data_dir, eng)
        assert after == before
        assert before[0][0] == ("str", "'0.1'")
        assert before[1][0] == ("str", repr(str({"t": "2007-08-25T12:00:00"})))

    def test_update_positions(self, tmp_path):
        data_dir = str(tmp_path / "data")
        eng = open_database(data_dir)
        eng.db.execute("CREATE TABLE t (s STRING, n INT, at TIMESTAMP)")
        eng.db.insert_rows("t", [("a", 1, None), ("b", 2, None)])
        eng.db.table("t").update_positions(
            np.array([0, 1]),
            {
                "s": [np.float32(0.1), {"t": "2007-08-25T12:00:00"}],
                "n": [np.int64(5), True],
                "at": ["2007-08-25T12:00:00-05:30", None],
            },
        )
        before, after = self.reopened_rows(data_dir, eng)
        assert after == before
        assert [row[0] for row in before][0] == ("str", "'0.1'")

    def test_rejected_insert_journals_nothing(self, tmp_path):
        data_dir = str(tmp_path / "data")
        eng = open_database(data_dir)
        eng.db.execute("CREATE TABLE t (i INT, d DOUBLE, s STRING)")
        eng.db.insert_rows("t", [(1, 0.5, "a")])
        records = eng.wal_records
        with pytest.raises(SQLTypeError, match="'oops'"):
            eng.db.insert_rows(
                "t", [(2, 1.5, "b"), (3, 2.5, "c"), (4, "oops", "d")]
            )
        with pytest.raises(SQLTypeError):
            eng.db.execute("UPDATE t SET s = 'x', d = 'oops'")
        assert eng.wal_records == records
        before, after = self.reopened_rows(data_dir, eng)
        assert before == after == exact([(1, 0.5, "a")])
