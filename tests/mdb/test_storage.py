"""Durable storage engine tests: WAL framing, recovery, crash exactness."""

import io
import json
import os
import tempfile
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.mdb import Database
from repro.mdb.bat import BAT
from repro.mdb.sciql import Dimension, SciArray
from repro.mdb.storage import (
    StorageEngine,
    StorageError,
    WriteAheadLog,
    open_database,
    resolve_sync_policy,
)
from repro.mdb.storage.records import (
    decode_object_column,
    encode_object_column,
    iter_records,
    pack_record,
)
from repro.mdb.types import INT, STRING, TIMESTAMP, ColumnType


class TestRecordFraming:
    def test_roundtrip(self):
        frames = [
            pack_record({"op": "a", "n": 1}),
            pack_record({"op": "b", "v": [1.5, None, "x"]}),
        ]
        handle = io.BytesIO(b"".join(frames))
        records = [r for _, r in iter_records(handle)]
        assert records == [
            {"op": "a", "n": 1},
            {"op": "b", "v": [1.5, None, "x"]},
        ]

    def test_torn_tail_is_dropped(self):
        good = pack_record({"op": "a"})
        torn = pack_record({"op": "b"})[:-3]
        handle = io.BytesIO(good + torn)
        out = list(iter_records(handle))
        assert [r for _, r in out] == [{"op": "a"}]
        assert out[-1][0] == len(good)

    def test_corrupt_crc_stops_iteration(self):
        frame = bytearray(pack_record({"op": "a"}))
        frame[-1] ^= 0xFF
        assert list(iter_records(io.BytesIO(bytes(frame)))) == []

    def test_garbage_header_stops_iteration(self):
        assert list(iter_records(io.BytesIO(b"\xff" * 64))) == []


class TestWAL:
    def test_append_and_replay(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.open_for_append()
        wal.append({"op": "x", "i": 1})
        wal.append({"op": "x", "i": 2})
        wal.close()
        assert [r["i"] for r in wal.records()] == [1, 2]

    def test_open_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.open_for_append()
        wal.append({"op": "x"})
        wal.close()
        with open(path, "ab") as f:
            f.write(b"partial-frame-garbage")
        wal2 = WriteAheadLog(path)
        valid = wal2.open_for_append()
        assert os.path.getsize(path) == valid
        wal2.append({"op": "y"})
        wal2.close()
        assert [r["op"] for r in wal2.records()] == ["x", "y"]

    def test_append_on_closed_wal_raises(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        with pytest.raises(StorageError):
            wal.append({"op": "x"})

    def test_bad_sync_policy_rejected(self):
        with pytest.raises(StorageError):
            resolve_sync_policy("sometimes")

    def test_sync_policy_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WAL_SYNC", "batch")
        assert resolve_sync_policy() == "batch"
        assert resolve_sync_policy("off") == "off"


class TestBATAdoption:
    def test_adopt_readonly_is_frozen_until_set(self):
        data = np.arange(4, dtype=np.int64)
        valid = np.ones(4, dtype=bool)
        data.flags.writeable = False
        valid.flags.writeable = False
        bat = BAT.adopt(INT, data, valid)
        assert bat.frozen
        assert bat.to_list() == [0, 1, 2, 3]
        bat.assign(np.array([1]), np.array([99]), np.array([True]))
        assert not bat.frozen
        assert bat.to_list() == [0, 99, 2, 3]
        # The borrowed buffer is untouched.
        assert data[1] == 1

    def test_append_after_adopt_copies(self):
        data = np.arange(2, dtype=np.int64)
        data.flags.writeable = False
        bat = BAT.adopt(INT, data, np.ones(2, dtype=bool))
        bat.extend_arrays(np.array([7]), np.array([True]))
        assert bat.to_list() == [0, 1, 7]
        assert data.tolist() == [0, 1]

    def test_extend_arrays_bulk(self):
        bat = BAT(INT)
        bat.extend_arrays(
            np.arange(5, dtype=np.int64),
            np.array([True, True, False, True, True]),
        )
        assert bat.to_list() == [0, 1, None, 3, 4]


@pytest.fixture
def data_dir(tmp_path):
    return str(tmp_path / "data")


def reopen(data_dir):
    return open_database(data_dir)


def open_segmented(data_dir):
    """An engine that journals every insert, however small, as a
    segment."""
    return StorageEngine(data_dir, segment_threshold=1).open()


class TestEngineRecovery:
    def test_fresh_open_is_empty(self, data_dir):
        eng = open_database(data_dir)
        assert eng.db.tables() == []
        assert eng.snap_id == 0
        eng.close()

    def test_requires_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_DATA_DIR", raising=False)
        with pytest.raises(StorageError):
            StorageEngine()

    def test_mutations_survive_reopen(self, data_dir):
        eng = open_database(data_dir)
        db = eng.db
        db.execute(
            "CREATE TABLE t (id INT, name STRING, w DOUBLE, "
            "at TIMESTAMP, ok BOOL)"
        )
        db.insert_rows(
            "t",
            [
                (1, "a", 0.5, datetime(2007, 8, 25, 12), True),
                (2, None, None, None, False),
            ],
        )
        db.execute("UPDATE t SET w = 9.5 WHERE id = 1")
        db.execute("DELETE FROM t WHERE id = 2")
        before = db.query("SELECT * FROM t ORDER BY id")
        eng.close()
        eng2 = reopen(data_dir)
        assert eng2.db.query("SELECT * FROM t ORDER BY id") == before
        eng2.close()

    def test_ddl_survives_reopen(self, data_dir):
        eng = open_database(data_dir)
        eng.db.execute("CREATE TABLE a (x INT)")
        eng.db.execute("CREATE TABLE b (y INT)")
        eng.db.execute("DROP TABLE a")
        eng.close()
        eng2 = reopen(data_dir)
        assert eng2.db.tables() == ["b"]
        eng2.close()

    def test_arrays_survive_reopen(self, data_dir):
        eng = open_database(data_dir)
        eng.db.execute(
            "CREATE ARRAY img (x INT DIMENSION [0:8], "
            "y INT DIMENSION [0:8], v DOUBLE DEFAULT 0.0)"
        )
        eng.db.execute("UPDATE img SET v = x * 10 + y WHERE x > 2")
        plane = eng.db.array("img").attribute("v").copy()
        eng.close()
        eng2 = reopen(data_dir)
        assert np.array_equal(eng2.db.array("img").attribute("v"), plane)
        eng2.close()

    def test_bulk_insert_uses_segment(self, data_dir):
        eng = open_database(data_dir)
        eng.db.execute("CREATE TABLE s (id INT, name STRING)")
        eng.db.insert_columns(
            "s",
            {
                "id": list(range(600)),
                "name": [f"n{i}" for i in range(600)],
            },
        )
        # DDL + one segment record, not 600 row records.
        assert eng.wal_records == 2
        assert len(os.listdir(os.path.join(data_dir, "segments"))) == 1
        eng.close()
        eng2 = reopen(data_dir)
        assert eng2.db.scalar("SELECT count(*) FROM s") == 600
        assert eng2.db.query("SELECT name FROM s WHERE id = 599") == [
            ("n599",)
        ]
        eng2.close()

    def test_meta_roundtrip(self, data_dir):
        eng = open_database(data_dir)
        eng.set_meta("generation", 3)
        eng.close()
        eng2 = reopen(data_dir)
        assert eng2.get_meta("generation") == 3
        assert eng2.get_meta("absent", 42) == 42
        eng2.close()

    def test_closed_engine_rejects_writes(self, data_dir):
        eng = open_database(data_dir)
        eng.db.execute("CREATE TABLE t (x INT)")
        eng.close()
        with pytest.raises(StorageError):
            eng.db.execute("INSERT INTO t VALUES (1)")


class TestCheckpoint:
    def test_checkpoint_then_recover(self, data_dir):
        eng = open_database(data_dir)
        eng.db.execute("CREATE TABLE t (x INT, s STRING)")
        eng.db.insert_rows("t", [(i, f"v{i}") for i in range(10)])
        eng.checkpoint()
        assert eng.snap_id == 1
        eng.db.execute("INSERT INTO t VALUES (99, 'post')")
        eng.close()
        eng2 = reopen(data_dir)
        assert eng2.snap_id == 1
        assert eng2.replayed_records == 1  # only the post-snapshot insert
        assert eng2.db.scalar("SELECT count(*) FROM t") == 11
        eng2.close()

    def test_checkpoint_prunes_old_files(self, data_dir):
        eng = open_database(data_dir)
        eng.db.execute("CREATE TABLE t (x INT)")
        eng.checkpoint()
        names = set(os.listdir(data_dir))
        assert "snap-000001" in names
        assert "wal-000001.log" in names
        assert "snap-000000" not in names
        assert "wal-000000.log" not in names
        eng.close()

    def test_snapshot_columns_memmapped_and_cow(self, data_dir):
        eng = open_database(data_dir)
        eng.db.execute("CREATE TABLE t (x INT)")
        eng.db.insert_rows("t", [(i,) for i in range(5)])
        eng.checkpoint()
        eng.close()
        eng2 = reopen(data_dir)
        bat = eng2.db.table("t").column("x")
        assert bat.frozen  # serving straight from the snapshot memmap
        eng2.db.execute("UPDATE t SET x = 100 WHERE x = 0")
        assert not eng2.db.table("t").column("x").frozen
        eng2.close()
        eng3 = reopen(data_dir)
        assert eng3.db.scalar("SELECT max(x) FROM t") == 100
        eng3.close()


class TestCrashExactness:
    def test_crash_before_wal_write_loses_unacknowledged_row(
        self, data_dir
    ):
        eng = open_database(data_dir)
        eng.db.execute("CREATE TABLE t (x INT)")
        eng.db.execute("INSERT INTO t VALUES (1)")
        with faults.injected("storage.wal:nth=1,hard"):
            with pytest.raises(faults.PermanentFault):
                eng.db.execute("INSERT INTO t VALUES (2)")
        eng.close()
        eng2 = reopen(data_dir)
        # The crashed insert was never acknowledged; recovery must not
        # resurrect it, and must keep everything acknowledged before it.
        assert eng2.db.query("SELECT x FROM t") == [(1,)]
        eng2.close()

    def test_crash_during_segment_write(self, data_dir):
        eng = open_database(data_dir)
        eng.db.execute("CREATE TABLE t (x INT)")
        with faults.injected("storage.segment:nth=1,hard"):
            with pytest.raises(faults.PermanentFault):
                eng.db.insert_columns("t", {"x": list(range(500))})
        eng.close()
        eng2 = reopen(data_dir)
        assert eng2.db.scalar("SELECT count(*) FROM t") == 0
        eng2.db.insert_columns("t", {"x": [7]})
        eng2.close()
        eng3 = reopen(data_dir)
        assert eng3.db.query("SELECT x FROM t") == [(7,)]
        eng3.close()

    def test_crash_during_checkpoint_keeps_previous_state(self, data_dir):
        eng = open_database(data_dir)
        eng.db.execute("CREATE TABLE t (x INT)")
        eng.db.insert_rows("t", [(i,) for i in range(20)])
        with faults.injected("storage.snapshot:nth=1,hard"):
            with pytest.raises(faults.PermanentFault):
                eng.checkpoint()
        assert eng.snap_id == 0  # checkpoint aborted, old state live
        eng.close()
        eng2 = reopen(data_dir)
        assert eng2.db.scalar("SELECT count(*) FROM t") == 20
        eng2.close()

    def test_transient_chaos_is_absorbed(self, data_dir):
        eng = open_database(data_dir)
        eng.db.execute("CREATE TABLE t (x INT)")
        with faults.injected("storage.*:p=0.2;seed=7"):
            for i in range(20):
                eng.db.execute(f"INSERT INTO t VALUES ({i})")
            eng.checkpoint()
        eng.close()
        eng2 = reopen(data_dir)
        assert eng2.db.scalar("SELECT count(*) FROM t") == 20
        eng2.close()


#: Strings a per-cell or fixed-width encoding gets wrong: empty vs NULL,
#: embedded and trailing NULs, a lone surrogate, non-ASCII, JSON
#: metacharacters.
HOSTILE_STRINGS = [
    "",
    None,
    "a\x00",
    "\x00",
    "\ud800x",
    "Πελοπόννησος 火",
    'q"uo\\te',
    "\\",
]
#: One instant at three UTC offsets, a naive timestamp with microseconds
#: and a NULL: equal instants must keep their own ``utcoffset()``.
INSTANT = datetime(2007, 8, 25, 12, 30, 15, 123456, tzinfo=timezone.utc)
HOSTILE_TIMESTAMPS = [
    INSTANT,
    INSTANT.astimezone(timezone(timedelta(hours=3))),
    INSTANT.astimezone(timezone(timedelta(hours=-5, minutes=-30))),
    datetime(2007, 8, 25, 12, 30, 15, 999999),
    None,
]

strings = st.one_of(
    st.none(), st.sampled_from(HOSTILE_STRINGS), st.text(max_size=8)
)
# ``isoformat()`` has no ``fold`` (neither has the WAL's row encoding),
# so generated timestamps pin it to 0.
naive = st.datetimes().map(lambda dt: dt.replace(fold=0))
aware = st.builds(
    lambda dt, minutes: dt.replace(
        tzinfo=timezone(timedelta(minutes=minutes))
    ),
    naive,
    st.integers(-(23 * 60 + 59), 23 * 60 + 59),
)
timestamps = st.one_of(
    st.none(), st.sampled_from(HOSTILE_TIMESTAMPS), naive, aware
)
rows = st.lists(st.tuples(strings, timestamps), min_size=1, max_size=12)


def exact(values):
    """Values as type + repr: tells "" from None, keeps NULs and
    surrogates visible, and tells equal instants at different offsets
    apart (``==`` does not)."""
    return [(type(v).__name__, repr(v)) for v in values]


def object_plane(values):
    """An object array holding ``values`` as-is (``np.asarray`` would
    make a ``U`` array and strip trailing NULs)."""
    plane = np.empty(len(values), dtype=object)
    plane[:] = values
    return plane


def write_rows(db, data):
    db.execute("CREATE TABLE c (s STRING, t TIMESTAMP)")
    db.insert_columns(
        "c", {"s": [r[0] for r in data], "t": [r[1] for r in data]}
    )


def read_rows(db):
    table = db.table("c")
    return exact(table.column("s").to_list()), exact(
        table.column("t").to_list()
    )


def expected_rows(data):
    return exact([r[0] for r in data]), exact([r[1] for r in data])


class TestObjectColumnCodec:
    def test_codes_index_a_first_appearance_heap(self):
        codes, heap = encode_object_column(
            object_plane(["x", "y", "x", None, ""]),
            [True, True, True, False, True],
            STRING,
        )
        assert codes.dtype == np.int32
        assert codes.tolist() == [0, 1, 0, -1, 2]
        assert heap.dtype == np.uint8
        assert json.loads(heap.tobytes().decode("ascii")) == ["x", "y", ""]

    def test_equal_instants_keep_their_offsets(self):
        values = object_plane(HOSTILE_TIMESTAMPS)
        valid = [v is not None for v in HOSTILE_TIMESTAMPS]
        codes, heap = encode_object_column(values, valid, TIMESTAMP)
        # Three equal instants, three heap entries.
        assert codes.tolist() == [0, 1, 2, 3, -1]
        decoded = decode_object_column(codes, heap, TIMESTAMP)
        assert exact(decoded) == exact(HOSTILE_TIMESTAMPS)
        assert [
            v.utcoffset() for v in decoded[:3]
        ] == [v.utcoffset() for v in HOSTILE_TIMESTAMPS[:3]]

    @settings(max_examples=200, deadline=None)
    @given(data=rows)
    def test_codec_roundtrip(self, data):
        for ctype, column in ((STRING, 0), (TIMESTAMP, 1)):
            values = [r[column] for r in data]
            codes, heap = encode_object_column(
                object_plane(values), [v is not None for v in values], ctype
            )
            decoded = decode_object_column(codes, heap, ctype)
            assert exact(decoded) == exact(values)

    @settings(max_examples=25, deadline=None)
    @given(data=rows)
    def test_roundtrip_through_segment(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            eng = open_segmented(tmp)
            write_rows(eng.db, data)
            eng.close()
            assert os.listdir(os.path.join(tmp, "segments"))
            eng2 = open_database(tmp)
            assert eng2.snap_id == 0
            assert read_rows(eng2.db) == expected_rows(data)
            eng2.close()

    @settings(max_examples=25, deadline=None)
    @given(data=rows)
    def test_roundtrip_through_snapshot(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            eng = open_database(tmp)
            write_rows(eng.db, data)
            eng.checkpoint()
            eng.close()
            assert not os.listdir(os.path.join(tmp, "segments"))
            eng2 = open_database(tmp)
            assert eng2.replayed_records == 0
            assert read_rows(eng2.db) == expected_rows(data)
            eng2.close()

    @settings(max_examples=25, deadline=None)
    @given(data=rows)
    def test_roundtrip_through_array_plane(self, data):
        strings_in = [r[0] for r in data]
        times_in = [r[1] for r in data]
        with tempfile.TemporaryDirectory() as tmp:
            eng = open_database(tmp)
            array = SciArray(
                "meta",
                [Dimension("i", 0, len(data))],
                [("s", STRING), ("t", TIMESTAMP)],
            )
            eng.db.catalog.add_array(array)
            array.set_attribute("s", object_plane(strings_in))
            array.set_attribute("t", object_plane(times_in))
            eng.close()
            # Planes replayed from their WAL segments...
            eng2 = open_database(tmp)
            replayed = eng2.db.array("meta")
            assert exact(replayed.attribute("s")) == exact(strings_in)
            assert exact(replayed.attribute("t")) == exact(times_in)
            eng2.checkpoint()
            eng2.close()
            # ...and loaded from the snapshot.
            eng3 = open_database(tmp)
            loaded = eng3.db.array("meta")
            assert exact(loaded.attribute("s")) == exact(strings_in)
            assert exact(loaded.attribute("t")) == exact(times_in)
            eng3.close()

    def test_corrupt_heap_or_codes_raise(self):
        codes, heap = encode_object_column(
            object_plane(["x"]), [True], STRING
        )
        with pytest.raises(StorageError, match="out of range"):
            decode_object_column(codes + 1, heap, STRING)
        with pytest.raises(StorageError, match="heap"):
            decode_object_column(codes, heap[:-1], STRING)

    def test_format_1_snapshot_is_refused(self, data_dir):
        eng = open_database(data_dir)
        eng.db.execute("CREATE TABLE t (s STRING)")
        snap_dir = eng.checkpoint()
        eng.close()
        manifest_path = os.path.join(snap_dir, "manifest.json")
        with open(manifest_path) as f:
            manifest = json.load(f)
        manifest["format"] = 1
        with open(manifest_path, "w") as f:
            json.dump(manifest, f)
        with pytest.raises(StorageError, match="format 1"):
            open_database(data_dir)

    def test_segment_without_heap_names_the_segment(self, data_dir):
        eng = open_segmented(data_dir)
        write_rows(eng.db, [("a", None)])
        eng.close()
        seg_dir = os.path.join(data_dir, "segments")
        (seg,) = os.listdir(seg_dir)
        path = os.path.join(seg_dir, seg)
        with np.load(path) as archive:
            kept = {k: archive[k] for k in archive.files if k != "h_s"}
        with open(path, "wb") as f:
            np.savez(f, **kept)
        with pytest.raises(StorageError, match=seg):
            open_database(data_dir)


class TestInsertRowsSegment:
    """An ``insert_rows`` batch of at least ``SEGMENT_THRESHOLD`` rows is
    journaled as one segment built from the BATs it was appended to."""

    @pytest.mark.parametrize("durable", [False, True])
    def test_each_cell_coerced_once(self, data_dir, monkeypatch, durable):
        eng = open_database(data_dir) if durable else None
        db = eng.db if durable else Database()
        db.execute("CREATE TABLE t (id INT, name STRING)")
        columns, cells = [], []
        original = ColumnType.coerce_column
        scalar = ColumnType.coerce

        def counting(self, values):
            columns.append(len(values))
            return original(self, values)

        def counting_cells(self, value):
            cells.append(value)
            return scalar(self, value)

        monkeypatch.setattr(ColumnType, "coerce_column", counting)
        monkeypatch.setattr(ColumnType, "coerce", counting_cells)
        db.insert_rows("t", [(i, f"n{i}") for i in range(1000)])
        monkeypatch.undo()
        # One column pass each; exact-typed cells never take the loop.
        assert columns == [1000, 1000]
        assert cells == []
        if durable:
            assert eng.wal_records == 2  # DDL + one segment record
            eng.close()

    def test_batch_with_nulls_reopens_identical(self, data_dir):
        eng = open_database(data_dir)
        db = eng.db
        db.execute(
            "CREATE TABLE t (id INT, name STRING, w DOUBLE, "
            "at TIMESTAMP, ok BOOL)"
        )
        data = [
            (
                None if i % 7 == 0 else i,
                HOSTILE_STRINGS[i % len(HOSTILE_STRINGS)],
                None if i % 5 == 0 else i / 4,
                HOSTILE_TIMESTAMPS[i % len(HOSTILE_TIMESTAMPS)],
                None if i % 3 == 0 else i % 2 == 0,
            )
            for i in range(300)
        ]
        db.insert_rows("t", data)
        assert len(os.listdir(os.path.join(data_dir, "segments"))) == 1

        def table_state(database):
            table = database.table("t")
            return [
                exact(table.column(name).to_list())
                for name in table.column_names
            ]

        before = table_state(db)
        assert before == [exact(column) for column in zip(*data)]
        eng.close()
        eng2 = reopen(data_dir)
        assert table_state(eng2.db) == before
        eng2.close()
