"""The durable storage engine: snapshot + WAL + column segments.

Directory layout (``REPRO_DATA_DIR`` or an explicit path)::

    <data_dir>/
      CURRENT                 # names the live snapshot, e.g. "snap-000003"
      snap-000003/            # immutable checkpoint (see snapshot.py)
      wal-000003.log          # mutations since that checkpoint
      segments/seg-00000017.npz   # bulk column segments the WAL references

Every logical mutation is **exactly one WAL record** (bulk payloads live
in side segments that are fsynced *before* the record referencing them),
so recovery — load ``CURRENT``'s snapshot, replay its WAL, truncate the
first torn frame — reconstructs precisely the acknowledged state: no
partial rows, no lost acknowledged writes.

Write ordering per mutation::

    1. apply in memory (validation/coercion happens here)
    2. [bulk only] write + fsync the segment file   (storage.segment)
    3. append + fsync the WAL record                (storage.wal)
    4. return to caller  -> the write is acknowledged

A crash (injected ``hard`` fault, or a real kill) between 1 and 3 loses
an *unacknowledged* write — the process memory is gone anyway — and can
never surface a partial one.  Checkpoints write a fresh snapshot under a
temporary name, fsync it, rename it into place, create the paired empty
WAL and only then flip ``CURRENT`` (atomic ``rename``); the previous
snapshot + WAL stay authoritative until that instant
(``storage.snapshot`` fires before any snapshot byte is written).
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro import faults, obs, resilience
from repro.mdb.database import Database
from repro.mdb.sciql import Dimension, SciArray
from repro.mdb.storage.records import (
    StorageError,
    decode_object_cell,
    decode_row,
    decode_value,
    encode_object_column,
    encode_row,
    encode_value,
)
from repro.mdb.storage.snapshot import (
    fsync_path,
    load_snapshot,
    write_snapshot,
)
from repro.mdb.storage.wal import WriteAheadLog, resolve_sync_policy
from repro.mdb.table import Column, Table
from repro.mdb.types import type_by_name

#: Environment variable naming the default durable data directory.
DATA_DIR_ENV = "REPRO_DATA_DIR"

#: Row batches at or above this size are journaled as binary column
#: segments instead of JSON rows.
SEGMENT_THRESHOLD = 256


def _snap_name(snap_id: int) -> str:
    return f"snap-{snap_id:06d}"


def _wal_name(snap_id: int) -> str:
    return f"wal-{snap_id:06d}.log"


class StorageEngine:
    """Owns one durable database directory.

    ::

        engine = StorageEngine("/data/veo").open()
        db = engine.db                  # a live, journaled Database
        db.execute("CREATE TABLE ...")  # every mutation hits the WAL
        engine.checkpoint()             # fold the WAL into a snapshot
        engine.close()

    All mutations issued through the returned database — SQL DML/DDL,
    the bulk ``insert_rows`` / ``insert_columns`` fast paths, SciQL
    array updates — are journaled transparently via the table/catalog/
    array hooks this engine attaches.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        sync_policy: Optional[str] = None,
        segment_threshold: int = SEGMENT_THRESHOLD,
    ):
        directory = directory or os.environ.get(DATA_DIR_ENV)
        if not directory:
            raise StorageError(
                "StorageEngine needs a directory (argument or "
                f"{DATA_DIR_ENV})"
            )
        self.directory = os.path.abspath(directory)
        self.sync_policy = resolve_sync_policy(sync_policy)
        self.segment_threshold = int(segment_threshold)
        self.db: Optional[Database] = None
        self.meta: Dict[str, Any] = {}
        self.snap_id = 0
        self.last_recovery_seconds: Optional[float] = None
        self.replayed_records = 0
        self._wal: Optional[WriteAheadLog] = None
        self._next_seg = 0
        self._replaying = False
        self._lock = threading.RLock()
        self.retry = resilience.DEFAULT_RETRY

    # -- lifecycle --------------------------------------------------------

    def open(self) -> "StorageEngine":
        """Recover the durable state and attach journaling hooks."""
        started = time.perf_counter()
        os.makedirs(self.directory, exist_ok=True)
        os.makedirs(os.path.join(self.directory, "segments"), exist_ok=True)
        current = self._read_current()
        if current is None:
            self.snap_id = 0
            self.db = Database()
            self.meta = {}
        else:
            self.snap_id = current
            self.db, self.meta = load_snapshot(
                os.path.join(self.directory, _snap_name(current))
            )
        self._next_seg = self._scan_next_segment()
        self._wal = WriteAheadLog(
            os.path.join(self.directory, _wal_name(self.snap_id)),
            sync_policy=self.sync_policy,
        )
        self._replaying = True
        try:
            self.replayed_records = self._wal.replay(self._apply_record)
        finally:
            self._replaying = False
        self._wal.open_for_append()
        self._attach(self.db)
        self.last_recovery_seconds = time.perf_counter() - started
        obs.counter("storage.opens").inc()
        obs.counter("storage.replayed_records").inc(self.replayed_records)
        return self

    def close(self) -> None:
        """Flush and release the WAL (the database object stays usable
        in memory, but further mutations raise)."""
        with self._lock:
            if self._wal is not None:
                self._wal.close()
                self._wal = None
            # Journal hooks stay attached: a mutation after close() must
            # raise StorageError, never silently skip the journal.

    def sync(self) -> None:
        """Force buffered WAL appends to disk (``batch`` policy)."""
        with self._lock:
            if self._wal is not None:
                self._wal.sync()

    @property
    def is_open(self) -> bool:
        return self._wal is not None and self._wal.is_open

    @property
    def wal_records(self) -> int:
        """Records appended to the live WAL since open (diagnostics)."""
        return self._wal.appended if self._wal is not None else 0

    # -- meta -------------------------------------------------------------

    def get_meta(self, key: str, default: Any = None) -> Any:
        return self.meta.get(key, default)

    def set_meta(self, key: str, value: Any) -> None:
        """Durably set one metadata key (journaled like any write)."""
        with self._lock:
            self.meta[key] = value
            self._append({"op": "meta", "k": key, "v": encode_value(value)})

    # -- checkpoint -------------------------------------------------------

    def checkpoint(self) -> str:
        """Fold the WAL into a fresh snapshot; returns its directory.

        The previous snapshot + WAL remain the recovery source until the
        atomic ``CURRENT`` flip; afterwards they (and consumed segments)
        are deleted.
        """
        with self._lock:
            if self.db is None or self._wal is None:
                raise StorageError("engine is not open")
            new_id = self.snap_id + 1
            snap_dir = os.path.join(self.directory, _snap_name(new_id))
            tmp_dir = snap_dir + ".tmp"
            if os.path.exists(tmp_dir):
                shutil.rmtree(tmp_dir)

            def attempt() -> None:
                write_snapshot(self.db, self.meta, tmp_dir)

            resilience.call_with_retry(
                attempt, self.retry, label="storage.snapshot"
            )
            if os.path.exists(snap_dir):
                shutil.rmtree(snap_dir)
            os.rename(tmp_dir, snap_dir)
            fsync_path(self.directory)
            # Pair the new snapshot with an empty WAL *before* CURRENT
            # flips: recovery never sees a snapshot without its log.
            self._wal.close()
            new_wal = WriteAheadLog(
                os.path.join(self.directory, _wal_name(new_id)),
                sync_policy=self.sync_policy,
            )
            with open(new_wal.path, "wb") as f:
                f.flush()
                os.fsync(f.fileno())
            new_wal.open_for_append()
            self._write_current(new_id)
            old_id = self.snap_id
            old_wal_path = self._wal.path
            self.snap_id = new_id
            self._wal = new_wal
            self._cleanup(old_id, old_wal_path)
            obs.counter("storage.checkpoints").inc()
            return snap_dir

    def _cleanup(self, old_id: int, old_wal_path: str) -> None:
        """Best-effort removal of superseded snapshot/WAL/segments."""
        old_snap = os.path.join(self.directory, _snap_name(old_id))
        for path in (old_wal_path,):
            if os.path.exists(path):
                os.remove(path)
        if os.path.isdir(old_snap):
            shutil.rmtree(old_snap)
        # The new snapshot holds the data; all segments are consumed.
        seg_dir = os.path.join(self.directory, "segments")
        for name in os.listdir(seg_dir):
            os.remove(os.path.join(seg_dir, name))
        self._next_seg = 0
        # Stale tmp dirs from crashed checkpoints.
        for name in os.listdir(self.directory):
            if name.endswith(".tmp"):
                shutil.rmtree(
                    os.path.join(self.directory, name), ignore_errors=True
                )

    # -- CURRENT pointer --------------------------------------------------

    def _current_path(self) -> str:
        return os.path.join(self.directory, "CURRENT")

    def _read_current(self) -> Optional[int]:
        path = self._current_path()
        if not os.path.exists(path):
            return None
        with open(path) as f:
            name = f.read().strip()
        if not name.startswith("snap-"):
            raise StorageError(f"corrupt CURRENT pointer: {name!r}")
        return int(name[len("snap-"):])

    def _write_current(self, snap_id: int) -> None:
        path = self._current_path()
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            f.write(_snap_name(snap_id) + "\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        fsync_path(self.directory)

    # -- segments ---------------------------------------------------------

    def _scan_next_segment(self) -> int:
        seg_dir = os.path.join(self.directory, "segments")
        highest = -1
        if os.path.isdir(seg_dir):
            for name in os.listdir(seg_dir):
                if name.startswith("seg-") and name.endswith(".npz"):
                    try:
                        highest = max(highest, int(name[4:-4]))
                    except ValueError:
                        continue
        return highest + 1

    def _write_segment(self, payload: Dict[str, np.ndarray]) -> str:
        """Write one fsynced ``.npz`` segment; returns its file name.

        ``storage.segment`` fires before any byte is written; transient
        injected faults are absorbed by retrying the whole write.
        """
        with self._lock:
            name = f"seg-{self._next_seg:08d}.npz"
            self._next_seg += 1
        path = os.path.join(self.directory, "segments", name)

        def attempt() -> None:
            faults.maybe_fail("storage.segment")
            with open(path, "wb") as f:
                np.savez(f, **payload)
                f.flush()
                os.fsync(f.fileno())

        resilience.call_with_retry(
            attempt, self.retry, label="storage.segment"
        )
        return name

    def _segment_path(self, name: str) -> str:
        return os.path.join(self.directory, "segments", name)

    # -- journal hooks (called by Table / Catalog / SciArray) -------------

    def _append(self, record: dict) -> None:
        if self._replaying:
            return
        with self._lock:
            if self._wal is None:
                raise StorageError(
                    "storage engine is closed; reopen before writing"
                )
            self._wal.append(record)

    def log_create_table(self, table: Table) -> None:
        if self._replaying:
            return
        self._append(
            {
                "op": "create_table",
                "name": table.name,
                "columns": [
                    [c.name, c.ctype.name] for c in table.columns
                ],
            }
        )
        table.journal = self

    def log_drop_table(self, name: str) -> None:
        self._append({"op": "drop_table", "name": name})

    def log_create_array(self, array: SciArray) -> None:
        """One record carrying schema *and* plane segments, so a crash
        between them can never surface a half-created array."""
        if self._replaying:
            return
        planes = {
            attr: self._plane_segment(array, attr)
            for attr, _ in array.attributes
        }
        self._append(
            {
                "op": "create_array",
                "name": array.name,
                "dims": [
                    [d.name, d.start, d.stop] for d in array.dimensions
                ],
                "attrs": [[n, t.name] for n, t in array.attributes],
                "planes": planes,
            }
        )
        array.journal = self

    def log_drop_array(self, name: str) -> None:
        self._append({"op": "drop_array", "name": name})

    def log_insert(self, table: str, rows: List[List[Any]]) -> None:
        if self._replaying or not rows:
            return
        if len(rows) >= self.segment_threshold:
            table_obj = self.db.table(table)
            n = len(rows)
            prepared: Dict[str, Any] = {}
            for j, col in enumerate(table_obj.columns):
                data = col.ctype.empty_array(n)
                valid = np.empty(n, dtype=bool)
                coerce = col.ctype.coerce
                filler = (
                    None if col.ctype.dtype == np.dtype(object) else 0
                )
                for i, row in enumerate(rows):
                    value = coerce(row[j])
                    if value is None:
                        valid[i] = False
                        data[i] = filler
                    else:
                        valid[i] = True
                        data[i] = value
                prepared[col.name] = (data, valid)
            self.log_insert_columns(table, prepared, n)
            return
        self._append(
            {
                "op": "insert",
                "table": table,
                "rows": [encode_row(r) for r in rows],
            }
        )

    def log_insert_columns(
        self, table: str, prepared: Dict[str, Any], rows: int
    ) -> None:
        """Bulk append journaled as one binary segment + one record.

        ``prepared`` maps column name → ``(data, valid)`` arrays already
        coerced to the column dtype (the shape :meth:`Table.insert_columns`
        stages), so journaling is a straight binary write — this is the
        no-per-row-cost path the catalog broker's 100k-scene ingest uses.
        """
        if self._replaying or not rows:
            return
        table_obj = self.db.table(table)
        payload: Dict[str, np.ndarray] = {}
        for col in table_obj.columns:
            data, valid = prepared[col.name]
            valid = np.asarray(valid, dtype=bool)
            if col.ctype.dtype == np.dtype(object):
                payload[f"d_{col.name}"] = encode_object_column(data, valid)
            else:
                payload[f"d_{col.name}"] = np.asarray(data)
            payload[f"v_{col.name}"] = valid
        seg = self._write_segment(payload)
        self._append(
            {"op": "insert_seg", "table": table, "seg": seg, "rows": rows}
        )
        obs.counter("storage.segment_rows").inc(rows)

    def log_delete(self, table: str, positions: Sequence[int]) -> None:
        self._append(
            {
                "op": "delete",
                "table": table,
                "positions": [int(p) for p in positions],
            }
        )

    def log_update(
        self,
        table: str,
        positions: Sequence[int],
        assignments: Dict[str, List[Any]],
    ) -> None:
        self._append(
            {
                "op": "update",
                "table": table,
                "positions": [int(p) for p in positions],
                "assignments": {
                    col: encode_row(values)
                    for col, values in assignments.items()
                },
            }
        )

    def log_truncate(self, table: str) -> None:
        self._append({"op": "truncate", "table": table})

    def _plane_segment(self, array: SciArray, attr: str) -> str:
        plane = array.attribute(attr)
        if plane.dtype == np.dtype(object):
            flat = plane.reshape(-1)
            valid = np.fromiter(
                (v is not None for v in flat), count=flat.size, dtype=bool
            )
            encoded = encode_object_column(flat, valid).reshape(plane.shape)
            return self._write_segment({"plane": encoded, "object": np.array([True])})
        return self._write_segment({"plane": plane})

    def log_plane(self, array_name: str, attr: str) -> None:
        """Journal a whole attribute plane after a SciQL write."""
        if self._replaying:
            return
        array = self.db.array(array_name)
        seg = self._plane_segment(array, attr)
        self._append(
            {"op": "plane", "array": array_name, "attr": attr, "seg": seg}
        )

    def log_add_attribute(
        self, array_name: str, attr: str, type_name: str
    ) -> None:
        if self._replaying:
            return
        array = self.db.array(array_name)
        seg = self._plane_segment(array, attr)
        self._append(
            {
                "op": "add_attr",
                "array": array_name,
                "attr": attr,
                "type": type_name,
                "seg": seg,
            }
        )

    # -- recovery ---------------------------------------------------------

    def _load_segment_columns(
        self, seg: str, table: Table, rows: int
    ) -> Dict[str, Any]:
        archive = np.load(self._segment_path(seg), allow_pickle=False)
        out: Dict[str, Any] = {}
        for col in table.columns:
            data = archive[f"d_{col.name}"]
            valid = archive[f"v_{col.name}"]
            if col.ctype.dtype == np.dtype(object):
                decoded = np.empty(rows, dtype=object)
                for i in range(rows):
                    decoded[i] = (
                        decode_object_cell(str(data[i]), col.ctype)
                        if valid[i]
                        else None
                    )
                data = decoded
            out[col.name] = (data, valid.astype(bool))
        return out

    def _load_plane(self, seg: str, ctype) -> np.ndarray:
        archive = np.load(self._segment_path(seg), allow_pickle=False)
        plane = archive["plane"]
        if "object" in archive.files:
            flat = plane.reshape(-1)
            decoded = np.empty(flat.size, dtype=object)
            for i in range(flat.size):
                text = str(flat[i])
                decoded[i] = decode_object_cell(text, ctype) if text else None
            plane = decoded.reshape(plane.shape)
        return plane

    def _apply_record(self, record: dict) -> None:
        """Replay one WAL record against the in-memory database."""
        op = record["op"]
        catalog = self.db.catalog
        if op == "create_table":
            catalog.add_table(
                Table(
                    record["name"],
                    [
                        Column(n, type_by_name(t))
                        for n, t in record["columns"]
                    ],
                )
            )
        elif op == "drop_table":
            catalog.drop_table(record["name"], if_exists=True)
        elif op == "create_array":
            dims = [Dimension(n, a, b) for n, a, b in record["dims"]]
            attrs = [(n, type_by_name(t)) for n, t in record["attrs"]]
            array = SciArray(record["name"], dims, attrs)
            for attr, ctype in attrs:
                plane = self._load_plane(record["planes"][attr], ctype)
                array._values[attr] = plane.astype(ctype.dtype, copy=True)
            catalog.add_array(array)
        elif op == "drop_array":
            catalog.drop_array(record["name"], if_exists=True)
        elif op == "insert":
            self.db.table(record["table"]).insert_rows(
                [decode_row(r) for r in record["rows"]]
            )
        elif op == "insert_seg":
            table = self.db.table(record["table"])
            columns = self._load_segment_columns(
                record["seg"], table, record["rows"]
            )
            for name, (data, valid) in columns.items():
                table.column(name).extend_arrays(data, valid)
        elif op == "delete":
            self.db.table(record["table"]).delete_positions(
                np.asarray(record["positions"], dtype=np.int64)
            )
        elif op == "update":
            self.db.table(record["table"]).update_positions(
                np.asarray(record["positions"], dtype=np.int64),
                {
                    col: decode_row(values)
                    for col, values in record["assignments"].items()
                },
            )
        elif op == "truncate":
            self.db.table(record["table"]).truncate()
        elif op == "plane":
            array = self.db.array(record["array"])
            ctype = array.attribute_type(record["attr"])
            plane = self._load_plane(record["seg"], ctype)
            array._values[record["attr"].lower()] = plane.astype(
                ctype.dtype, copy=True
            )
        elif op == "add_attr":
            array = self.db.array(record["array"])
            ctype = type_by_name(record["type"])
            array.add_attribute(record["attr"], ctype)
            plane = self._load_plane(record["seg"], ctype)
            array._values[record["attr"].lower()] = plane.astype(
                ctype.dtype, copy=True
            )
        elif op == "meta":
            self.meta[record["k"]] = decode_value(record["v"])
        else:
            raise StorageError(f"unknown WAL record op {op!r}")

    # -- hook management --------------------------------------------------

    def _attach(self, db: Database) -> None:
        db.catalog.journal = self
        for name in db.tables():
            db.table(name).journal = self
        for name in db.arrays():
            db.array(name).journal = self
        db.engine = self

    def __repr__(self) -> str:
        state = "open" if self.is_open else "closed"
        return (
            f"<StorageEngine {self.directory} {state} "
            f"snap={self.snap_id} sync={self.sync_policy}>"
        )


def open_database(
    directory: Optional[str] = None,
    sync_policy: Optional[str] = None,
) -> StorageEngine:
    """Open (recovering if needed) a durable database directory."""
    return StorageEngine(directory, sync_policy=sync_policy).open()
