"""Durable column-store storage: snapshots, WAL, crash recovery.

The public surface:

* :class:`StorageEngine` / :func:`open_database` — open a durable
  database directory, recovering snapshot + WAL into a live, journaled
  :class:`~repro.mdb.database.Database`;
* :class:`WriteAheadLog` — the framed, fsync-ordered mutation log;
* :func:`write_snapshot` / :func:`load_snapshot` — the checkpoint format
  (raw ``.npy`` columns, numeric ones memmapped on load, object ones as
  codes plus a heap of distinct values);
* :class:`StorageError` — the storage-layer error type.

Chaos-testing hooks: the ``storage.wal``, ``storage.segment`` and
``storage.snapshot`` fault sites (:mod:`repro.faults`) fire before any
byte of their write reaches disk, so an injected crash at any of them
recovers to exactly the acknowledged state.
"""

from repro.mdb.storage.engine import (
    DATA_DIR_ENV,
    SEGMENT_THRESHOLD,
    StorageEngine,
    open_database,
)
from repro.mdb.storage.records import StorageError
from repro.mdb.storage.snapshot import (
    SNAPSHOT_FORMAT,
    load_snapshot,
    write_snapshot,
)
from repro.mdb.storage.wal import (
    SYNC_POLICIES,
    WAL_SYNC_ENV,
    WriteAheadLog,
    resolve_sync_policy,
)

__all__ = [
    "DATA_DIR_ENV",
    "SEGMENT_THRESHOLD",
    "SNAPSHOT_FORMAT",
    "SYNC_POLICIES",
    "StorageEngine",
    "StorageError",
    "WAL_SYNC_ENV",
    "WriteAheadLog",
    "load_snapshot",
    "open_database",
    "resolve_sync_policy",
    "write_snapshot",
]
