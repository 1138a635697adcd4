"""Snapshot format: one immutable directory per checkpoint.

Layout::

    snap-<nnnnnn>/
      manifest.json                     # schema + meta, written last
      t_<table>__<column>.data.npy      # raw column values
      t_<table>__<column>.valid.npy     # NULL mask
      a_<array>__<attr>.npy             # attribute plane

Columns are raw ``.npy`` files (never ``.npz``) so numeric columns can
be **memmapped** on load — a cold open of a multi-gigabyte catalog maps
the segments read-only and pays for pages only as scans touch them.
Object columns (strings, timestamps) are stored as JSON-string arrays
(:func:`~repro.mdb.storage.records.encode_object_column`) and
materialised on load.

A snapshot directory is written under a temporary name and renamed into
place by the engine only after every file and the directory itself have
been fsynced, so a crash mid-snapshot leaves no half-written snapshot
reachable from ``CURRENT``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Tuple

import numpy as np

from repro import faults
from repro.mdb.bat import BAT
from repro.mdb.database import Database
from repro.mdb.sciql import Dimension, SciArray
from repro.mdb.storage.records import (
    StorageError,
    decode_object_cell,
    encode_object_column,
)
from repro.mdb.table import Column, Table
from repro.mdb.types import type_by_name

SNAPSHOT_FORMAT = 1


def fsync_path(path: str) -> None:
    """fsync one file (or directory) by descriptor."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _save_array(directory: str, name: str, data: np.ndarray) -> None:
    path = os.path.join(directory, name)
    with open(path, "wb") as f:
        np.save(f, data, allow_pickle=False)
        f.flush()
        os.fsync(f.fileno())


def write_snapshot(
    db: Database, meta: Dict[str, Any], directory: str
) -> None:
    """Write the whole database + meta map into ``directory``.

    The ``storage.snapshot`` injection point fires before any file is
    written: an injected crash aborts the checkpoint with the previous
    snapshot (and its WAL) untouched.
    """
    faults.maybe_fail("storage.snapshot")
    os.makedirs(directory, exist_ok=True)
    manifest: Dict[str, Any] = {
        "format": SNAPSHOT_FORMAT,
        "meta": dict(meta),
        "tables": [],
        "arrays": [],
    }
    for name in db.tables():
        table = db.table(name)
        manifest["tables"].append(
            {
                "name": name,
                "columns": [
                    {"name": c.name, "type": c.ctype.name}
                    for c in table.columns
                ],
                "rows": len(table),
            }
        )
        for column in table.columns:
            bat = table.column(column.name)
            data = bat.values
            if data.dtype == np.dtype(object):
                data = encode_object_column(data, bat.validity)
            _save_array(directory, f"t_{name}__{column.name}.data.npy", data)
            _save_array(
                directory,
                f"t_{name}__{column.name}.valid.npy",
                bat.validity,
            )
    for name in db.arrays():
        array = db.array(name)
        manifest["arrays"].append(
            {
                "name": name,
                "dimensions": [
                    {"name": d.name, "start": d.start, "stop": d.stop}
                    for d in array.dimensions
                ],
                "attributes": [
                    {"name": n, "type": t.name}
                    for n, t in array.attributes
                ],
            }
        )
        for attr, ctype in array.attributes:
            plane = array.attribute(attr)
            if plane.dtype == np.dtype(object):
                flat = plane.reshape(-1)
                valid = np.fromiter(
                    (v is not None for v in flat),
                    count=flat.size,
                    dtype=bool,
                )
                plane = encode_object_column(flat, valid).reshape(
                    plane.shape
                )
            _save_array(directory, f"a_{name}__{attr}.npy", plane)
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    fsync_path(directory)


def _load_column(
    directory: str, table: str, column: Column, rows: int
) -> BAT:
    data_path = os.path.join(
        directory, f"t_{table}__{column.name}.data.npy"
    )
    valid_path = os.path.join(
        directory, f"t_{table}__{column.name}.valid.npy"
    )
    # Zero-length arrays cannot be memmapped; load them eagerly.
    mmap_mode = "r" if rows else None
    valid = np.load(valid_path, mmap_mode=mmap_mode, allow_pickle=False)
    if column.ctype.dtype == np.dtype(object):
        encoded = np.load(data_path, allow_pickle=False)
        data = np.empty(rows, dtype=object)
        for i in range(rows):
            data[i] = (
                decode_object_cell(str(encoded[i]), column.ctype)
                if valid[i]
                else None
            )
        # Object columns are materialised; copy the mask so the BAT is
        # immediately writable.
        return BAT.adopt(column.ctype, data, np.array(valid, dtype=bool))
    data = np.load(data_path, mmap_mode=mmap_mode, allow_pickle=False)
    if len(data) != rows or len(valid) != rows:
        raise StorageError(
            f"snapshot column {table}.{column.name} has "
            f"{len(data)} values for {rows} rows"
        )
    return BAT.adopt(column.ctype, data, valid)


def load_snapshot(directory: str) -> Tuple[Database, Dict[str, Any]]:
    """Rebuild ``(database, meta)`` from a snapshot directory.

    Numeric columns come back as read-only memmaps adopted by
    copy-on-write BATs: scans read straight from the page cache, and
    the first mutation of a column materialises it in memory.
    """
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        raise StorageError(f"no manifest.json in snapshot {directory!r}")
    with open(manifest_path) as f:
        manifest = json.load(f)
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise StorageError(
            f"unsupported snapshot format {manifest.get('format')!r} "
            f"(expected {SNAPSHOT_FORMAT})"
        )
    db = Database()
    for spec in manifest["tables"]:
        columns = [
            Column(c["name"], type_by_name(c["type"]))
            for c in spec["columns"]
        ]
        table = Table(spec["name"], columns)
        for column in columns:
            table._bats[column.name] = _load_column(
                directory, spec["name"], column, spec["rows"]
            )
        db.catalog.add_table(table)
    for spec in manifest["arrays"]:
        dims = [
            Dimension(d["name"], d["start"], d["stop"])
            for d in spec["dimensions"]
        ]
        attrs = [
            (a["name"], type_by_name(a["type"]))
            for a in spec["attributes"]
        ]
        array = SciArray(spec["name"], dims, attrs)
        for attr_name, ctype in attrs:
            plane = np.load(
                os.path.join(directory, f"a_{spec['name']}__{attr_name}.npy"),
                allow_pickle=False,
            )
            if ctype.dtype == np.dtype(object):
                flat = plane.reshape(-1)
                decoded = np.empty(flat.size, dtype=object)
                for i in range(flat.size):
                    text = str(flat[i])
                    decoded[i] = (
                        decode_object_cell(text, ctype) if text else None
                    )
                plane = decoded.reshape(plane.shape)
            array._values[attr_name] = plane.astype(ctype.dtype, copy=True)
        db.catalog.add_array(array)
    return db, dict(manifest.get("meta", {}))
