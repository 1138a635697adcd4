"""Experiment A9 — durable storage: ingest rate, recovery, catalog scale.

The TerraServer-style catalog-broker scenario: bulk-register 100k
synthetic scenes into a durable database (batched columnar WAL segments,
``batch`` sync policy — one fsync per batch, never one per file), then
measure what the paper's operational story depends on:

* **ingest rate** — scenes/second through the broker's bulk path;
* **cold-start recovery** — seconds to reopen the 100k-scene database
  from snapshot + WAL on a fresh engine;
* **catalog query latency** — subtree counts via the materialized
  closure table, acquisition-window counts, and the per-mission report,
  each at the full 100k-scene scale.

Results land in ``BENCH_storage.json``.  Acceptance: all three metrics
reported at 100k scenes; subtree counts must partition the archive
exactly, one subtree count stays under ``SUBTREE_CEILING_S`` and the
cold-start recovery under ``RECOVERY_CEILING_S``.
"""

import json
import os
import time

from repro.mdb.datavault import SceneCatalog
from repro.mdb.storage import open_database

N_SCENES = 100_000
BATCH_SIZE = 20_000
#: A generous absolute ceiling on one subtree count at 100k scenes: the
#: column-at-a-time closure join takes a few ms, a join that runs row at
#: a time or before the ancestor filter about 0.25 s.
SUBTREE_CEILING_S = 0.050
#: An absolute ceiling on reopening the 100k-scene catalog: decoding the
#: STRING/TIMESTAMP columns from their dictionary heaps takes about
#: 0.1 s, a parse per cell about 1 s.
RECOVERY_CEILING_S = 0.5

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_storage.json",
)

_RESULTS = {
    "scenes": N_SCENES,
    "batch_size": BATCH_SIZE,
    "wal_sync": "batch",
}


def _dump():
    with open(RESULTS_PATH, "w") as fh:
        json.dump(_RESULTS, fh, indent=2, sort_keys=True)
        fh.write("\n")


def test_bulk_ingest_recovery_and_query_latency(tmp_path):
    data_dir = str(tmp_path / "catalog-data")

    # -- ingest -----------------------------------------------------------
    engine = open_database(data_dir, sync_policy="batch")
    catalog = SceneCatalog(engine.db, batch_size=BATCH_SIZE)
    scenes = SceneCatalog.synthesize_scenes(N_SCENES, seed=17)
    started = time.perf_counter()
    registered = catalog.bulk_register(scenes)
    engine.sync()
    ingest_seconds = time.perf_counter() - started
    assert registered == N_SCENES
    _RESULTS["ingest_seconds"] = round(ingest_seconds, 3)
    _RESULTS["ingest_scenes_per_second"] = round(
        N_SCENES / ingest_seconds, 1
    )
    _RESULTS["wal_records"] = engine.wal_records
    engine.close()

    # -- cold-start recovery ---------------------------------------------
    started = time.perf_counter()
    engine = open_database(data_dir, sync_policy="batch")
    recovery_seconds = time.perf_counter() - started
    reloaded = SceneCatalog(engine.db)
    assert reloaded.scene_count() == N_SCENES
    _RESULTS["recovery_seconds"] = round(recovery_seconds, 3)
    _RESULTS["recovery_replayed_records"] = engine.replayed_records

    # -- catalog queries at scale ----------------------------------------
    report = reloaded.mission_report()
    assert sum(n for _, n in report) == N_SCENES

    started = time.perf_counter()
    total = 0
    for mission, expected in report:
        node = reloaded.node_id(mission)
        count = reloaded.count_subtree(node)
        assert count == expected  # closure join partitions the archive
        total += count
    subtree_seconds = (time.perf_counter() - started) / len(report)
    assert total == N_SCENES

    from datetime import datetime

    started = time.perf_counter()
    in_2008 = reloaded.scenes_in_window(
        datetime(2008, 1, 1), datetime(2009, 1, 1)
    )
    window_seconds = time.perf_counter() - started
    assert 0 < in_2008 < N_SCENES

    started = time.perf_counter()
    reloaded.mission_report()
    report_seconds = time.perf_counter() - started

    _RESULTS["query_latency_seconds"] = {
        "subtree_count": round(subtree_seconds, 4),
        "window_count": round(window_seconds, 4),
        "mission_report": round(report_seconds, 4),
    }
    engine.close()
    _dump()
    # After the dump, so a failing run still publishes its latencies.
    assert subtree_seconds < SUBTREE_CEILING_S, (
        f"subtree count took {subtree_seconds:.3f}s at {N_SCENES} scenes"
    )
    assert recovery_seconds < RECOVERY_CEILING_S, (
        f"recovery took {recovery_seconds:.3f}s at {N_SCENES} scenes"
    )
