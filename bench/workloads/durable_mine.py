"""``durable_mine`` — the mining pillar over a durable observatory.

``mining.features``/``classify``/``annotate``, ``mdb.storage`` and the
catalog broker do the work and the stSPARQL engine little.  It is the
only workload where journaling the RDF tier through the storage engine
(ROADMAP item 3) can cost or save anything, and it sets recovery (read)
beside journaling (write) for the same engine.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
import zlib
from datetime import datetime
from typing import Dict, Tuple

import numpy as np

from repro.eo.linkeddata import GreeceLikeWorld
from repro.mdb.datavault.broker import SceneCatalog
from repro.mining import queries as mining_queries
from repro.noa.chain import ChainFailure, ProcessingChain
from repro.vo import VirtualEarthObservatory
from repro.vo.services import DataMiningService

from bench.workloads.inputs import BASE_TIME, select_rows, write_archive

MODEL = "knn-bench"
PATCH = 16
#: Bytes one registered scene record carries (see bench/README.md).
RECORD_FIELDS = ("path", "mission", "sensor", "acquired")


def _tree_bytes(directory: str) -> Dict[str, int]:
    """Bytes under a data dir, by what holds them."""
    sizes = {"wal": 0, "segment": 0, "snapshot": 0}
    for root, _, files in os.walk(directory):
        for name in files:
            size = os.path.getsize(os.path.join(root, name))
            part = os.path.relpath(root, directory).split(os.sep)[0]
            if part == "segments":
                sizes["segment"] += size
            elif part.startswith("snap-"):
                sizes["snapshot"] += size
            else:
                sizes["wal"] += size
    return sizes


def _digests(db) -> Dict[Tuple[str, str], Tuple[int, int]]:
    """Row count and checksum of every table column and array plane."""
    out: Dict[Tuple[str, str], Tuple[int, int]] = {}
    for name in db.tables():
        table = db.table(name)
        for column in table.column_names:
            values = table.column(column).to_list()
            out[(name, column)] = (len(values), hash(tuple(values)))
    for name in db.arrays():
        array = db.array(name)
        for attr, _ in array.attributes:
            plane = np.ascontiguousarray(array.attribute(attr))
            out[(name, attr)] = (plane.size, zlib.crc32(plane.tobytes()))
    return out


class DurableMine:
    def __init__(self, ctx):
        self.ctx = ctx
        self.mined = ctx.scaled(2)
        self.size = ctx.scaled(512, 64)
        self.fires = ctx.scaled(100, 12)
        self.registered = ctx.scaled(30_000, 500)
        self.reopens = 3
        self.windows = ctx.scaled(20, 3)
        self.world = GreeceLikeWorld()

    def setup(self) -> None:
        # One training scene, the mined batch, one scene for after the
        # checkpoint; two synthesized catalog batches.
        archive = self.ctx.fresh_dir("archive")
        self.paths, _ = write_archive(
            archive, self.ctx.seed, self.mined + 2, self.size, self.fires
        )
        self.batches = [
            list(SceneCatalog.synthesize_scenes(
                self.registered, seed=self.ctx.seed * 10 + half
            ))
            for half in (0, 1)
        ]
        self.user_bytes = sum(
            os.path.getsize(p) for p in self.paths
        ) + sum(
            len(str(scene[field]))
            for batch in self.batches for scene in batch
            for field in RECORD_FIELDS
        ) + 16 * 2 * self.registered  # level, cloud: two 8-byte numbers

    def round(self, rec) -> None:
        data_dir = self.ctx.fresh_dir("data")
        train, batch, late = (
            self.paths[:1], self.paths[1:-1], self.paths[-1:]
        )
        with rec.phase("write"):
            vo = VirtualEarthObservatory(world=self.world, data_dir=data_dir)
            service = DataMiningService(vo.ingestor, patch_size=PATCH)
            service.train_classifier(train, model_name=MODEL)
            # One fire-chain product so the annotation-hotspot join has
            # both sides.
            ProcessingChain(vo.ingestor, "static").run(batch[0])
            mined = service.mine_batch(batch, MODEL)
            catalog = vo.scene_catalog()
            catalog.bulk_register(self.batches[0])
            vo.checkpoint()
            catalog.bulk_register(self.batches[1])
            mined += service.mine_batch(late, MODEL)
            vo.engine.sync()
        for result in mined:
            ok = not isinstance(result, ChainFailure)
            rec.check(ok, f"mining failed: {result!r}")
            if ok:
                for stage, seconds in result.timings.items():
                    rec.layer(f"mining.stage_{stage}_s", seconds)
        sizes = _tree_bytes(data_dir)
        for part, size in sizes.items():
            rec.layer(f"storage.{part}_bytes", size)
        rec.layer(
            "storage.stored_bytes_per_user_byte",
            sum(sizes.values()) / self.user_bytes,
        )
        rec.layer("storage.wal_records_n", vo.engine.wal_records)

        with rec.phase("read"):
            started = time.perf_counter()
            answers = [
                rec.query(select_rows, vo.store, text)
                for text in self._mining_queries()
            ]
            rec.layer("mining.query_s", time.perf_counter() - started)
        # Abandon the engine without close(): reopening recovers from
        # the snapshot plus the WAL tail.  Collecting the previous copy
        # first (untimed) keeps peak memory from depending on when the
        # cycle collector happens to run.
        reopened = []
        for _ in range(self.reopens):
            again = None
            gc.collect()
            with rec.phase("read"):
                started = time.perf_counter()
                again = VirtualEarthObservatory(
                    world=self.world, data_dir=data_dir,
                    load_linked_data=False,
                )
                reopened.append(time.perf_counter() - started)
        with rec.phase("read"):
            rec.layer("storage.recovery_s", statistics.median(reopened))
            rec.layer("storage.rdf_triples_recovered_n", len(again.store))
            catalog = again.scene_catalog()
            report = rec.query(catalog.mission_report)
            subtree = [
                rec.query(catalog.count_subtree, catalog.node_id(mission))
                for mission, _ in report
            ]
            year = datetime(2007, 1, 1)
            windows = [
                rec.query(
                    catalog.scenes_in_window,
                    year.replace(month=1 + k % 12),
                    year.replace(year=2008 + k % 3, month=1 + k % 12),
                )
                for k in range(self.windows)
            ]
            model = rec.query(
                DataMiningService(again.ingestor, PATCH).load_model, MODEL
            )
            relabelled = model.predict(mined[0].grid.feature_matrix())
        # The abandoned engine's database is still in memory, unchanged.
        before, after = _digests(vo.db), _digests(again.db)
        labels = service.load_model(MODEL).predict(
            mined[0].grid.feature_matrix()
        )
        again.close()

        rec.check(
            sum(len(a) for a in answers[:3]) > 0 and len(answers[3]) > 0,
            "a mining query came back empty",
        )
        rec.check(before == after, "recovered tables differ from the "
                  "tables the abandoned engine held")
        rec.check(relabelled == labels,
                  "the persisted model predicts differently after reopen")
        rec.check(
            sum(subtree) == 2 * self.registered
            and [n for _, n in report] == subtree,
            "mission subtree counts do not partition the archive",
        )
        rec.check(all(0 < w <= 2 * self.registered for w in windows),
                  "an acquisition window is empty or over-full")

    def _mining_queries(self) -> list:
        day = BASE_TIME.replace(hour=0, minute=0)
        return [
            mining_queries.concept_census(),
            mining_queries.annotations_by_concept("fire"),
            mining_queries.annotations_valid_during(
                "fire", day, day.replace(day=day.day + 1)
            ),
            mining_queries.annotation_hotspot_join("fire"),
        ]


WORKLOAD = DurableMine
