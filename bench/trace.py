"""Span recorder and the fixed table of wrapped public callables.

Nothing under ``src/`` is edited: :func:`install` rebinds the public
entry points of every layer to recording wrappers, and only a traced run
calls it, so the untraced run executes unmodified code.

A span is ``[name, start, end, parent, round, detached]``.  Spans nest
through one stack (the benchmark drives the program from a single
thread); a layer's self time is its spans' duration minus the part
their child spans cover.  Coroutine entry points interleave with other
tasks, so their spans are *detached*: they give counts and latencies
but take no part in the self-time accounting.

To add a wrapped callable, append a ``(target, span name, counter)`` row
to :data:`WRAPPED` and list ``<span name>_s`` / ``_n`` / ``_p50_ms``
(and any counter the row returns) under ``per_layer`` in
``BENCHMARK.json``; see ``bench/README.md``.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

NAME, START, END, PARENT, ROUND, DETACHED = range(6)


class Tracer:
    """In-memory span store; spans are recorded only inside a round."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        self._stack: List[int] = []
        self.round: Optional[int] = None

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, detached: bool = False) -> int:
        parent = self._stack[-1] if self._stack and not detached else -1
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.round, detached]
        )
        index = len(self.spans) - 1
        if not detached:
            self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        if not span[DETACHED]:
            self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counts[(self.round, key)] += amount

    def wrap(
        self, func: Callable, name: str, counter: Optional[Callable]
    ) -> Callable:
        """``func`` recorded as span ``name``; ``counter(args, result)``
        returns ``{count name: amount}`` measured at the same boundary."""
        if asyncio.iscoroutinefunction(func):

            @functools.wraps(func)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                if self.round is None:
                    return await func(*args, **kwargs)
                index = self.begin(name, detached=True)
                try:
                    result = await func(*args, **kwargs)
                finally:
                    self.end(index)
                if counter is not None:
                    for key, amount in counter(args, result).items():
                        self.count(key, amount)
                return result

            return traced_async

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if self.round is None:
                return func(*args, **kwargs)
            index = self.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                for key, amount in counter(args, result).items():
                    self.count(key, amount)
            return result

        return traced

    def children_of_last(self, name: str, child: str) -> List[float]:
        """Durations, in start order, of the ``child`` spans directly
        under the most recent ``name`` span."""
        for index in range(len(self.spans) - 1, -1, -1):
            if self.spans[index][NAME] == name:
                return [
                    span[END] - span[START]
                    for span in self.spans[index + 1:]
                    if span[PARENT] == index and span[NAME] == child
                ]
        return []

    # -- aggregation ---------------------------------------------------------

    def summary(self, rounds: List[int]) -> "TraceSummary":
        return TraceSummary(self, set(rounds))

    def dump(self, path: str) -> None:
        """One JSON object per span, written once when the run ends."""
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "round": span[ROUND],
                            "detached": span[DETACHED],
                        }
                    )
                    + "\n"
                )


class TraceSummary:
    """Per-name totals over a set of rounds."""

    def __init__(self, tracer: Tracer, rounds: set) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, float] = defaultdict(float)
        child_s: Dict[int, float] = defaultdict(float)
        spans = tracer.spans
        for span in spans:
            if span[ROUND] in rounds and span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        for index, span in enumerate(spans):
            if span[ROUND] not in rounds:
                continue
            duration = span[END] - span[START]
            self.calls[span[NAME]] += 1
            self.durations[span[NAME]].append(duration)
            if not span[DETACHED]:
                self.self_s[span[NAME]] += duration - child_s[index]
        for (round_id, key), amount in tracer.counts.items():
            if round_id in rounds:
                self.counts[key] += amount

    def p50_ms(self, name: str) -> float:
        samples = self.durations.get(name)
        return statistics.median(samples) * 1e3 if samples else 0.0


# ---------------------------------------------------------------------------
# the fixed table of wrapped callables
# ---------------------------------------------------------------------------


def _rows(args: tuple, result: Any) -> Dict[str, float]:
    try:
        return {"stsparql.rows_n": len(result)}
    except TypeError:  # ASK / CONSTRUCT results have no length
        return {}


def _sciql_cells(args: tuple, result: Any) -> Dict[str, float]:
    """Cells of the array a SciQL UPDATE addressed (0 for plain SQL)."""
    db, sql = args[0], args[1]
    words = sql.split(None, 2)
    if len(words) > 1 and words[0].upper() == "UPDATE":
        if db.catalog.has_array(words[1]):
            return {"sciql.cells_n": db.catalog.array(words[1]).cell_count}
    return {}


def _probes(args: tuple, result: Any) -> Dict[str, float]:
    if result is None:  # spatial index disabled
        return {}
    sets = result if isinstance(result, list) else [result]
    return {
        "rtree.probes_n": len(sets),
        "rtree.candidates_n": sum(len(s) for s in sets),
    }


#: ``(module:qualified name, span name, counter or None)``.
WRAPPED: List[Tuple[str, str, Optional[Callable]]] = [
    ("repro.mdb.datavault.vault:DataVault.fetch", "vault.fetch", None),
    ("repro.ingest.harvest:Ingestor.ingest_file", "ingest.file", None),
    ("repro.ingest.harvest:Ingestor.materialize_array",
     "ingest.materialize", None),
    ("repro.mdb.database:Database.execute", "sciql.execute", _sciql_cells),
    ("repro.mdb.sciql:SciArray.tile_aggregate", "sciql.execute",
     lambda args, result: {"sciql.cells_n": args[0].cell_count}),
    ("repro.noa.chain:ProcessingChain.run_batch", "chain.batch", None),
    ("repro.geometry.gridpoly:cells_to_geometry", "geometry.vectorize",
     None),
    ("repro.noa.shapefile:write_shapefile", "chain.write_shapefile", None),
    ("repro.strabon.store:StrabonStore.load_graph", "store.bulk_emit",
     lambda args, result: {"store.triples_n": result}),
    ("repro.strabon.store:StrabonStore.spatial_candidates", "rtree.probe",
     _probes),
    ("repro.strabon.store:StrabonStore.spatial_candidates_batch",
     "rtree.probe", _probes),
    ("repro.strabon.stsparql.parser:parse_query", "stsparql.parse", None),
    ("repro.strabon.stsparql.parser:parse_update", "stsparql.parse", None),
    ("repro.strabon.store:StrabonStore.query", "stsparql.query", _rows),
    ("repro.strabon.store:StrabonStore.update", "stsparql.update",
     lambda args, result: {"stsparql.update_triples_n": result}),
    ("repro.noa.refinement:Refiner.apply", "refine.apply", None),
    ("repro.noa.mapping:FireMapBuilder.build", "map.build", None),
    ("repro.noa.mapping:FireMap.to_geojson", "map.geojson", None),
    ("repro.vo.catalog:ProductCatalog.search", "catalog.search", None),
    ("repro.mining.features:extract_patch_grid", "mining.extract",
     lambda args, result: {"mining.patches_n": len(result)}),
    ("repro.mining.classify:Classifier.predict", "mining.classify", None),
    ("repro.mining.annotate:SemanticAnnotator.annotate", "mining.annotate",
     lambda args, result: {"mining.annotation_triples_n": len(result)}),
    ("repro.mining.models:ModelStore.save", "models.save", None),
    ("repro.mining.models:ModelStore.load", "models.load", None),
    ("repro.mdb.storage.engine:StorageEngine.open", "storage.open",
     lambda args, result: {
         "storage.replayed_records_n": result.replayed_records
     }),
    ("repro.mdb.storage.engine:StorageEngine.checkpoint",
     "storage.checkpoint", None),
    ("repro.mdb.storage.engine:StorageEngine.sync", "storage.sync", None),
    ("os:fsync", "storage.fsync", None),
    ("repro.mdb.datavault.broker:SceneCatalog.bulk_register",
     "broker.register",
     lambda args, result: {"broker.scenes_n": result}),
    ("repro.mdb.datavault.broker:SceneCatalog.count_subtree",
     "broker.subtree_count", None),
    ("repro.mdb.datavault.broker:SceneCatalog.scenes_in_window",
     "broker.window", None),
    ("repro.mdb.datavault.broker:SceneCatalog.mission_report",
     "broker.report", None),
    ("repro.server.service:QueryServer.submit", "server.page", None),
    # The one non-public row: the quantum is the server's only
    # synchronous boundary, and without it every served query's work
    # would be unattributed.
    ("repro.server.service:QueryServer._run_quantum", "server.quantum",
     None),
    ("repro.server.continuations:encode_token", "server.token",
     lambda args, result: {"server.token_bytes_n": len(result)}),
    ("repro.server.continuations:decode_token", "server.token", None),
    ("repro.strabon.stsparql.iterators:restore_pipeline", "server.token",
     None),
]


def install(tracer: Tracer) -> None:
    """Rebind every :data:`WRAPPED` target to its recording wrapper.

    A method is replaced on its class.  A module-level function is
    replaced in every loaded module that holds a reference to it, because
    ``from x import f`` copies the binding.
    """
    for target, span_name, counter in WRAPPED:
        module_name, _, qualified = target.partition(":")
        module = importlib.import_module(module_name)
        owner_path, _, attr = qualified.rpartition(".")
        if owner_path:
            owner = getattr(module, owner_path)
            setattr(
                owner, attr,
                tracer.wrap(getattr(owner, attr), span_name, counter),
            )
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(original, span_name, counter)
        for loaded in list(sys.modules.values()):
            for key, value in list(getattr(loaded, "__dict__", {}).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
