"""Differential runners: optimised variants vs oracle, vs each other.

``run_case(domain, spec)`` executes one spec every way the engine can
execute it and returns ``None`` on agreement or a human-readable
divergence description.  ``sweep`` generates seeded cases round-robin
across domains inside a time budget, shrinking any divergence to a
locally minimal, replayable counterexample.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels, obs
from repro.geometry import RTree, from_wkt
from repro.mdb import Database
from repro.server import decode_token, encode_token
from repro.strabon import StrabonStore
from repro.strabon.stsparql.iterators import (
    build_select_pipeline,
    restore_pipeline,
)
from repro.strabon.stsparql.parser import parse_query
from repro.testkit import oracles
from repro.testkit.generators import SPEC_DOMAINS, case_seed, gen_spec

#: Default sweep schedule.  The chain domain is an order of magnitude
#: slower per case than the in-memory domains, so it runs once per
#: ten cases.
DOMAINS = (
    "spatial",
    "stsparql",
    "sciql",
    "storage",
    "mining",
    "spatial",
    "stsparql",
    "sciql",
    "storage",
    "mining",
    "chain",
)

PREFIXES = (
    "PREFIX ex: <http://example.org/>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)


@dataclass
class Counterexample:
    """A diverging case: the raw spec and its shrunk minimal form."""

    domain: str
    seed: Optional[int]
    spec: Dict[str, Any]
    detail: str
    shrunk_spec: Optional[Dict[str, Any]] = None
    shrunk_detail: Optional[str] = None

    def format(self) -> str:
        lines = [
            f"REPRO_TESTKIT_SEED={self.seed if self.seed is not None else '-'}"
            f" domain={self.domain}",
            f"divergence: {self.detail}",
        ]
        if self.shrunk_spec is not None:
            lines.append(
                "shrunk spec: " + json.dumps(self.shrunk_spec, sort_keys=True)
            )
            if self.shrunk_detail:
                lines.append(f"shrunk divergence: {self.shrunk_detail}")
        lines.append(
            "full spec: " + json.dumps(self.spec, sort_keys=True)
        )
        if self.seed is not None:
            lines.append(
                "replay: PYTHONPATH=src python -m repro.testkit replay "
                f"--domain {self.domain} --seed {self.seed}"
            )
        return "\n".join(lines)


def _outcome(fn: Callable[[], Any]) -> Tuple[str, Any]:
    """Run a variant; engines must agree on results *and* on errors."""
    try:
        return ("rows", fn())
    except Exception as exc:  # noqa: BLE001 — compared, not swallowed
        return ("error", type(exc).__name__)


# -- spatial -------------------------------------------------------------------


def _compare_spatial(entries, probes, trees, phase: str) -> Optional[str]:
    expected = [
        sorted(oracles.naive_spatial_query(entries, probe))
        for probe in probes
    ]
    for label, tree in trees:
        for j, probe in enumerate(probes):
            got = sorted(tree.query(probe))
            if got != expected[j]:
                return (
                    f"{phase}/{label} query probe {j}: "
                    f"{got} != oracle {expected[j]}"
                )
        for workers in (1, 3):
            batched = tree.query_batch(probes, workers=workers)
            for j, got in enumerate(batched):
                if sorted(got) != expected[j]:
                    return (
                        f"{phase}/{label} query_batch(workers={workers}) "
                        f"probe {j}: {sorted(got)} != oracle {expected[j]}"
                    )
    return None


def _check_spatial(spec: Dict[str, Any]) -> Optional[str]:
    geoms = [from_wkt(text) for text in spec["geometries"]]
    entries = [(g.envelope, i) for i, g in enumerate(geoms)]
    probes = [from_wkt(text).envelope for text in spec["probes"]]

    tree = RTree(max_entries=4)
    half = (len(entries) + 1) // 2
    for env, item in entries[:half]:
        tree.insert(env, item)
    if probes:
        # Prime the packed snapshot so later inserts must invalidate it.
        tree.query_batch(probes, workers=1)
    for env, item in entries[half:]:
        tree.insert(env, item)

    bulk = RTree.bulk_load(entries, max_entries=4)
    detail = _compare_spatial(
        entries, probes, [("incremental", tree), ("bulk", bulk)], "grown"
    )
    if detail:
        return detail

    removed = set(spec["removals"])
    if probes:
        tree.query_batch(probes, workers=1)  # re-prime before removals
    for index in sorted(removed):
        tree.remove(entries[index][0], index)
    live = [(env, item) for env, item in entries if item not in removed]
    rebuilt = RTree.bulk_load(live, max_entries=4)
    return _compare_spatial(
        live, probes, [("incremental", tree), ("rebuilt", rebuilt)], "shrunk"
    )


# -- stSPARQL ------------------------------------------------------------------


def _render_term(term: Sequence[Any]) -> str:
    tag, value = term[0], term[1]
    if tag == "u":
        return f"ex:{value}"
    if tag == "i":
        return str(value)
    if tag == "w":
        return f'"{value}"^^strdf:WKT'
    if tag == "v":
        return f"?{value}"
    raise ValueError(f"unknown term tag {tag!r}")


def _render_condition(filter_spec: Dict[str, Any]) -> str:
    """One FILTER condition: a comparison, a spatial predicate call
    (possibly negated) or a distance comparison; the second spatial
    operand is a constant (``wkt``) or a variable (``other``)."""
    var = f"?{filter_spec['var']}"
    if filter_spec["kind"] == "cmp":
        return f"{var} {filter_spec['op']} {filter_spec['value']}"
    if "other" in filter_spec:
        other = f"?{filter_spec['other']}"
    else:
        other = f'"{filter_spec["wkt"]}"^^strdf:WKT'
    if filter_spec["kind"] == "dist":
        call = f"strdf:distance({var}, {other})"
        op, bound = filter_spec["op"], filter_spec["bound"]
        if filter_spec.get("flip"):
            # Mirror the comparison (bound on the left) without
            # changing its meaning.
            mirrored = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            return f"{bound} {mirrored[op]} {call}"
        return f"{call} {op} {bound}"
    args = f"{other}, {var}" if filter_spec.get("flip") else f"{var}, {other}"
    call = f"strdf:{filter_spec['pred']}({args})"
    return f"!{call}" if filter_spec.get("negate") else call


def render_query(spec: Dict[str, Any]) -> Tuple[str, List[str]]:
    """The stSPARQL text of a query spec and its projected variables."""
    optional = spec.get("optional")
    variables = sorted(
        {
            term[1]
            for pattern in spec["patterns"] + ([optional] if optional else [])
            for term in pattern
            if term[0] == "v"
        }
    )
    body = " . ".join(
        " ".join(_render_term(term) for term in pattern)
        for pattern in spec["patterns"]
    )
    filter_spec = spec.get("filter")
    if filter_spec:
        condition = _render_condition(filter_spec)
        if filter_spec.get("or"):
            condition += " || " + _render_condition(filter_spec["or"])
        body += f" . FILTER({condition})"
    if optional:
        body += (
            " OPTIONAL { "
            + " ".join(_render_term(term) for term in optional)
            + " }"
        )
    select = "SELECT DISTINCT" if spec["distinct"] else "SELECT"
    projection = " ".join(f"?{name}" for name in variables)
    return (
        f"{PREFIXES}{select} {projection} WHERE {{ {body} }}",
        variables,
    )


def _store_rows(
    store: StrabonStore, query: str, variables: Sequence[str]
) -> List[Tuple[Optional[str], ...]]:
    result = store.query(query)
    order = [result.variables.index(name) for name in variables]
    rows = [
        tuple(
            row[i].n3() if row[i] is not None else None for i in order
        )
        for row in result.rows()
    ]
    return sorted(rows, key=lambda r: tuple(x or "" for x in r))


def _pipeline_rows(
    store: StrabonStore,
    query: str,
    variables: Sequence[str],
    block_rows: int,
) -> List[Tuple[Optional[str], ...]]:
    """Rows via the preemptable pipeline (repro.server path) in its
    worst-case preemption shape: the join's blocks aim at ``block_rows``
    rows, and after *every* pulled solution the pipeline is suspended
    exactly as the serving tier does between quanta — drain the rest of
    the top block, save, and carry the state through a continuation
    token (encode → decode → rebuild → restore).  A 1-row block makes
    every solution a true suspension boundary; a 2-row block suspends
    inside a block, so each suspension drains a row the join already
    judged.  Both must reproduce the one-shot solutions with none lost
    and none duplicated.
    """
    parsed = parse_query(query)
    pipe = build_select_pipeline(parsed, store, batch_rows=block_rows)
    if pipe is None:  # not streamable: the server falls back to one-shot
        return _store_rows(store, query, variables)
    solutions = []
    while True:
        sol = pipe.next()
        if sol is None:
            break
        solutions.append(sol)
        solutions.extend(pipe.drain())
        token = encode_token(query, store.version, pipe.save())
        text, _version, state = decode_token(token)
        pipe = restore_pipeline(
            parse_query(text), store, state, batch_rows=block_rows
        )
    rows = [
        tuple(
            sol[v].n3() if sol.get(v) is not None else None
            for v in variables
        )
        for sol in solutions
    ]
    return sorted(rows, key=lambda r: tuple(x or "" for x in r))


def _check_stsparql(spec: Dict[str, Any]) -> Optional[str]:
    # An RDF graph is a set of triples: duplicates in the spec are a
    # no-op for the store and must be a no-op for the oracle too.
    triples = list(dict.fromkeys(oracles.triples_from_json(spec["triples"])))
    extra = [
        triple
        for triple in dict.fromkeys(
            oracles.triples_from_json(spec["extra_triples"])
        )
        if triple not in triples
    ]
    patterns = [
        tuple(oracles.term_from_json(term) for term in pattern)
        for pattern in spec["patterns"]
    ]
    query, variables = render_query(spec)

    def oracle(triple_set):
        return _outcome(
            lambda: oracles.naive_bgp_rows(
                triple_set,
                patterns,
                spec.get("filter"),
                variables,
                spec["distinct"],
                optional=(
                    tuple(map(oracles.term_from_json, spec["optional"]))
                    if spec.get("optional")
                    else None
                ),
            )
        )

    def fresh_store(use_spatial_index=True, bulk=False, triple_set=triples):
        store = StrabonStore(use_spatial_index=use_spatial_index)
        if bulk:
            with store.bulk():
                for triple in triple_set:
                    store.add(triple)
        else:
            for triple in triple_set:
                store.add(triple)
        return store

    store = fresh_store()

    def with_workers(n: int):
        previous = os.environ.get("REPRO_WORKERS")
        os.environ["REPRO_WORKERS"] = str(n)
        try:
            return _store_rows(store, query, variables)
        finally:
            if previous is None:
                del os.environ["REPRO_WORKERS"]
            else:
                os.environ["REPRO_WORKERS"] = previous

    def with_per_row_filters():
        previous = kernels.FILTER_BATCH_MIN_SOLUTIONS
        kernels.FILTER_BATCH_MIN_SOLUTIONS = sys.maxsize
        try:
            return _store_rows(store, query, variables)
        finally:
            kernels.FILTER_BATCH_MIN_SOLUTIONS = previous

    def with_obs_flipped():
        registry = obs.get_registry()
        previous = registry.enabled
        registry.set_enabled(not previous)
        try:
            return _store_rows(store, query, variables)
        finally:
            registry.set_enabled(previous)

    expected = oracle(triples)
    variants = [
        ("cold", lambda: _store_rows(store, query, variables)),
        ("warm-plan-cache", lambda: _store_rows(store, query, variables)),
        (
            "plan-cache-cleared",
            lambda: (
                store.plan_cache.clear(),
                _store_rows(store, query, variables),
            )[1],
        ),
        (
            "no-spatial-index",
            lambda: _store_rows(
                fresh_store(use_spatial_index=False), query, variables
            ),
        ),
        (
            "bulk-loaded",
            lambda: _store_rows(fresh_store(bulk=True), query, variables),
        ),
        ("workers-4", lambda: with_workers(4)),
        ("obs-flipped", with_obs_flipped),
        ("per-row-filters", with_per_row_filters),
        (
            "pipeline-suspend-every-row",
            lambda: _pipeline_rows(store, query, variables, 1),
        ),
        (
            "pipeline-suspend-and-drain",
            lambda: _pipeline_rows(store, query, variables, 2),
        ),
    ]
    for label, variant in variants:
        got = _outcome(variant)
        if got != expected:
            return f"{label}: {got} != oracle {expected}"

    if extra:
        # Incremental maintenance: same store after more adds must match
        # both the oracle and a store freshly loaded with everything.
        for triple in extra:
            store.add(triple)
        expected = oracle(triples + extra)
        for label, variant in [
            ("incremental", lambda: _store_rows(store, query, variables)),
            (
                "fresh-full",
                lambda: _store_rows(
                    fresh_store(triple_set=triples + extra), query, variables
                ),
            ),
            (
                "pipeline-suspend-every-row",
                lambda: _pipeline_rows(store, query, variables, 1),
            ),
        ]:
            got = _outcome(variant)
            if got != expected:
                return f"after-extra/{label}: {got} != oracle {expected}"

    # Removal maintenance: drop one subject's triples and the indexes
    # (triple indexes, R-tree, interner) must all shed them.
    everything = triples + extra
    if everything:
        victim = everything[0][0]
        store.remove((victim, None, None))
        remaining = [t for t in everything if t[0] != victim]
        expected = oracle(remaining)
        for label, variant in [
            ("incremental", lambda: _store_rows(store, query, variables)),
            (
                "fresh-remaining",
                lambda: _store_rows(
                    fresh_store(triple_set=remaining), query, variables
                ),
            ),
        ]:
            got = _outcome(variant)
            if got != expected:
                return f"after-remove/{label}: {got} != oracle {expected}"
    return None


# -- SciQL ---------------------------------------------------------------------


def _sciql_engine_run(spec: Dict[str, Any], workers: int) -> Tuple[str, Any]:
    db = Database()
    height, width = spec["shape"]
    ctype = "DOUBLE" if spec["dtype"] == "float" else "INT"
    db.execute(
        f"CREATE ARRAY a (x INT DIMENSION [0:{height}], "
        f"y INT DIMENSION [0:{width}], v {ctype} DEFAULT 0)"
    )
    array = db.array("a")
    array.set_attribute(
        "v", np.asarray(spec["cells"], dtype=array.attribute("v").dtype)
    )
    for op in spec["program"]:
        name = op["op"]
        if name == "update":
            add = op["add"]
            tail = f" + {add}" if add >= 0 else f" - {-add}"
            set_dim = op.get("set_dim")
            if set_dim:
                tail += f" + {set_dim}"
            where = f"{op['dim']} {op['cmp']} {op['bound']}"
            extra = op.get("extra")
            if extra is not None:
                if extra["kind"] == "in":
                    values = ", ".join(str(v) for v in extra["values"])
                    verb = "NOT IN" if extra["negated"] else "IN"
                    where = f"({where}) AND {extra['dim']} {verb} ({values})"
                elif extra["kind"] == "between":
                    where = (
                        f"({where}) AND {extra['dim']} "
                        f"BETWEEN {extra['lo']} AND {extra['hi']}"
                    )
                elif extra["kind"] == "fn_cmp":
                    where = (
                        f"({where}) OR {extra['fn']}(v) "
                        f"{extra['op']} {extra['value']}"
                    )
                else:
                    where = f"({where}) OR v {extra['op']} {extra['value']}"
            db.execute(
                f"UPDATE a SET v = v * {op['mul']}{tail} WHERE {where}"
            )
            array = db.array("a")
        elif name == "slice":
            array = array.slice(x=tuple(op["x"]), y=tuple(op["y"]))
        elif name == "map":
            mul, add = op["mul"], op["add"]
            array.map(lambda plane: plane * mul + add, workers=workers)
        elif name == "tile":
            array = array.tile_aggregate(
                op["t"], op["func"], workers=workers
            )
        elif name == "count":
            gt = op["gt"]
            return (
                "count",
                array.count_where(lambda plane: plane > gt, workers=workers),
            )
        elif name == "select":
            exprs = {
                "v": "v",
                "abs": "abs(v)",
                "floor": "floor(v)",
                "ceil": "ceil(v)",
                "sqrt_abs": "sqrt(abs(v))",
                "pow2": "power(v, 2)",
            }
            result = db.execute(
                f"SELECT x, y, {exprs[op['expr']]} AS e FROM a "
                f"WHERE v > {op['gt']}"
            )
            return (
                "rows",
                sorted(
                    tuple(float(cell) for cell in row)
                    for row in result.rows()
                ),
            )
        else:
            raise ValueError(f"unknown sciql op {name!r}")
    return ("cells", array.attribute("v").tolist())


def _check_sciql(spec: Dict[str, Any]) -> Optional[str]:
    expected = _outcome(lambda: oracles.naive_sciql_run(spec))
    for label, variant in [
        ("serial", lambda: _sciql_engine_run(spec, workers=1)),
        ("tiled-4", lambda: _sciql_engine_run(spec, workers=4)),
    ]:
        got = _outcome(variant)
        if got != expected:
            return f"{label}: {got} != oracle {expected}"
    return None


# -- NOA chain -----------------------------------------------------------------


def _chain_summarize(results) -> List[Any]:
    from repro.noa import ChainResult

    summary = []
    for result in results:
        if not isinstance(result, ChainResult):
            summary.append(("failure", str(result)))
            continue
        summary.append(
            (
                result.source_product.product_id,
                [
                    (
                        hotspot.geometry.wkt,
                        round(hotspot.confidence, 12),
                        hotspot.pixel_count,
                    )
                    for hotspot in result.hotspots
                ],
            )
        )
    return summary


def _check_chain(spec: Dict[str, Any]) -> Optional[str]:
    from repro import faults
    from repro.eo import (
        GreeceLikeWorld,
        SceneSpec,
        generate_scene,
        write_scene,
    )
    from repro.ingest import Ingestor
    from repro.noa import ProcessingChain

    world = GreeceLikeWorld()
    fire_seeds = [(21.63, 37.7), (22.5, 38.5), (23.4, 38.05)]

    def fresh_chain():
        return ProcessingChain(
            Ingestor(Database(), StrabonStore()), classifier="static"
        )

    with tempfile.TemporaryDirectory(prefix="repro-testkit-") as tmp:
        paths = []
        for k, scene_spec in enumerate(spec["scenes"]):
            scene = generate_scene(
                SceneSpec(
                    width=scene_spec["width"],
                    height=scene_spec["height"],
                    seed=scene_spec["seed"],
                    n_fires=scene_spec["n_fires"],
                    n_glints=scene_spec["n_glints"],
                ),
                world.land,
                fire_seeds=fire_seeds,
            )
            path = os.path.join(tmp, f"scene_{k:03d}.nat")
            write_scene(scene, path)
            paths.append(path)

        baseline_chain = fresh_chain()
        baseline = baseline_chain.run_batch(paths, workers=1)

        chaos_chain = fresh_chain()
        with faults.injected(spec["faults"]):
            chaos = chaos_chain.run_batch(
                paths, workers=spec["workers"]
            )

    base_summary = _chain_summarize(baseline)
    chaos_summary = _chain_summarize(chaos)
    if base_summary != chaos_summary:
        diff = oracles.first_difference(base_summary, chaos_summary)
        return f"chaos batch != fault-free baseline: {diff}"
    base_rdf = set(baseline_chain.ingestor.store.triples())
    chaos_rdf = set(chaos_chain.ingestor.store.triples())
    if base_rdf != chaos_rdf:
        return (
            "RDF stores differ: "
            f"{len(base_rdf ^ chaos_rdf)} triples in symmetric difference"
        )
    return None


# -- mining: SciQL patch features + classifiers vs pure-python oracle ----------


def _mining_grid(blocks, patch: int, name: str, workers: int):
    """Engine-side patch grid of blocks stacked into one SciQL array."""
    from repro.mdb.sciql import Dimension, SciArray
    from repro.mdb.types import DOUBLE
    from repro.mining.features import extract_patch_grid

    t039 = np.asarray(
        [row for block in blocks for row in block["t039"]],
        dtype=np.float64,
    )
    t108 = np.asarray(
        [row for block in blocks for row in block["t108"]],
        dtype=np.float64,
    )
    h, w = t039.shape
    array = SciArray(
        name,
        [Dimension("row", 0, h), Dimension("col", 0, w)],
        [("t039", DOUBLE), ("t108", DOUBLE)],
    )
    array.set_attribute("t039", t039)
    array.set_attribute("t108", t108)
    # Unit-degree pixels: the patch footprints come out on exact floats.
    window = (0.0, 0.0, float(w), float(h))
    return extract_patch_grid(
        array, window, patch_size=patch, workers=workers
    )


def _check_mining(spec: Dict[str, Any]) -> Optional[str]:
    from datetime import datetime, timedelta

    from repro.eo.products import ProcessingLevel, Product
    from repro.geometry import Envelope, Polygon
    from repro.mining.annotate import SemanticAnnotator
    from repro.mining.classify import (
        KNNClassifier,
        NearestCentroidClassifier,
        classifier_from_state,
    )
    from repro.mining.queries import annotations_valid_during
    from repro.rdf import URIRef

    patch = spec["patch"]
    oracle_train = oracles.naive_mining_features(spec["train"], patch)
    oracle_test = oracles.naive_mining_features(spec["test"], patch)

    # (1) feature extraction: serial and on 4 workers, both must
    # reproduce the pure-python features bit for bit.
    grids: Dict[str, Any] = {}
    for label, workers in [("serial", 1), ("workers-4", 4)]:
        train_grid = _mining_grid(
            spec["train"], patch, "mining_case_train", workers
        )
        test_grid = _mining_grid(
            spec["test"], patch, "mining_case_test", workers
        )
        grids[label] = (train_grid, test_grid)
        for split, grid, expected in [
            ("train", train_grid, oracle_train),
            ("test", test_grid, oracle_test),
        ]:
            got = grid.feature_matrix().tolist()
            if got != expected:
                diff = oracles.first_difference(got, expected)
                return f"{label}/{split} features != oracle: {diff}"

    # (2) classification: numpy classifier vs the mirrored pure-python
    # oracle, plus a JSON state round trip (what ModelStore persists).
    train_grid, test_grid = grids["serial"]
    train_labels = [block["label"] for block in spec["train"]]
    clf = (
        KNNClassifier(1)
        if spec["classifier"] == "knn1"
        else NearestCentroidClassifier()
    )
    clf.fit(train_grid.feature_matrix(), train_labels)
    engine_labels = clf.predict(test_grid.feature_matrix())
    oracle_labels = oracles.naive_mining_classify(
        oracle_train, train_labels, oracle_test, spec["classifier"]
    )
    if engine_labels != oracle_labels:
        diff = oracles.first_difference(engine_labels, oracle_labels)
        return f"classifier labels != oracle: {diff}"
    restored = classifier_from_state(
        json.loads(json.dumps(clf.to_state(), sort_keys=True))
    )
    replayed = restored.predict(test_grid.feature_matrix())
    if replayed != engine_labels:
        diff = oracles.first_difference(replayed, engine_labels)
        return f"state round-trip changed labels: {diff}"

    # (3) annotation + stRDF valid time: every annotated patch must be
    # found by a containing strdf:during window (offset 0) and none by a
    # disjoint one (offset 30).
    acquired = datetime(2007, 8, 25, 12, 0)
    h = len(spec["test"]) * patch
    product = Product(
        "mining_case",
        "MSG",
        "SEVIRI",
        ProcessingLevel.L1_CALIBRATED,
        acquired,
        Polygon.from_envelope(Envelope(0.0, 0.0, patch, h), srid=4326),
        path="mining_case.nat",
    )
    concept_map = {
        label: URIRef(oracles.EX + label) for label in set(train_labels)
    }
    annotator = SemanticAnnotator(clf, concept_map=concept_map)
    store = StrabonStore()
    store.load_graph(annotator.annotate(product, test_grid, engine_labels))
    offset = spec["offset_min"]
    if offset == 0:
        start = acquired - timedelta(minutes=1)
        end = acquired + annotator.validity + timedelta(minutes=1)
    else:
        start = acquired + timedelta(minutes=offset)
        end = start + annotator.validity
    for label in sorted(set(engine_labels)):
        rows = list(
            store.query(
                annotations_valid_during(oracles.EX + label, start, end)
            ).rows()
        )
        expected_n = engine_labels.count(label) if offset == 0 else 0
        if len(rows) != expected_n:
            return (
                f"valid-time query for {label!r} offset={offset}: "
                f"{len(rows)} rows != expected {expected_n}"
            )
    return None


# -- storage: durable engine vs in-memory oracle -------------------------------

_STORAGE_SCHEMA = "(id INT, name STRING, v DOUBLE)"


def storage_apply(db: Database, op: Dict[str, Any]) -> None:
    """Apply one storage-schedule op to a database (oracle or durable).

    ``reload`` and ``checkpoint`` are engine-level and handled by the
    caller; everything else is plain DML/DDL so the in-memory oracle and
    the journaled database execute byte-identical logical operations.
    """
    kind = op["op"]
    table = op.get("table")
    if kind == "create":
        db.execute(f"CREATE TABLE {table} {_STORAGE_SCHEMA}")
    elif kind == "drop":
        db.execute(f"DROP TABLE {table}")
    elif kind == "insert":
        db.insert_rows(table, [tuple(r) for r in op["rows"]])
    elif kind == "bulk":
        base, count = op["base"], op["count"]
        db.insert_columns(
            table,
            {
                "id": list(range(base, base + count)),
                "name": [f"b{i}" for i in range(base, base + count)],
                "v": [
                    (i % 64) * 0.25 for i in range(base, base + count)
                ],
            },
        )
    elif kind == "update":
        db.execute(
            f"UPDATE {op['table']} SET v = v + {op['add']} "
            f"WHERE id > {op['bound']}"
        )
    elif kind == "delete":
        db.execute(
            f"DELETE FROM {op['table']} WHERE id < {op['bound']}"
        )
    elif kind not in ("reload", "checkpoint"):
        raise ValueError(f"unknown storage op {kind!r}")


def _check_storage(spec: Dict[str, Any]) -> Optional[str]:
    from repro import faults
    from repro.mdb.storage import open_database

    oracle = Database()
    with tempfile.TemporaryDirectory(prefix="repro-testkit-") as tmp:
        data_dir = os.path.join(tmp, "data")
        engine = open_database(data_dir)
        plan = faults.parse_spec(spec.get("faults"))
        previous = faults.install(plan) if plan else None
        try:
            for k, op in enumerate(spec["program"]):
                if op["op"] == "reload":
                    engine.close()
                    engine = open_database(data_dir)
                elif op["op"] == "checkpoint":
                    engine.checkpoint()
                else:
                    storage_apply(oracle, op)
                    storage_apply(engine.db, op)
                if op["op"] == "reload":
                    diff = _storage_diff(oracle, engine.db)
                    if diff:
                        return f"after reload at op {k}: {diff}"
        finally:
            if plan:
                faults.install(previous)
            engine.close()
        engine = open_database(data_dir)
        diff = _storage_diff(oracle, engine.db)
        engine.close()
        if diff:
            return f"after final recovery: {diff}"
    return None


def _storage_diff(oracle: Database, durable: Database) -> Optional[str]:
    a = oracles.database_state(oracle)
    b = oracles.database_state(durable)
    if a == b:
        return None
    if sorted(a) != sorted(b):
        return f"table sets differ: {sorted(a)} != {sorted(b)}"
    for name in sorted(a):
        if a[name]["schema"] != b[name]["schema"]:
            return f"schema of {name!r} differs"
        if a[name]["rows"] != b[name]["rows"]:
            diff = oracles.first_difference(
                a[name]["rows"], b[name]["rows"]
            )
            return f"rows of {name!r} differ: {diff}"
    return "states differ"


_CHECKS = {
    "spatial": _check_spatial,
    "stsparql": _check_stsparql,
    "sciql": _check_sciql,
    "chain": _check_chain,
    "storage": _check_storage,
    "mining": _check_mining,
}


def run_case(domain: str, spec: Dict[str, Any]) -> Optional[str]:
    """Run one differential case; ``None`` means every variant agreed."""
    try:
        check = _CHECKS[domain]
    except KeyError:
        raise ValueError(
            f"unknown domain {domain!r}; expected one of {SPEC_DOMAINS}"
        ) from None
    return check(spec)


@dataclass
class SweepReport:
    """Outcome of a seeded sweep."""

    base_seed: int
    cases_run: int = 0
    elapsed: float = 0.0
    counterexamples: List[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def sweep(
    base_seed: int,
    budget_seconds: float = 60.0,
    domains: Optional[Sequence[str]] = None,
    max_cases: Optional[int] = None,
    do_shrink: bool = True,
    stop_on_first: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Run seeded differential cases until the time budget runs out.

    Case ``i`` uses domain ``schedule[i % len]`` and seed
    ``case_seed(base_seed, i)``, so a sweep is fully reproducible from
    its base seed, and any single case can be replayed in isolation.
    """
    from repro.testkit.shrink import shrink

    schedule = tuple(domains) if domains else DOMAINS
    report = SweepReport(base_seed=base_seed)
    started = time.monotonic()
    index = 0
    while time.monotonic() - started < budget_seconds:
        if max_cases is not None and index >= max_cases:
            break
        domain = schedule[index % len(schedule)]
        seed = case_seed(base_seed, index)
        spec = gen_spec(domain, seed)
        detail = run_case(domain, spec)
        report.cases_run += 1
        if detail is not None:
            counterexample = Counterexample(
                domain=domain, seed=seed, spec=spec, detail=detail
            )
            if do_shrink:
                shrunk, shrunk_detail = shrink(domain, spec)
                counterexample.shrunk_spec = shrunk
                counterexample.shrunk_detail = shrunk_detail
            report.counterexamples.append(counterexample)
            if log:
                log(counterexample.format())
            if stop_on_first:
                break
        elif log and report.cases_run % 50 == 0:
            log(
                f"... {report.cases_run} cases, no divergence "
                f"({time.monotonic() - started:.1f}s)"
            )
        index += 1
    report.elapsed = time.monotonic() - started
    return report
