"""Seeded, deterministic input generators.

Every generator takes a :class:`random.Random` (or a seed) and produces
either a geometry object or a JSON-able *spec* — a plain dict fully
describing one differential test case.  The same seed always yields the
same spec, so any counterexample is replayable from its seed alone, and
the shrinker can operate on the spec without re-running the generator.

Coordinates are drawn from a dyadic grid (multiples of 0.25) so WKT
serialisation round-trips exactly and floating-point sums in the SciQL
oracle are exact, removing the need for tolerances anywhere in the
differential comparisons.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence

from repro.geometry import (
    Geometry,
    GeometryError,
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    to_wkt,
)

#: Domains understood by :func:`gen_spec`.
SPEC_DOMAINS = (
    "spatial",
    "stsparql",
    "sciql",
    "chain",
    "storage",
    "mining",
)

_SEED_MIX = 0x9E3779B97F4A7C15


def case_seed(base_seed: int, index: int) -> int:
    """Derive the seed of sweep case ``index`` from a base seed.

    A splitmix-style mix keeps neighbouring indices uncorrelated while
    staying a pure function of ``(base_seed, index)``.
    """
    x = (base_seed * 1_000_003 + index * _SEED_MIX) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    return x & 0x7FFFFFFF


def _grid(rng: random.Random, lo: float = -8.0, hi: float = 8.0) -> float:
    """A coordinate on the quarter-unit grid (exact in binary)."""
    steps = int((hi - lo) * 4)
    return lo + rng.randint(0, steps) * 0.25


def _gen_point(rng: random.Random) -> Point:
    return Point(_grid(rng), _grid(rng))


def _gen_linestring(rng: random.Random) -> LineString:
    """A polyline; sometimes degenerate linework (repeated/collinear
    vertices) that exercises the constructor's cleaning rules."""
    n = rng.randint(2, 6)
    coords = [(_grid(rng), _grid(rng)) for _ in range(n)]
    if rng.random() < 0.3 and len(coords) >= 2:
        # Duplicate a vertex in place: the constructor must clean it.
        i = rng.randrange(len(coords) - 1)
        coords.insert(i + 1, coords[i])
    if rng.random() < 0.2:
        # Collinear run.
        x, y = coords[0]
        coords[1:1] = [(x + 1.0, y), (x + 2.0, y)]
    try:
        return LineString(coords)
    except GeometryError:
        # Everything collapsed to one distinct vertex: stretch it out.
        x, y = coords[0]
        return LineString([(x, y), (x + 1.0, y)])


def _gen_rect(rng: random.Random, max_side: float = 6.0) -> Polygon:
    x0, y0 = _grid(rng), _grid(rng)
    w = 0.5 + rng.randint(0, int(max_side * 2)) * 0.5
    h = 0.5 + rng.randint(0, int(max_side * 2)) * 0.5
    return Polygon([(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)])


def _gen_polygon(rng: random.Random) -> Polygon:
    """A rectangle, an angle-sorted convex-ish ring, or a rectangle with
    a hole (a donut), whichever constructs cleanly."""
    shape = rng.random()
    if shape < 0.5:
        return _gen_rect(rng)
    if shape < 0.8:
        # Random CCW subset of an octagon template: always convex.
        cx, cy = _grid(rng, -4, 4), _grid(rng, -4, 4)
        octagon = [
            (2.0, 0.0), (1.5, 1.5), (0.0, 2.0), (-1.5, 1.5),
            (-2.0, 0.0), (-1.5, -1.5), (0.0, -2.0), (1.5, -1.5),
        ]
        picks = sorted(rng.sample(range(8), rng.randint(3, 8)))
        scale = rng.choice([0.5, 1.0, 1.5])
        pts = [
            (cx + octagon[i][0] * scale, cy + octagon[i][1] * scale)
            for i in picks
        ]
        try:
            return Polygon(pts)
        except GeometryError:
            return _gen_rect(rng)
    # Donut: shell with a strictly interior rectangular hole.
    x0, y0 = _grid(rng, -6, 4), _grid(rng, -6, 4)
    shell = [(x0, y0), (x0 + 4, y0), (x0 + 4, y0 + 4), (x0, y0 + 4)]
    hx, hy = x0 + 1, y0 + 1
    hole = [(hx, hy), (hx + 1.5, hy), (hx + 1.5, hy + 1.5), (hx, hy + 1.5)]
    try:
        return Polygon(shell, holes=[hole])
    except (GeometryError, TypeError):
        return Polygon(shell)


def gen_geometry(
    rng: random.Random, kinds: Optional[Sequence[str]] = None
) -> Geometry:
    """One random geometry.  ``kinds`` restricts the geometry types
    (point / linestring / polygon / multipoint / multilinestring /
    multipolygon / collection)."""
    kind = rng.choice(
        list(kinds)
        if kinds
        else [
            "point",
            "point",
            "linestring",
            "polygon",
            "polygon",
            "multipoint",
            "multilinestring",
            "multipolygon",
            "collection",
        ]
    )
    if kind == "point":
        return _gen_point(rng)
    if kind == "linestring":
        return _gen_linestring(rng)
    if kind == "polygon":
        return _gen_polygon(rng)
    if kind == "multipoint":
        return MultiPoint(
            [_gen_point(rng) for _ in range(rng.randint(1, 4))]
        )
    if kind == "multilinestring":
        return MultiLineString(
            [_gen_linestring(rng) for _ in range(rng.randint(1, 3))]
        )
    if kind == "multipolygon":
        return MultiPolygon(
            [_gen_rect(rng) for _ in range(rng.randint(1, 3))]
        )
    return GeometryCollection(
        [
            gen_geometry(rng, ["point", "linestring", "polygon"])
            for _ in range(rng.randint(1, 3))
        ]
    )


def gen_wkt(
    rng: random.Random, kinds: Optional[Sequence[str]] = None
) -> str:
    """WKT text of one random geometry."""
    return to_wkt(gen_geometry(rng, kinds))


# -- spatial (R-tree vs all-pairs scan) ----------------------------------------


def gen_spatial_spec(seed: int) -> Dict[str, Any]:
    """Indexed geometries, probe envelopes, and a removal schedule.

    The differential check inserts half, snapshots (via a batch query),
    inserts the rest, compares, then removes and compares again — the
    phase structure that catches stale-snapshot/invalidation bugs.
    """
    rng = random.Random(("spatial", seed).__repr__())
    n = rng.randint(2, 10)
    geometries = [
        gen_wkt(rng, ["point", "linestring", "polygon", "multipolygon"])
        for _ in range(n)
    ]
    probes = [
        gen_wkt(rng, ["polygon", "point"]) for _ in range(rng.randint(1, 5))
    ]
    k = rng.randint(0, min(3, n))
    removals = sorted(rng.sample(range(n), k))
    return {"geometries": geometries, "probes": probes, "removals": removals}


# -- stSPARQL (nested-loop BGP vs optimised evaluator) -------------------------

#: JSON term forms: ["u", local] URIRef, ["i", n] integer literal,
#: ["w", wkt] geometry literal, ["v", name] variable (patterns only).

_CLASSES = ("ClassA", "ClassB")
_CMP_OPS = ("<", "<=", ">", ">=", "=", "!=")
_SPATIAL_PREDS = (
    "intersects",
    "contains",
    "within",
    "touches",
    "overlaps",
    "equals",
    "disjoint",
)


def gen_stsparql_spec(seed: int) -> Dict[str, Any]:
    """A small stRDF graph plus one BGP/FILTER query, sometimes with an
    ``OPTIONAL { one pattern }`` tail.

    ``extra_triples`` are added *after* a first query round so the
    incremental index-maintenance path is differentially exercised too.
    """
    rng = random.Random(("stsparql", seed).__repr__())
    subjects = [f"s{i}" for i in range(rng.randint(2, 5))]

    def gen_triple() -> List[Any]:
        s = rng.choice(subjects)
        kind = rng.random()
        if kind < 0.4:
            return [["u", s], ["u", "geom"], ["w", gen_wkt(rng)]]
        if kind < 0.6:
            return [["u", s], ["u", "kind"], ["u", rng.choice(_CLASSES)]]
        if kind < 0.85:
            return [["u", s], ["u", "value"], ["i", rng.randint(0, 20)]]
        return [["u", s], ["u", "link"], ["u", rng.choice(subjects)]]

    triples = [gen_triple() for _ in range(rng.randint(3, 12))]
    extra = [gen_triple() for _ in range(rng.randint(0, 3))]

    templates = [
        [["v", "s"], ["u", "geom"], ["v", "g"]],
        [["v", "s"], ["u", "kind"], ["u", rng.choice(_CLASSES)]],
        [["v", "s"], ["u", "value"], ["v", "n"]],
        [["v", "s"], ["u", "link"], ["v", "o"]],
        [["v", "s"], ["v", "p"], ["v", "o"]],
    ]
    patterns = [rng.choice(templates) for _ in range(rng.randint(1, 3))]

    filter_spec: Optional[Dict[str, Any]] = None
    pattern_vars = {
        t[1]
        for p in patterns
        for t in p
        if t[0] == "v"
    }
    roll = rng.random()
    if roll < 0.3 and "g" in pattern_vars:
        filter_spec = {
            "kind": "spatial",
            "pred": rng.choice(_SPATIAL_PREDS),
            "var": "g",
            "wkt": gen_wkt(rng, ["polygon", "point"]),
            "flip": rng.random() < 0.3,
        }
    elif roll < 0.45 and "g" in pattern_vars:
        # strdf:distance(?g, const) compared against a dyadic bound —
        # the shape the batched spatial FILTER lane lowers.  ``flip``
        # mirrors the comparison (bound on the left) without changing
        # its meaning, covering the flipped lowering path.
        filter_spec = {
            "kind": "dist",
            "var": "g",
            "wkt": gen_wkt(rng, ["polygon", "point"]),
            "op": rng.choice(("<", "<=", ">", ">=")),
            "bound": rng.randint(0, 64) * 0.25,
            "flip": rng.random() < 0.4,
        }
    elif roll < 0.6 and "n" in pattern_vars:
        filter_spec = {
            "kind": "cmp",
            "var": "n",
            "op": rng.choice(_CMP_OPS),
            "value": rng.randint(0, 20),
        }
    if filter_spec is not None and filter_spec["kind"] != "cmp":
        _vary_spatial_filter(rng, filter_spec, patterns)
    distinct = rng.random() < 0.3
    # An OPTIONAL tail joins one pattern onto each solution with the
    # solution's variables bound: the seeded join, under every variant.
    optional = None
    if rng.random() < 0.4:
        optional = rng.choice(
            templates
            + [
                [["v", "o"], ["u", "kind"], ["v", "k"]],
                [["v", "s"], ["u", "geom"], ["v", "og"]],
            ]
        )
    return {
        "triples": triples,
        "extra_triples": extra,
        "patterns": patterns,
        "filter": filter_spec,
        "distinct": distinct,
        "optional": optional,
    }


def _vary_spatial_filter(
    rng: random.Random,
    filter_spec: Dict[str, Any],
    patterns: List[List[Any]],
) -> None:
    """Turn some spatial FILTERs into the shapes an R-tree hint must not
    narrow, and some into spatial joins, in place:

    * ``negate`` — ``!strdf:pred(...)``;
    * ``or`` — ``strdf:pred(...) || ?n OP v`` (the pattern binding ``?n``
      is added, so the right operand can rescue a row);
    * ``other`` — the second operand is the geometry variable of a
      second pattern ``?t ex:geom ?h`` instead of a constant, in either
      argument order.
    """
    roll = rng.random()
    if filter_spec["kind"] == "spatial":
        if roll < 0.25:
            filter_spec["negate"] = True
        elif roll < 0.4:
            filter_spec["or"] = {
                "kind": "cmp",
                "var": "n",
                "op": rng.choice(_CMP_OPS),
                "value": rng.randint(0, 20),
            }
            value_pattern = [["v", "s"], ["u", "value"], ["v", "n"]]
            if value_pattern not in patterns:
                patterns.append(value_pattern)
    if rng.random() < 0.3:
        del filter_spec["wkt"]
        filter_spec["var"], filter_spec["other"] = rng.choice(
            (("g", "h"), ("h", "g"))
        )
        patterns.append([["v", "t"], ["u", "geom"], ["v", "h"]])


# -- SciQL (tiled kernels vs pure-python cell loop) ----------------------------


def gen_sciql_spec(seed: int) -> Dict[str, Any]:
    """An array (explicit cells) plus a short kernel program.

    Float cells are multiples of 0.25 and stay small, so every sum in
    both the numpy kernels and the python oracle is exactly
    representable — results are compared with ``==``, no tolerance.
    """
    rng = random.Random(("sciql", seed).__repr__())
    h, w = rng.randint(2, 9), rng.randint(2, 9)
    dtype = rng.choice(["float", "int"])
    if dtype == "float":
        cells = [
            [rng.randint(-16, 16) * 0.25 for _ in range(w)]
            for _ in range(h)
        ]
    else:
        cells = [
            [rng.randint(-8, 8) for _ in range(w)] for _ in range(h)
        ]
    program: List[Dict[str, Any]] = []
    if rng.random() < 0.4:
        update: Dict[str, Any] = {
            "op": "update",
            "mul": rng.randint(1, 3),
            "add": rng.randint(-2, 2),
            "dim": rng.choice(["x", "y"]),
            "cmp": rng.choice(["=", ">", "<"]),
            "bound": rng.randint(0, 3),
        }
        # Optionally compose a richer WHERE clause / assignment so the
        # sweep exercises the SQL vector lanes: IN lists, BETWEEN
        # ranges, attribute predicates, dimension columns in the SET
        # expression.  Old specs without these keys stay valid.
        roll = rng.random()
        if roll < 0.2:
            update["extra"] = {
                "kind": "in",
                "dim": rng.choice(["x", "y"]),
                "values": sorted(
                    rng.sample(range(0, 9), rng.randint(1, 4))
                ),
                "negated": rng.random() < 0.5,
            }
        elif roll < 0.4:
            lo = rng.randint(0, 4)
            update["extra"] = {
                "kind": "between",
                "dim": rng.choice(["x", "y"]),
                "lo": lo,
                "hi": lo + rng.randint(0, 4),
            }
        elif roll < 0.6:
            update["extra"] = {
                "kind": "attr_cmp",
                "op": rng.choice([">", "<"]),
                "value": rng.randint(-4, 4),
            }
        elif roll < 0.75:
            # A scalar-function lane in the WHERE clause:
            # ``... OR fn(v) op value``.
            update["extra"] = {
                "kind": "fn_cmp",
                "fn": rng.choice(["abs", "floor", "ceil"]),
                "op": rng.choice([">", "<"]),
                "value": rng.randint(-4, 6),
            }
        if rng.random() < 0.3:
            update["set_dim"] = rng.choice(["x", "y"])
        program.append(update)
    ch, cw = h, w
    # A mean over a block whose size is not a power of two divides an
    # exact dyadic sum by e.g. 3 — from then on float cells are inexact
    # and summation *order* matters (python's left-to-right sum vs
    # numpy's unrolled reduction can differ in the last bit).  Once that
    # happens, only order-insensitive tile funcs keep == comparable.
    inexact = False
    if rng.random() < 0.3 and ch > 2 and cw > 2:
        x0 = rng.randint(0, ch - 2)
        y0 = rng.randint(0, cw - 2)
        program.append(
            {
                "op": "slice",
                "x": [x0, rng.randint(x0 + 2, ch)],
                "y": [y0, rng.randint(y0 + 2, cw)],
            }
        )
        x = program[-1]
        ch, cw = x["x"][1] - x["x"][0], x["y"][1] - x["y"][0]
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.55:
            program.append(
                {
                    "op": "map",
                    "mul": rng.randint(-3, 3),
                    "add": rng.randint(-8, 8) * 0.25
                    if dtype == "float"
                    else rng.randint(-4, 4),
                }
            )
        elif roll < 0.85:
            th = rng.randint(1, ch)
            tw = rng.randint(1, cw)
            funcs = (
                ["min", "max"]
                if inexact
                else ["mean", "sum", "min", "max"]
            )
            func = rng.choice(funcs)
            if (
                dtype == "float"
                and func == "mean"
                and (th * tw) & (th * tw - 1) != 0
            ):
                inexact = True
            program.append({"op": "tile", "t": [th, tw], "func": func})
            ch, cw = ch // th, cw // tw
        else:
            program.append(
                {"op": "count", "gt": rng.randint(-4, 4)}
            )
            break
    if rng.random() < 0.3:
        # Terminal SELECT over the updated array: projections and the
        # scalar-function lanes (power stays bit-exact because the
        # registry evaluates it per row with python floats).  The
        # SELECT queries the catalogued array, so slices/maps/tiles
        # that rebased the working view are dropped.
        program = [op for op in program if op["op"] == "update"]
        program.append(
            {
                "op": "select",
                "expr": rng.choice(
                    ["v", "abs", "floor", "ceil", "sqrt_abs", "pow2"]
                ),
                "gt": rng.randint(-6, 6),
            }
        )
    return {
        "shape": [h, w],
        "dtype": dtype,
        "cells": cells,
        "program": program,
    }


# -- NOA chain (fault-free sequential vs retried parallel batch) ---------------


def gen_chain_spec(seed: int) -> Dict[str, Any]:
    """A batch of small synthetic SEVIRI acquisitions plus a fault plan.

    Fault probabilities stay at or below 10% so the default retry
    policy absorbs every transient with overwhelming probability; the
    check then demands bitwise-equal hotspots and RDF against a
    fault-free sequential baseline.
    """
    rng = random.Random(("chain", seed).__repr__())
    scenes = [
        {
            "width": rng.choice([24, 32, 40]),
            "height": rng.choice([24, 32, 40]),
            "seed": rng.randint(0, 10_000),
            "n_fires": rng.randint(0, 3),
            "n_glints": rng.randint(0, 2),
        }
        for _ in range(rng.randint(1, 3))
    ]
    sites = rng.sample(
        ["chain.*", "scheduler.task", "ingest.file"],
        rng.randint(1, 2),
    )
    p = rng.choice([0.02, 0.05, 0.1])
    rules = ";".join(f"{site}:p={p}" for site in sites)
    return {
        "scenes": scenes,
        "workers": rng.choice([2, 3]),
        "faults": f"{rules};seed={rng.randint(0, 99_999)}",
    }


# -- storage (durable engine vs in-memory oracle) ------------------------------

#: Table names a storage schedule may create/drop.
STORAGE_TABLES = ("t_a", "t_b", "t_c")


def gen_storage_spec(seed: int) -> Dict[str, Any]:
    """A random mutation schedule over a few fixed-schema tables.

    The same schedule is applied to an in-memory oracle database and to
    a durable engine (reopened at the scheduled ``reload`` points); the
    check demands identical relational state at every comparison.
    ``bulk`` counts straddle the segment threshold so both the per-row
    WAL path and the binary segment path are exercised; float payloads
    are multiples of 0.25 so states compare with ``==``.
    """
    rng = random.Random(("storage", seed).__repr__())
    live: List[str] = []
    next_id: Dict[str, int] = {}
    program: List[Dict[str, Any]] = []
    for _ in range(rng.randint(5, 14)):
        ops = []
        if len(live) < len(STORAGE_TABLES):
            ops += ["create"] * 3
        if live:
            ops += ["insert"] * 4 + ["bulk", "update", "delete"]
            ops += ["reload", "checkpoint"]
            if len(live) > 1:
                ops.append("drop")
        kind = rng.choice(ops)
        if kind == "create":
            name = next(
                t for t in STORAGE_TABLES if t not in live
            )
            live.append(name)
            next_id.setdefault(name, 0)
            program.append({"op": "create", "table": name})
            continue
        if kind in ("reload", "checkpoint"):
            program.append({"op": kind})
            continue
        table = rng.choice(live)
        if kind == "drop":
            live.remove(table)
            program.append({"op": "drop", "table": table})
        elif kind == "insert":
            rows = []
            for _ in range(rng.randint(1, 5)):
                i = next_id[table]
                next_id[table] = i + 1
                rows.append(
                    [
                        i,
                        None if rng.random() < 0.15 else f"s{i}",
                        None
                        if rng.random() < 0.15
                        else rng.randint(-16, 16) * 0.25,
                    ]
                )
            program.append(
                {"op": "insert", "table": table, "rows": rows}
            )
        elif kind == "bulk":
            count = rng.choice([200, 256, 300])
            base = next_id[table]
            next_id[table] = base + count
            program.append(
                {
                    "op": "bulk",
                    "table": table,
                    "base": base,
                    "count": count,
                }
            )
        elif kind == "update":
            program.append(
                {
                    "op": "update",
                    "table": table,
                    "add": rng.randint(-4, 4) * 0.25,
                    "bound": rng.randint(0, 64),
                }
            )
        else:  # delete
            program.append(
                {
                    "op": "delete",
                    "table": table,
                    "bound": rng.randint(0, 64),
                }
            )
    return {
        "program": program,
        "faults": (
            f"storage.*:p={rng.choice([0.02, 0.05])};"
            f"seed={rng.randint(0, 99_999)}"
            if rng.random() < 0.5
            else None
        ),
    }


# -- mining (SciQL patch features + classifiers vs pure-python oracle) ---------


def gen_mining_spec(seed: int) -> Dict[str, Any]:
    """Labelled patch blocks plus a classifier and a temporal probe.

    Each block is one ``patch x patch`` pair of band planes; the check
    stacks them vertically into a SciQL array and extracts features with
    kernels on/off and 1/4 workers.  Cell values are class base levels
    (integers at least 16 K apart) plus quarter-unit noise, so every
    feature in :data:`repro.mining.features.MINING_FEATURE_NAMES` is an
    exact dyadic and the pure-python oracle compares with ``==``; the
    wide class separation also keeps classifier decisions far from
    numeric ties.  ``offset_min`` probes the stRDF valid-time filter:
    0 queries a window containing the annotation validity, 30 a
    disjoint one.
    """
    rng = random.Random(("mining", seed).__repr__())
    patch = rng.choice([2, 4])
    n_classes = rng.randint(2, 3)
    bases = rng.sample([280, 296, 312, 328, 344], n_classes)
    classes = [
        {
            "label": f"c{i}",
            "t039": base,
            "t108": base - rng.choice([4, 8, 12]),
        }
        for i, base in enumerate(bases)
    ]

    def block(cls: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "label": cls["label"],
            "t039": [
                [
                    cls["t039"] + rng.randint(-4, 4) * 0.25
                    for _ in range(patch)
                ]
                for _ in range(patch)
            ],
            "t108": [
                [
                    cls["t108"] + rng.randint(-4, 4) * 0.25
                    for _ in range(patch)
                ]
                for _ in range(patch)
            ],
        }

    train = [
        block(cls) for cls in classes for _ in range(rng.randint(2, 3))
    ]
    rng.shuffle(train)
    test = [
        block(rng.choice(classes)) for _ in range(rng.randint(2, 5))
    ]
    return {
        "patch": patch,
        "train": train,
        "test": test,
        "classifier": rng.choice(["centroid", "centroid", "knn1"]),
        "offset_min": rng.choice([0, 0, 30]),
    }


_GENERATORS = {
    "spatial": gen_spatial_spec,
    "stsparql": gen_stsparql_spec,
    "sciql": gen_sciql_spec,
    "chain": gen_chain_spec,
    "storage": gen_storage_spec,
    "mining": gen_mining_spec,
}


def gen_spec(domain: str, seed: int) -> Dict[str, Any]:
    """The spec of differential case ``(domain, seed)``."""
    try:
        generator = _GENERATORS[domain]
    except KeyError:
        raise ValueError(
            f"unknown domain {domain!r}; expected one of {SPEC_DOMAINS}"
        ) from None
    return generator(seed)
