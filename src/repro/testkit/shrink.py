"""Greedy spec shrinking.

``shrink(domain, spec)`` repeatedly tries structurally smaller variants
of a diverging spec, keeping any variant that still diverges, until no
single simplification step preserves the divergence — a locally minimal
counterexample.  The size metric is the canonical JSON length, which
every candidate strictly decreases, so termination is guaranteed.

Candidates must stay *valid* specs: a shrink step that turned a real
divergence into a mere validity error (e.g. a tile larger than the
shrunken array) would let the shrinker wander off the bug, so SciQL
candidates are shape-checked before being offered.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


def _numeric_mass(value: Any) -> float:
    """Sum of the magnitudes of every number in a spec — a tiebreaker
    so shrinking ``40 → 24`` counts as progress even when the JSON text
    stays the same length."""
    if isinstance(value, bool):
        return 0.0
    if isinstance(value, (int, float)):
        return abs(float(value))
    if isinstance(value, dict):
        return sum(_numeric_mass(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_numeric_mass(v) for v in value)
    return 0.0


def spec_size(domain: str, spec: Dict[str, Any]) -> float:
    """Canonical size of a spec: its sorted-key JSON length, with the
    total numeric magnitude as an epsilon-weight tiebreaker (structure
    always dominates; equal structures compare by their numbers)."""
    return len(json.dumps(spec, sort_keys=True)) + (
        _numeric_mass(spec) * 1e-9
    )


def _with(spec: Dict[str, Any], **updates: Any) -> Dict[str, Any]:
    out = dict(spec)
    out.update(updates)
    return out


def _point_of(wkt_text: str) -> str:
    """A point somewhere on the geometry's envelope — the simplest
    geometry that can still participate in the divergence."""
    from repro.geometry import Point, from_wkt

    env = from_wkt(wkt_text).envelope
    return Point(env.minx, env.miny).wkt


def _spatial_candidates(
    spec: Dict[str, Any],
) -> Iterator[Dict[str, Any]]:
    geometries = spec["geometries"]
    probes = spec["probes"]
    removals = spec["removals"]
    for i in range(len(geometries)):
        if len(geometries) <= 1:
            break
        kept = geometries[:i] + geometries[i + 1:]
        remapped = sorted(
            r - 1 if r > i else r for r in removals if r != i
        )
        yield _with(spec, geometries=kept, removals=remapped)
    for j in range(len(probes)):
        if len(probes) <= 1:
            break
        yield _with(spec, probes=probes[:j] + probes[j + 1:])
    for r in range(len(removals)):
        yield _with(spec, removals=removals[:r] + removals[r + 1:])
    for i, text in enumerate(geometries):
        if not text.startswith("POINT"):
            simplified = list(geometries)
            simplified[i] = _point_of(text)
            yield _with(spec, geometries=simplified)
    for j, text in enumerate(probes):
        if not text.startswith("POINT"):
            simplified = list(probes)
            simplified[j] = _point_of(text)
            yield _with(spec, probes=simplified)


def _stsparql_candidates(
    spec: Dict[str, Any],
) -> Iterator[Dict[str, Any]]:
    triples = spec["triples"]
    extra = spec["extra_triples"]
    patterns = spec["patterns"]
    for i in range(len(triples)):
        yield _with(spec, triples=triples[:i] + triples[i + 1:])
    for i in range(len(extra)):
        yield _with(spec, extra_triples=extra[:i] + extra[i + 1:])
    for k in range(len(patterns)):
        if len(patterns) <= 1:
            break
        kept = patterns[:k] + patterns[k + 1:]
        if any(term[0] == "v" for p in kept for term in p):
            yield _with(spec, patterns=kept)
    filter_spec = spec.get("filter")
    if filter_spec is not None:
        yield _with(spec, filter=None)
        for key in ("negate", "or"):
            if key in filter_spec:
                simpler = {k: v for k, v in filter_spec.items() if k != key}
                yield _with(spec, filter=simpler)
    if spec["distinct"]:
        yield _with(spec, distinct=False)
    if spec.get("optional"):
        yield _with(spec, optional=None)
    for i, triple in enumerate(triples):
        if triple[2][0] == "w" and not triple[2][1].startswith("POINT"):
            simplified = [list(t) for t in triples]
            simplified[i][2] = ["w", _point_of(triple[2][1])]
            yield _with(spec, triples=simplified)
        if triple[2][0] == "i" and triple[2][1] != 0:
            simplified = [list(t) for t in triples]
            simplified[i][2] = ["i", 0]
            yield _with(spec, triples=simplified)


def _sciql_spec_valid(spec: Dict[str, Any]) -> bool:
    """Shape-check a program so shrinking never fabricates a validity
    error (empty slice, tile larger than the array) that the engine and
    the oracle would report differently."""
    height, width = spec["shape"]
    if height < 1 or width < 1:
        return False
    if len(spec["cells"]) != height or any(
        len(row) != width for row in spec["cells"]
    ):
        return False
    for op in spec["program"]:
        if op["op"] == "slice":
            x0, x1 = max(op["x"][0], 0), min(op["x"][1], height)
            y0, y1 = max(op["y"][0], 0), min(op["y"][1], width)
            if x1 <= x0 or y1 <= y0:
                return False
            height, width = x1 - x0, y1 - y0
        elif op["op"] == "tile":
            th, tw = op["t"]
            if th < 1 or tw < 1 or th > height or tw > width:
                return False
            height, width = height // th, width // tw
    return True


def _sciql_candidates(
    spec: Dict[str, Any],
) -> Iterator[Dict[str, Any]]:
    program = spec["program"]
    height, width = spec["shape"]
    for i in range(len(program)):
        candidate = _with(spec, program=program[:i] + program[i + 1:])
        if _sciql_spec_valid(candidate):
            yield candidate
    if height > 1:
        candidate = _with(
            spec, shape=[height - 1, width], cells=spec["cells"][:-1]
        )
        if _sciql_spec_valid(candidate):
            yield candidate
    if width > 1:
        candidate = _with(
            spec,
            shape=[height, width - 1],
            cells=[row[:-1] for row in spec["cells"]],
        )
        if _sciql_spec_valid(candidate):
            yield candidate
    for r, row in enumerate(spec["cells"]):
        for c, value in enumerate(row):
            if value != 0:
                cells = [list(x) for x in spec["cells"]]
                cells[r][c] = 0
                yield _with(spec, cells=cells)


def _chain_candidates(
    spec: Dict[str, Any],
) -> Iterator[Dict[str, Any]]:
    scenes = spec["scenes"]
    for i in range(len(scenes)):
        if len(scenes) <= 1:
            break
        yield _with(spec, scenes=scenes[:i] + scenes[i + 1:])
    for i, scene in enumerate(scenes):
        for key, floor in (
            ("width", 24),
            ("height", 24),
            ("n_fires", 0),
            ("n_glints", 0),
        ):
            if scene[key] > floor:
                shrunk = [dict(s) for s in scenes]
                shrunk[i][key] = floor
                yield _with(spec, scenes=shrunk)
    rules = [
        part for part in spec["faults"].split(";") if part.strip()
    ]
    fault_rules = [r for r in rules if not r.startswith("seed=")]
    seed_parts = [r for r in rules if r.startswith("seed=")]
    if len(fault_rules) > 1:
        for i in range(len(fault_rules)):
            kept = fault_rules[:i] + fault_rules[i + 1:] + seed_parts
            yield _with(spec, faults=";".join(kept))


def _storage_candidates(
    spec: Dict[str, Any],
) -> Iterator[Dict[str, Any]]:
    program = spec["program"]
    for i, op in enumerate(program):
        if op["op"] == "create":
            # A create can only go together with every op touching its
            # table, otherwise the schedule dereferences a missing table.
            table = op["table"]
            kept = [
                o
                for j, o in enumerate(program)
                if j != i and o.get("table") != table
            ]
        else:
            kept = program[:i] + program[i + 1:]
        if kept:
            yield _with(spec, program=kept)
    for i, op in enumerate(program):
        if op["op"] == "insert" and len(op["rows"]) > 1:
            shrunk = [dict(o) for o in program]
            shrunk[i]["rows"] = op["rows"][:1]
            yield _with(spec, program=shrunk)
        elif op["op"] == "bulk" and op["count"] > 1:
            shrunk = [dict(o) for o in program]
            shrunk[i]["count"] = max(1, op["count"] // 2)
            yield _with(spec, program=shrunk)
    if spec.get("faults"):
        yield _with(spec, faults=None)


def _mining_candidates(
    spec: Dict[str, Any],
) -> Iterator[Dict[str, Any]]:
    train, test = spec["train"], spec["test"]
    for i in range(len(test)):
        if len(test) <= 1:
            break
        yield _with(spec, test=test[:i] + test[i + 1:])
    for i in range(len(train)):
        # The classifier needs a non-empty training set; two blocks keep
        # z-normalisation meaningful.
        if len(train) <= 2:
            break
        yield _with(spec, train=train[:i] + train[i + 1:])
    if spec["classifier"] != "centroid":
        yield _with(spec, classifier="centroid")
    if spec["offset_min"] != 0:
        yield _with(spec, offset_min=0)
    # Flatten one noisy block to its first cell value per band — the
    # structural shrink that removes texture features from the story.
    for coll in ("train", "test"):
        for i, block in enumerate(spec[coll]):
            for band in ("t039", "t108"):
                base = block[band][0][0]
                if any(v != base for row in block[band] for v in row):
                    blocks = [
                        {
                            "label": b["label"],
                            "t039": [list(r) for r in b["t039"]],
                            "t108": [list(r) for r in b["t108"]],
                        }
                        for b in spec[coll]
                    ]
                    blocks[i][band] = [
                        [base] * len(row) for row in block[band]
                    ]
                    yield _with(spec, **{coll: blocks})


def _predicates_candidates(
    spec: Dict[str, Any],
) -> Iterator[Dict[str, Any]]:
    """Drop a pair; then simplify one geometry: a multipolygon to one of
    its parts, a polygon without its holes or one shell vertex, a
    coordinate snapped back to the quarter grid."""
    from repro.geometry import MultiPolygon, Polygon, from_wkt
    from repro.geometry.base import GeometryError

    pairs = spec["pairs"]
    for i in range(len(pairs)):
        if len(pairs) > 1:
            yield _with(spec, pairs=pairs[:i] + pairs[i + 1:])
    for i, pair in enumerate(pairs):
        for side, text in enumerate(pair):
            geom = from_wkt(text)
            if isinstance(geom, MultiPolygon):
                simpler = [part.wkt for part in geom.geoms]
            else:
                shell = list(geom.shell.coords())
                holes = [list(h.coords()) for h in geom.holes]
                rings = [(shell, [])] if holes else []
                if len(shell) > 3:
                    rings += [
                        (shell[:k] + shell[k + 1:], holes)
                        for k in range(len(shell))
                    ]
                for k, (x, y) in enumerate(shell):
                    snapped = (round(x * 4) / 4, round(y * 4) / 4)
                    if snapped != (x, y):
                        rings.append(
                            (shell[:k] + [snapped] + shell[k + 1:], holes)
                        )
                simpler = []
                for ring, ring_holes in rings:
                    try:
                        simpler.append(Polygon(ring, holes=ring_holes).wkt)
                    except GeometryError:
                        continue
            for wkt in simpler:
                changed = [list(p) for p in pairs]
                changed[i][side] = wkt
                yield _with(spec, pairs=changed)


_CANDIDATES = {
    "spatial": _spatial_candidates,
    "stsparql": _stsparql_candidates,
    "sciql": _sciql_candidates,
    "chain": _chain_candidates,
    "storage": _storage_candidates,
    "mining": _mining_candidates,
    "predicates": _predicates_candidates,
}

_MAX_STEPS = 500


def candidates(
    domain: str, spec: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """All one-step simplifications of ``spec`` (possibly non-smaller;
    the shrink loop enforces the strict size decrease)."""
    return list(_CANDIDATES[domain](spec))


def shrink(
    domain: str,
    spec: Dict[str, Any],
    diverges: Optional[Callable[[Dict[str, Any]], Optional[str]]] = None,
) -> Tuple[Dict[str, Any], Optional[str]]:
    """Greedily minimise a diverging spec.

    Returns ``(shrunk_spec, divergence_detail)``.  The result is
    locally minimal: no single candidate step both reduces the size
    and preserves the divergence.  ``diverges`` defaults to
    :func:`repro.testkit.differential.run_case` for the domain.
    """
    if diverges is None:
        from repro.testkit.differential import run_case

        def diverges(candidate, _domain=domain):
            return run_case(_domain, candidate)

    current = spec
    current_detail = diverges(spec)
    if current_detail is None:
        return spec, None
    for _ in range(_MAX_STEPS):
        current_size = spec_size(domain, current)
        for candidate in candidates(domain, current):
            if spec_size(domain, candidate) >= current_size:
                continue
            detail = diverges(candidate)
            if detail is not None:
                current, current_detail = candidate, detail
                break
        else:
            break
    return current, current_detail
