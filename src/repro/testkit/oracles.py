"""Brute-force reference implementations.

Each oracle is deliberately naive — the smallest amount of code that is
obviously correct — so that when it disagrees with an optimised path the
optimisation is the prime suspect.  Oracles share term/geometry
semantics with the engine (same parser, same predicate functions): the
differential tests target the *plumbing* (indexes, caches, join
ordering, tiling, retries), while predicate math itself is covered by
the property tests in ``tests/geometry``.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.geometry import Envelope, from_wkt
from repro.rdf.term import Literal, RDFTerm, URIRef, Variable
from repro.strabon import strdf

EX = "http://example.org/"


# -- term materialisation ------------------------------------------------------


def term_from_json(spec: Sequence[Any]) -> Any:
    """Decode a generator JSON term (see generators module) to an RDF
    term, or a :class:`Variable` for pattern positions."""
    tag, value = spec[0], spec[1]
    if tag == "u":
        return URIRef(EX + value)
    if tag == "i":
        return Literal(int(value))
    if tag == "w":
        return Literal(value, datatype=str(strdf.WKT_DATATYPE))
    if tag == "v":
        return Variable(value)
    raise ValueError(f"unknown term tag {tag!r}")


def triples_from_json(
    specs: Iterable[Sequence[Sequence[Any]]],
) -> List[Tuple[RDFTerm, RDFTerm, RDFTerm]]:
    return [
        (
            term_from_json(s),
            term_from_json(p),
            term_from_json(o),
        )
        for s, p, o in specs
    ]


# -- spatial oracle ------------------------------------------------------------


def naive_spatial_query(
    entries: Sequence[Tuple[Envelope, Any]], probe: Envelope
) -> List[Any]:
    """All-pairs envelope scan: what any R-tree query must return."""
    return [item for env, item in entries if env.intersects(probe)]


# -- stSPARQL oracle -----------------------------------------------------------


def _unify(
    pattern: Tuple[Any, Any, Any],
    triple: Tuple[RDFTerm, RDFTerm, RDFTerm],
    binding: Dict[str, RDFTerm],
) -> Optional[Dict[str, RDFTerm]]:
    out = binding
    for pat, term in zip(pattern, triple):
        if isinstance(pat, Variable):
            name = str(pat)  # Variable is a str subclass; its text IS the name
            bound = out.get(name)
            if bound is None:
                if out is binding:
                    out = dict(binding)
                out[name] = term
            elif bound != term:
                return None
        elif pat != term:
            return None
    return out


def _cmp_value(term: Any) -> Any:
    # Mirror of the evaluator's _comparable: literals compare by python
    # value, URIRefs (str subclass) lexically, everything else by str().
    if isinstance(term, Literal):
        return term.to_python()
    if isinstance(term, (int, float, bool, str)):
        return term
    return str(term)


def _filter_passes(
    filter_spec: Optional[Dict[str, Any]], binding: Dict[str, RDFTerm]
) -> bool:
    """Replicates evaluator FILTER semantics: any error → excluded.  A
    disjunct (``or``) rescues a row whose first operand failed or
    errored — SPARQL's ``||`` forgives one erroring side."""
    if filter_spec is None:
        return True
    alternative = filter_spec.get("or")
    return _condition_passes(filter_spec, binding) or (
        alternative is not None and _condition_passes(alternative, binding)
    )


def _condition_passes(
    filter_spec: Dict[str, Any], binding: Dict[str, RDFTerm]
) -> bool:
    term = binding.get(filter_spec["var"])
    if term is None:
        return False
    if filter_spec["kind"] == "cmp":
        op = filter_spec["op"]
        value = filter_spec["value"]
        if op in ("=", "!="):
            if isinstance(term, Literal) and term.is_numeric:
                equal = term.to_python() == value
            else:
                equal = term == Literal(value)
            return equal if op == "=" else not equal
        try:
            left = _cmp_value(term)
            if op == "<":
                return left < value
            if op == "<=":
                return left <= value
            if op == ">":
                return left > value
            return left >= value
        except TypeError:
            return False
    # Spatial predicate / distance comparison.  Unbound operands, parse
    # failures and ValueErrors exclude the row (the evaluator's
    # extension-call wrapper turns StRDFError / ValueError into a failed
    # FILTER, and ``!`` of an error is still an error); anything else —
    # e.g. a TypeError from an unsupported operand combination —
    # propagates, exactly as it escapes the optimised evaluator.
    try:
        geom = strdf.literal_geometry(term)
        if "other" in filter_spec:
            other_term = binding.get(filter_spec["other"])
            if other_term is None:
                return False
            other = strdf.literal_geometry(other_term)
        else:
            other = from_wkt(filter_spec["wkt"])
    except strdf.StRDFError:
        return False
    if filter_spec["kind"] == "dist":
        # ``flip`` only mirrors the rendered comparison; the canonical
        # op here carries the meaning.  The call's argument order is
        # (var, other), as rendered.
        try:
            d = geom.distance(other)
        except ValueError:
            return False
        op = filter_spec["op"]
        bound = filter_spec["bound"]
        if op == "<":
            return d < bound
        if op == "<=":
            return d <= bound
        if op == ">":
            return d > bound
        return d >= bound
    a, b = (other, geom) if filter_spec.get("flip") else (geom, other)
    try:
        verdict = bool(getattr(a, filter_spec["pred"])(b))
    except ValueError:
        return False
    return not verdict if filter_spec.get("negate") else verdict


def naive_bgp_rows(
    triples: Sequence[Tuple[RDFTerm, RDFTerm, RDFTerm]],
    patterns: Sequence[Tuple[Any, Any, Any]],
    filter_spec: Optional[Dict[str, Any]],
    variables: Sequence[str],
    distinct: bool,
    optional: Optional[Tuple[Any, Any, Any]] = None,
) -> List[Tuple[Optional[str], ...]]:
    """Nested-loop BGP evaluation in pattern order, then the
    ``optional`` pattern as a left join (a solution it cannot extend is
    kept as it is), filter applied at the end; rows rendered to n3 over
    ``variables``.  Returns the sorted multiset (list) of rows,
    deduplicated only under ``distinct``."""
    solutions: List[Dict[str, RDFTerm]] = [{}]
    for pattern in patterns:
        solutions = [
            extended
            for binding in solutions
            for triple in triples
            for extended in (_unify(pattern, triple, binding),)
            if extended is not None
        ]
    if optional is not None:
        joined: List[Dict[str, RDFTerm]] = []
        for binding in solutions:
            extensions = [
                extended
                for triple in triples
                for extended in (_unify(optional, triple, binding),)
                if extended is not None
            ]
            joined.extend(extensions or [binding])
        solutions = joined
    rows = [
        tuple(
            sol[name].n3() if name in sol else None for name in variables
        )
        for sol in solutions
        if _filter_passes(filter_spec, sol)
    ]
    if distinct:
        rows = list(dict.fromkeys(rows))
    return sorted(rows, key=lambda r: tuple(x or "" for x in r))


# -- SciQL oracle --------------------------------------------------------------


def _cast(value: float, dtype: str) -> Any:
    return int(value) if dtype == "int" else float(value)


def naive_sciql_run(spec: Dict[str, Any]) -> Tuple[str, Any]:
    """Interpret a SciQL program spec with pure-python list loops.

    Returns ``("count", n)`` or ``("cells", rows)`` matching the
    differential runner's outcome encoding.  All arithmetic stays on
    dyadic floats, so results are exactly comparable to the kernels.
    """
    dtype = spec["dtype"]
    cells = [list(row) for row in spec["cells"]]
    row0, col0 = 0, 0  # dimension offsets survive slicing
    for op in spec["program"]:
        name = op["op"]
        if name == "update":
            dim, cmp_op, bound = op["dim"], op["cmp"], op["bound"]
            extra = op.get("extra")
            set_dim = op.get("set_dim")
            for r in range(len(cells)):
                for c in range(len(cells[0])):
                    coord = row0 + r if dim == "x" else col0 + c
                    hit = (
                        coord == bound
                        if cmp_op == "="
                        else coord > bound if cmp_op == ">" else coord < bound
                    )
                    if extra is not None:
                        # Mirrors the rendered SQL: AND for the
                        # coordinate clauses, OR for the attribute one.
                        if extra["kind"] == "attr_cmp":
                            v = cells[r][c]
                            hit = hit or (
                                v > extra["value"]
                                if extra["op"] == ">"
                                else v < extra["value"]
                            )
                        elif extra["kind"] == "fn_cmp":
                            v = cells[r][c]
                            fn = extra["fn"]
                            if fn == "abs":
                                fv = abs(v)
                            elif fn == "floor":
                                fv = math.floor(v)
                            else:
                                fv = math.ceil(v)
                            hit = hit or (
                                fv > extra["value"]
                                if extra["op"] == ">"
                                else fv < extra["value"]
                            )
                        else:
                            ecoord = (
                                row0 + r
                                if extra["dim"] == "x"
                                else col0 + c
                            )
                            if extra["kind"] == "in":
                                inside = ecoord in extra["values"]
                                if extra["negated"]:
                                    inside = not inside
                            else:
                                inside = (
                                    extra["lo"] <= ecoord <= extra["hi"]
                                )
                            hit = hit and inside
                    if hit:
                        bump = 0
                        if set_dim:
                            bump = (
                                row0 + r if set_dim == "x" else col0 + c
                            )
                        cells[r][c] = _cast(
                            cells[r][c] * op["mul"] + op["add"] + bump,
                            dtype,
                        )
        elif name == "slice":
            (x0, x1), (y0, y1) = op["x"], op["y"]
            cells = [row[y0:y1] for row in cells[x0:x1]]
            row0, col0 = row0 + x0, col0 + y0
        elif name == "map":
            cells = [
                [_cast(v * op["mul"] + op["add"], dtype) for v in row]
                for row in cells
            ]
        elif name == "tile":
            th, tw = op["t"]
            func = op["func"]
            out_h = len(cells) // th
            out_w = len(cells[0]) // tw
            new_cells = []
            for tr in range(out_h):
                out_row = []
                for tc in range(out_w):
                    block = [
                        float(cells[tr * th + i][tc * tw + j])
                        for i in range(th)
                        for j in range(tw)
                    ]
                    if func == "sum":
                        val = sum(block)
                    elif func == "min":
                        val = min(block)
                    elif func == "max":
                        val = max(block)
                    else:
                        val = sum(block) / len(block)
                    out_row.append(_cast(val, dtype))
                new_cells.append(out_row)
            cells = new_cells
            row0, col0 = 0, 0  # aggregate output re-bases coordinates
        elif name == "count":
            return (
                "count",
                sum(
                    1
                    for row in cells
                    for v in row
                    if v > op["gt"]
                ),
            )
        elif name == "select":
            kind = op["expr"]
            rows = []
            for r in range(len(cells)):
                for c in range(len(cells[0])):
                    v = cells[r][c]
                    if not v > op["gt"]:
                        continue
                    if kind == "v":
                        e = float(v)
                    elif kind == "abs":
                        e = float(abs(v))
                    elif kind == "floor":
                        e = float(math.floor(v))
                    elif kind == "ceil":
                        e = float(math.ceil(v))
                    elif kind == "sqrt_abs":
                        # math.sqrt and np.sqrt are both correctly
                        # rounded, so this compares exactly.
                        e = math.sqrt(abs(v))
                    else:  # pow2 — same float ** float as the registry
                        e = float(v) ** 2.0
                    rows.append((float(row0 + r), float(col0 + c), e))
            return ("rows", sorted(rows))
        else:
            raise ValueError(f"unknown sciql op {name!r}")
    return ("cells", cells)


# -- mining oracle -------------------------------------------------------------


def _stack_blocks(blocks: Sequence[Dict[str, Any]], band: str) -> List[List[float]]:
    return [
        [float(v) for v in row] for block in blocks for row in block[band]
    ]


def _central_gradient_rows(plane: List[List[float]]) -> List[List[float]]:
    """Pure-python mirror of :func:`repro.mining.features.central_gradient`
    along axis 0 (rows)."""
    h = len(plane)
    w = len(plane[0])
    g = [[0.0] * w for _ in range(h)]
    if h < 2:
        return g
    for c in range(w):
        g[0][c] = plane[1][c] - plane[0][c]
        g[h - 1][c] = plane[h - 1][c] - plane[h - 2][c]
        for r in range(1, h - 1):
            g[r][c] = (plane[r + 1][c] - plane[r - 1][c]) * 0.5
    return g


def _transpose(plane: List[List[float]]) -> List[List[float]]:
    return [list(col) for col in zip(*plane)]


def naive_mining_features(
    blocks: Sequence[Dict[str, Any]], patch: int
) -> List[List[float]]:
    """Feature matrix of patch blocks stacked vertically, by brute force.

    Mirrors :func:`repro.mining.features.extract_patch_grid` over the
    stacked ``(len(blocks)*patch, patch)`` planes with plain loops.  All
    cells are dyadic and patch areas are powers of two, so every
    statistic is exact and the comparison needs no tolerance.
    """
    t039 = _stack_blocks(blocks, "t039")
    t108 = _stack_blocks(blocks, "t108")
    h, w = len(t039), patch
    gx = _central_gradient_rows(t039)
    gy = _transpose(_central_gradient_rows(_transpose(t039)))
    gradsq = [
        [gx[r][c] * gx[r][c] + gy[r][c] * gy[r][c] for c in range(w)]
        for r in range(h)
    ]
    contrast = [
        [
            (t108[r][c + 1] - t108[r][c]) ** 2 if c + 1 < w else 0.0
            for c in range(w)
        ]
        for r in range(h)
    ]
    area = patch * patch
    features: List[List[float]] = []
    for i in range(len(blocks)):
        rows = range(i * patch, (i + 1) * patch)

        def tile_mean(plane: List[List[float]]) -> float:
            total = 0.0
            for r in rows:
                for c in range(w):
                    total += plane[r][c]
            return total / area

        m039 = tile_mean(t039)
        m108 = tile_mean(t108)
        msq039 = 0.0
        msq108 = 0.0
        for r in rows:
            for c in range(w):
                msq039 += t039[r][c] * t039[r][c]
                msq108 += t108[r][c] * t108[r][c]
        msq039 /= area
        msq108 /= area
        mx039 = max(t039[r][c] for r in rows for c in range(w))
        mgrad = tile_mean(gradsq)
        mcon = tile_mean(contrast)
        features.append(
            [
                m039,
                max(msq039 - m039 * m039, 0.0),
                m108,
                max(msq108 - m108 * m108, 0.0),
                m039 - m108,
                mx039,
                mgrad,
                mcon,
            ]
        )
    return features


def _axis0_mean(rows: Sequence[Sequence[float]]) -> List[float]:
    """Sequential row accumulation, numpy's axis-0 reduction order."""
    acc = list(rows[0])
    for row in rows[1:]:
        for j, v in enumerate(row):
            acc[j] += v
    n = len(rows)
    return [v / n for v in acc]


def _pairwise8(values: Sequence[float]) -> float:
    """numpy's pairwise-summation order for exactly eight addends."""
    s = list(values)
    assert len(s) == 8
    return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))


def naive_mining_classify(
    train_X: Sequence[Sequence[float]],
    train_labels: Sequence[str],
    test_X: Sequence[Sequence[float]],
    classifier: str,
) -> List[str]:
    """Pure-python mirror of the mining classifiers.

    Replicates :class:`repro.mining.classify.Classifier` numerics
    operation for operation — z-score over sequential axis-0 sums,
    Euclidean distances summed in numpy's pairwise-eight order, first
    strict minimum wins — so labels compare exactly, not just
    statistically.
    """
    mean = _axis0_mean(train_X)
    var = _axis0_mean(
        [
            [(row[j] - mean[j]) ** 2 for j in range(len(mean))]
            for row in train_X
        ]
    )
    std = [1.0 if math.sqrt(v) < 1e-12 else math.sqrt(v) for v in var]

    def norm(rows: Sequence[Sequence[float]]) -> List[List[float]]:
        return [
            [(row[j] - mean[j]) / std[j] for j in range(len(mean))]
            for row in rows
        ]

    xn = norm(train_X)
    tn = norm(test_X)

    def dist(a: Sequence[float], b: Sequence[float]) -> float:
        return math.sqrt(
            _pairwise8([(a[j] - b[j]) ** 2 for j in range(len(a))])
        )

    out: List[str] = []
    if classifier == "centroid":
        classes = sorted(set(train_labels))
        centroids = [
            _axis0_mean(
                [row for row, lab in zip(xn, train_labels) if lab == cls]
            )
            for cls in classes
        ]
        for row in tn:
            best, best_d = 0, dist(centroids[0], row)
            for k in range(1, len(centroids)):
                d = dist(centroids[k], row)
                if d < best_d:
                    best, best_d = k, d
            out.append(classes[best])
    elif classifier == "knn1":
        for row in tn:
            best, best_d = 0, dist(xn[0], row)
            for k in range(1, len(xn)):
                d = dist(xn[k], row)
                if d < best_d:
                    best, best_d = k, d
            out.append(train_labels[best])
    else:
        raise ValueError(f"unknown mining classifier {classifier!r}")
    return out


# -- generic multiset helpers --------------------------------------------------


def multiset(items: Iterable[Any]) -> List[Any]:
    """A canonical (sorted) rendering of an unordered collection."""
    return sorted(items, key=repr)


def first_difference(a: Sequence[Any], b: Sequence[Any]) -> Optional[str]:
    """A short human-readable description of the first mismatch."""
    for i, (x, y) in enumerate(itertools.zip_longest(a, b)):
        if x != y:
            return f"index {i}: {x!r} != {y!r}"
    return None


# -- storage state -------------------------------------------------------------


def database_state(db: Any) -> Dict[str, Any]:
    """A canonical, comparable snapshot of a database's relational state.

    Schema (column names and types) plus the full row multiset of every
    table, rendered order-independently — two databases are
    storage-equivalent iff their ``database_state`` values are equal.
    """
    state: Dict[str, Any] = {}
    for name in sorted(db.tables()):
        table = db.table(name)
        state[name] = {
            "schema": [
                (c.name, c.ctype.name) for c in table.columns
            ],
            "rows": multiset(db.query(f"SELECT * FROM {name}")),
        }
    return state
