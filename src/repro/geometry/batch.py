"""Batched exact predicates over packed polygon edges.

:func:`relate` decides ``intersects``, ``within`` and ``contains`` for many
(Polygon | MultiPolygon, Polygon | MultiPolygon) pairs at once, the way a
column store runs a predicate: every edge pair of every candidate atom
pair is tested in one numpy pass, a fixed number of pairs at a time.

The scalar :mod:`repro.geometry.predicates` module stays the reference, and
the kernel reproduces its verdicts bit for bit: the same ``orient``
expression, the same :data:`~repro.geometry.algorithms.EPS` thresholds, the
same ``on_segment`` tolerance ``EPS * (1 + segment_length)`` (the lengths
themselves come from ``math.hypot``, as in the scalar code), the same
crossing-number formula, the same per-atom envelope rejects and the same
short-circuit structure over multi-part operands.

* ``intersects`` — an atom pair intersects if any edge pair meets, else if
  the first shell vertex of either atom lies in the other.
* ``contains`` / ``within`` — decided only for atom pairs with no edge
  contact at all.  Then the scalar edge splitter cuts nothing, so every
  non-degenerate edge of the contained ring is judged by its midpoint, a
  container hole whose centroid lies inside the contained polygon refutes
  coverage, and the contained polygon's representative point must lie in
  the container's interior.  A pair with edge contact leaves its row
  undecided, and the caller judges that row with the scalar predicate.

Each atom's packed edges are built at its first use by the kernel and
cached on the polygon, so a geometry that is never tested pays nothing.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry import algorithms
from repro.geometry.algorithms import EPS
from repro.geometry.base import Geometry
from repro.geometry.multi import MultiPolygon
from repro.geometry.polygon import Polygon

__all__ = ["PREDICATES", "relate"]

#: The predicates :func:`relate` decides.
PREDICATES = ("intersects", "within", "contains")

#: Edge pairs (or point-edge pairs) tested per vectorised step; bounds
#: the kernel's temporaries whatever the operands' sizes.
_CHUNK = 1 << 15

# Columns of a packed edge row.
_X0, _Y0, _X1, _Y1, _LEN, _MX, _MY, _RING = range(8)


class _PackedAtom:
    """One polygon's rings as edge rows ``(x0, y0, x1, y1, length,
    mid_x, mid_y, ring)``: the shell's edges, then each hole's, every
    ring closed back to its first vertex."""

    __slots__ = (
        "edges", "nondeg", "env", "first", "nrings", "rings_nondeg",
        "outer_holes", "rep",
    )


def _pack(polys: Sequence[Polygon]) -> None:
    """Pack every polygon's rings in one vectorised pass and cache the
    result on the polygon (``None`` for one that cannot be packed)."""
    coords: List[Tuple[float, float]] = []
    ring_sizes: List[int] = []
    ring_local: List[int] = []
    nrings: List[int] = []
    for poly in polys:
        rings = (poly.shell,) + poly.holes
        for index, ring in enumerate(rings):
            coords.extend(ring._coords)
            ring_sizes.append(len(ring._coords))
            ring_local.append(index)
        nrings.append(len(rings))
    v = np.array(coords, dtype=np.float64).reshape(-1, 2)
    sizes = np.array(ring_sizes, dtype=np.intp)
    ring_start = _starts(sizes)
    following = np.arange(1, len(v) + 1, dtype=np.intp)
    following[ring_start[1:] - 1] = ring_start[:-1]
    w = v[following]
    d = w - v
    edges = np.empty((len(v), 8), dtype=np.float64)
    edges[:, _X0:_Y0 + 1] = v
    edges[:, _X1:_Y1 + 1] = w
    # The scalar ``segment_length`` is ``math.hypot``, which np.hypot
    # can miss by an ulp.
    edges[:, _LEN] = list(
        map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist())
    )
    edges[:, _MX:_MY + 1] = (v + w) / 2.0
    edges[:, _RING] = np.repeat(ring_local, sizes)
    # ``coords_equal`` of consecutive vertices: such a step yields no
    # piece in the scalar edge splitter.
    nondeg = ~((np.abs(d[:, 0]) <= EPS) & (np.abs(d[:, 1]) <= EPS))
    ring_nondeg = np.logical_or.reduceat(nondeg, ring_start[:-1])
    # Packable: finite coordinates, and no ring whose stored first and
    # last vertex are equal (``point_in_ring`` would drop that vertex,
    # the segment walk would not).
    ring_ok = np.logical_and.reduceat(
        np.isfinite(v).all(axis=1), ring_start[:-1]
    ) & (v[ring_start[:-1]] != v[ring_start[1:] - 1]).any(axis=1)
    atom_ring_start = _starts(np.array(nrings, dtype=np.intp))
    atom_ok = np.logical_and.reduceat(ring_ok, atom_ring_start[:-1])
    atom_nondeg = np.logical_and.reduceat(ring_nondeg, atom_ring_start[:-1])
    edge_start = ring_start[atom_ring_start]
    # A polygon's envelope is its shell's.
    shell_rows = v[edges[:, _RING] == 0]
    shell_start = _starts(sizes[atom_ring_start[:-1]])[:-1]
    env = np.concatenate(
        [
            np.minimum.reduceat(shell_rows, shell_start),
            np.maximum.reduceat(shell_rows, shell_start),
        ],
        axis=1,
    ).tolist()
    for i, poly in enumerate(polys):
        if not atom_ok[i]:
            poly._edges = None
            continue
        lo, hi = edge_start[i], edge_start[i + 1]
        atom = _PackedAtom()
        atom.edges = edges[lo:hi]
        atom.nondeg = np.flatnonzero(nondeg[lo:hi])
        atom.env = env[i]
        atom.first = poly.shell._coords[0]
        atom.nrings = nrings[i]
        atom.rings_nondeg = bool(atom_nondeg[i])
        # Only a hole whose centroid lies outside the polygon itself can
        # refute coverage (``_polygon_covers_polygon``'s hole check).
        outer = []
        for hole in poly.holes:
            cx, cy = algorithms.ring_centroid(list(hole.coords()))
            if poly.locate_point(cx, cy) < 0:
                outer.append((cx, cy))
        atom.outer_holes = np.array(outer, np.float64).reshape(-1, 2)
        atom.rep = None
        poly._edges = atom


class _Side:
    """The distinct geometries of one operand, opened into atoms whose
    packed edges are concatenated into one array."""

    def __init__(self, geoms: Sequence[Geometry]):
        self.ok = np.zeros(len(geoms), dtype=bool)
        self.multi = np.zeros(len(geoms), dtype=bool)
        self.polygons: List[Polygon] = []
        atoms: List[_PackedAtom] = []
        counts = np.zeros(len(geoms), dtype=np.intp)
        members: List[Sequence[Polygon]] = []
        for geom in geoms:
            if isinstance(geom, Polygon):
                members.append((geom,))
            elif type(geom) is MultiPolygon and geom.geoms:
                members.append(geom.geoms)
            else:
                members.append(())
        fresh = [
            p for parts in members for p in parts
            if not hasattr(p, "_edges")
        ]
        if fresh:
            _pack(fresh)
        for g, (geom, parts) in enumerate(zip(geoms, members)):
            packed = [p._edges for p in parts]
            if not packed or any(p is None for p in packed):
                continue
            self.ok[g] = True
            self.multi[g] = isinstance(geom, MultiPolygon)
            self.polygons.extend(parts)
            atoms.extend(packed)
            counts[g] = len(parts)
        self.atom_count = counts
        self.atom_start = _starts(counts)
        self.packed = atoms
        n = len(atoms)
        self.env = np.array([a.env for a in atoms], np.float64).reshape(n, 4)
        self.first = np.array(
            [a.first for a in atoms], np.float64
        ).reshape(n, 2)
        self.edge_count = np.array(
            [len(a.edges) for a in atoms], dtype=np.intp
        )
        self.edge_start = _starts(self.edge_count)
        self.edges = (
            np.concatenate([a.edges for a in atoms])
            if atoms
            else np.empty((0, 8), np.float64)
        )
        self.nrings = np.array([a.nrings for a in atoms], dtype=np.intp)
        self.nondeg_count = np.array(
            [len(a.nondeg) for a in atoms], dtype=np.intp
        )
        self.nondeg = (
            np.concatenate(
                [a.nondeg + s for a, s in zip(atoms, self.edge_start)]
            )
            if atoms
            else np.empty(0, np.intp)
        )
        self.nondeg_start = _starts(self.nondeg_count)
        self.rings_nondeg = np.array(
            [a.rings_nondeg for a in atoms], dtype=bool
        )
        self.hole_count = np.array(
            [len(a.outer_holes) for a in atoms], dtype=np.intp
        )
        self.hole_start = _starts(self.hole_count)
        self.holes = (
            np.concatenate([a.outer_holes for a in atoms])
            if atoms
            else np.empty((0, 2), np.float64)
        )
        # Geometry envelopes: the union of the atoms' (what
        # ``GeometryCollection.envelope`` computes).
        genv = np.zeros((len(geoms), 4), np.float64)
        live = counts > 0
        if live.any():
            starts = self.atom_start[:-1][live]
            genv[live, 0] = np.minimum.reduceat(self.env[:, 0], starts)
            genv[live, 1] = np.minimum.reduceat(self.env[:, 1], starts)
            genv[live, 2] = np.maximum.reduceat(self.env[:, 2], starts)
            genv[live, 3] = np.maximum.reduceat(self.env[:, 3], starts)
        self.genv = genv

    def rep_points(self, atoms: np.ndarray) -> np.ndarray:
        """Each atom's ``representative_point``, computed on first need
        and cached with its packed edges."""
        out = np.empty((len(atoms), 2), np.float64)
        for i, k in enumerate(atoms.tolist()):
            packed = self.packed[k]
            if packed.rep is None:
                point = self.polygons[k].representative_point()
                packed.rep = (point.x, point.y)
            out[i] = packed.rep
        return out


def _starts(counts: np.ndarray) -> np.ndarray:
    """Offsets of consecutive groups of ``counts`` items (length n+1)."""
    out = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=out[1:])
    return out


def _windows(counts: np.ndarray):
    """Walk the flat space of ``sum(counts)`` items, ``_CHUNK`` at a time,
    yielding each item's group and its index inside the group."""
    offsets = _starts(counts)
    total = int(offsets[-1])
    for lo in range(0, total, _CHUNK):
        flat = np.arange(lo, min(lo + _CHUNK, total), dtype=np.intp)
        group = np.searchsorted(offsets, flat, side="right") - 1
        yield group, flat - offsets[group]


def _product(na: np.ndarray, nb: np.ndarray):
    """All ``(i, j)`` with ``i < na[g]``, ``j < nb[g]`` for each group
    ``g``: returns ``(g, i, j)`` arrays."""
    counts = na * nb
    g = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
    local = np.arange(len(g), dtype=np.intp) - _starts(counts)[:-1][g]
    return g, local // nb[g], local % nb[g]


def _any_by(groups: np.ndarray, mask: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=bool)
    out[groups[mask]] = True
    return out


# ---------------------------------------------------------------------------
# vectorised primitives (each mirrors one scalar function of ``algorithms``)
# ---------------------------------------------------------------------------


def _orientation(v: np.ndarray) -> np.ndarray:
    return (v > EPS).astype(np.int8) - (v < -EPS).astype(np.int8)


def _on_segment(px, py, x0, y0, x1, y1, length, v) -> np.ndarray:
    """``algorithms.on_segment(p, a, b)`` given ``v = orient(a, b, p)``."""
    return (
        (np.abs(v) <= EPS * (1.0 + length))
        & (np.minimum(x0, x1) - EPS <= px)
        & (px <= np.maximum(x0, x1) + EPS)
        & (np.minimum(y0, y1) - EPS <= py)
        & (py <= np.maximum(y0, y1) + EPS)
    )


def _segments_intersect(ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """``algorithms.segments_intersect`` over paired edge rows."""
    ax0, ay0, ax1, ay1 = ea[:, _X0], ea[:, _Y0], ea[:, _X1], ea[:, _Y1]
    bx0, by0, bx1, by1 = eb[:, _X0], eb[:, _Y0], eb[:, _X1], eb[:, _Y1]
    adx, ady = ax1 - ax0, ay1 - ay0
    bdx, bdy = bx1 - bx0, by1 - by0
    v1 = adx * (by0 - ay0) - ady * (bx0 - ax0)  # orient(a, b, c)
    v2 = adx * (by1 - ay0) - ady * (bx1 - ax0)  # orient(a, b, d)
    v3 = bdx * (ay0 - by0) - bdy * (ax0 - bx0)  # orient(c, d, a)
    v4 = bdx * (ay1 - by0) - bdy * (ax1 - bx0)  # orient(c, d, b)
    o1, o2, o3, o4 = map(_orientation, (v1, v2, v3, v4))
    hit = (o1 != o2) & (o3 != o4)
    # Collinear pass: an endpoint on the other segment, only where an
    # orientation is zero and the general test failed.
    rest = np.flatnonzero(
        ~hit & ((o1 == 0) | (o2 == 0) | (o3 == 0) | (o4 == 0))
    )
    if len(rest):
        a, b = ea[rest], eb[rest]
        al, bl = a[:, _LEN], b[:, _LEN]
        a = (a[:, _X0], a[:, _Y0], a[:, _X1], a[:, _Y1])
        b = (b[:, _X0], b[:, _Y0], b[:, _X1], b[:, _Y1])
        touch = (
            ((o1[rest] == 0) & _on_segment(b[0], b[1], *a, al, v1[rest]))
            | ((o2[rest] == 0) & _on_segment(b[2], b[3], *a, al, v2[rest]))
            | ((o3[rest] == 0) & _on_segment(a[0], a[1], *b, bl, v3[rest]))
            | ((o4[rest] == 0) & _on_segment(a[2], a[3], *b, bl, v4[rest]))
        )
        hit[rest] = touch
    return hit


def _edge_contact(
    left: _Side, right: _Side, ka: np.ndarray, kb: np.ndarray
) -> np.ndarray:
    """Per atom pair ``(left atom ka[i], right atom kb[i])``: whether any
    of their edge pairs meets."""
    hits = np.zeros(len(ka), dtype=bool)
    nb = right.edge_count[kb]
    for pair, local in _windows(left.edge_count[ka] * nb):
        ia = left.edge_start[ka[pair]] + local // nb[pair]
        ib = right.edge_start[kb[pair]] + local % nb[pair]
        hit = _segments_intersect(left.edges[ia], right.edges[ib])
        hits[pair[hit]] = True
    return hits


def _locate(
    side: _Side, atoms: np.ndarray, px: np.ndarray, py: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``Polygon.locate_point`` of point ``i`` in atom ``atoms[i]`` (1
    interior, 0 boundary, -1 exterior), and whether the point lies on
    any of the atom's edges at all.

    Per ring, as ``point_in_ring``: the ``on_segment`` boundary check
    over every edge first, then the crossing number; then the shell and
    the holes combine in order, as ``locate_point`` does."""
    nq = len(atoms)
    if nq == 0:
        return np.zeros(0, np.int8), np.zeros(0, dtype=bool)
    nrings = side.nrings[atoms]
    ring_start = _starts(nrings)
    total = int(ring_start[-1])
    on_ring = np.zeros(total, dtype=np.intp)
    flips = np.zeros(total, dtype=np.intp)
    for q, local in _windows(side.edge_count[atoms]):
        e = side.edges[side.edge_start[atoms[q]] + local]
        x, y = px[q], py[q]
        x0, y0, x1, y1 = e[:, _X0], e[:, _Y0], e[:, _X1], e[:, _Y1]
        v = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
        on = _on_segment(x, y, x0, y0, x1, y1, e[:, _LEN], v)
        # point_in_ring's pair (ring[i], ring[j]) is this edge's
        # (end, start).
        span = np.flatnonzero((y1 > y) != (y0 > y))
        flip = np.zeros(len(e), dtype=bool)
        xs = x1[span] + (y[span] - y1[span]) * (x0[span] - x1[span]) / (
            y0[span] - y1[span]
        )
        flip[span] = x[span] < xs
        key = ring_start[q] + e[:, _RING].astype(np.intp)
        base = int(key[0])
        size = int(key[-1]) - base + 1
        on_ring[base:base + size] += np.bincount(
            key[on] - base, minlength=size
        )
        flips[base:base + size] += np.bincount(
            key[flip] - base, minlength=size
        )
    ring_loc = np.where(on_ring > 0, 0, np.where(flips % 2 == 1, 1, -1))
    loc = ring_loc[ring_start[:-1]].astype(np.int8)
    # Inside the shell: the first hole that holds or touches the point
    # decides (0 on its boundary, -1 inside it).
    query_of_ring = np.repeat(np.arange(nq, dtype=np.intp), nrings)
    is_hole = np.ones(total, dtype=bool)
    is_hole[ring_start[:-1]] = False
    hit = np.flatnonzero(is_hole & (ring_loc >= 0))
    if len(hit):
        queries, first = np.unique(query_of_ring[hit], return_index=True)
        inside = loc[queries] == 1
        loc[queries[inside]] = np.where(ring_loc[hit[first]] == 0, 0, -1)[
            inside
        ]
    return loc, np.add.reduceat(on_ring, ring_start[:-1]) > 0


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def _env_intersects(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (
        (a[:, 0] <= b[:, 2])
        & (b[:, 0] <= a[:, 2])
        & (a[:, 1] <= b[:, 3])
        & (b[:, 1] <= a[:, 3])
    )


def _env_contains(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (
        (a[:, 0] <= b[:, 0])
        & (a[:, 1] <= b[:, 1])
        & (a[:, 2] >= b[:, 2])
        & (a[:, 3] >= b[:, 3])
    )


def _atom_pairs(left: _Side, right: _Side, gl, gr, env_test):
    """The atom pairs of geometry pairs ``(gl[u], gr[u])`` that pass
    ``env_test`` on the whole geometries' envelopes and then on the two
    atoms' (the scalar predicates recurse into parts the same way):
    ``(rows passing, u, left atom, right atom, right part index)``."""
    rows = np.flatnonzero(env_test(left.genv[gl], right.genv[gr]))
    gl, gr = gl[rows], gr[rows]
    u, i, j = _product(left.atom_count[gl], right.atom_count[gr])
    ka = left.atom_start[gl][u] + i
    kb = right.atom_start[gr][u] + j
    live = env_test(left.env[ka], right.env[kb])
    return rows, rows[u[live]], ka[live], kb[live], j[live]


def _intersects(left: _Side, right: _Side, gl, gr) -> np.ndarray:
    _, u, ka, kb, _ = _atom_pairs(left, right, gl, gr, _env_intersects)
    hit = _edge_contact(left, right, ka, kb)
    rest = np.flatnonzero(~hit)
    if len(rest):
        a, b = ka[rest], kb[rest]
        first_b, first_a = right.first[b], left.first[a]
        b_in_a, _ = _locate(left, a, first_b[:, 0], first_b[:, 1])
        a_in_b, _ = _locate(right, b, first_a[:, 0], first_a[:, 1])
        hit[rest] = (b_in_a >= 0) | (a_in_b >= 0)
    return _any_by(u, hit, len(gl))


def _covers(outer: _Side, inner: _Side, ka: np.ndarray, kb: np.ndarray):
    """``_polygon_covers_polygon(outer atom, inner atom, strict=False)``
    for atom pairs with no edge contact: every non-degenerate edge
    midpoint of ``inner`` on the boundary of or inside ``outer``, and no
    hole of ``outer`` whose centroid lies outside ``outer`` but inside
    ``inner``."""
    ok = inner.rings_nondeg[kb].copy()
    p, _, j = _product(np.ones(len(kb), np.intp), inner.nondeg_count[kb])
    mids = inner.edges[inner.nondeg[inner.nondeg_start[kb[p]] + j]]
    loc, on_any = _locate(outer, ka[p], mids[:, _MX], mids[:, _MY])
    ok &= ~_any_by(p, ~(on_any | (loc > 0)), len(kb))
    p, _, j = _product(np.ones(len(ka), np.intp), outer.hole_count[ka])
    if len(p):
        holes = outer.holes[outer.hole_start[ka[p]] + j]
        loc, _ = _locate(inner, kb[p], holes[:, 0], holes[:, 1])
        ok &= ~_any_by(p, loc > 0, len(ka))
    return ok


def _contains(outer: _Side, inner: _Side, go, gi):
    """``predicates.contains(outer, inner)``: ``(verdict, decided)``."""
    n = len(go)
    rows, u, ka, kb, part = _atom_pairs(outer, inner, go, gi, _env_contains)
    # Each (row, inner part) gets one slot for its coverage verdict.
    slot = _starts(inner.atom_count[gi])[u] + part
    nslots = int(inner.atom_count[gi].sum())
    cover = np.zeros(len(u), dtype=bool)
    strict = np.zeros(len(u), dtype=bool)
    unknown = _edge_contact(outer, inner, ka, kb)
    clean = np.flatnonzero(~unknown)
    cover[clean] = _covers(outer, inner, ka[clean], kb[clean])
    covered = clean[cover[clean]]
    if len(covered):
        rep = inner.rep_points(kb[covered])
        loc, _ = _locate(outer, ka[covered], rep[:, 0], rep[:, 1])
        strict[covered] = loc > 0
    # Three-valued combination over parts, as ``predicates.contains``
    # nests them: a slot is covered if some container part covers it,
    # uncovered if none does and none had contact.
    slot_cover = _any_by(slot, cover, nslots)
    slot_unknown = _any_by(slot, unknown, nslots) & ~slot_cover
    slot_row = np.repeat(
        np.arange(n, dtype=np.intp), inner.atom_count[gi]
    )
    in_rows = np.zeros(n, dtype=bool)
    in_rows[rows] = True
    uncovered = _any_by(slot_row, ~slot_cover & ~slot_unknown, n)
    all_covered = ~_any_by(slot_row, ~slot_cover, n)
    any_strict = _any_by(u, strict, n)
    row_unknown = _any_by(u, unknown, n)
    both_multi = outer.multi[go] & inner.multi[gi]
    verdict = in_rows & ~uncovered & all_covered & any_strict
    # False when the envelopes refute it, when a part is left uncovered,
    # or when every part is covered, no pair had contact and no pair
    # holds strictly.  Two multi-part operands with no strict pair need
    # the scalar ``overlaps`` witness, which the kernel does not batch.
    refuted = (
        ~in_rows
        | uncovered
        | (all_covered & ~any_strict & ~row_unknown & ~both_multi)
    )
    return verdict, verdict | refuted


def relate(
    name: str,
    left: Sequence[Geometry],
    right: Sequence[Geometry],
    li: np.ndarray,
    ri: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``name(left[li[k]], right[ri[k]])`` for every ``k``, with ``name``
    one of :data:`PREDICATES`: returns ``(verdict, decided)`` boolean
    arrays.  A pair is undecided when an operand is not a non-empty
    Polygon or MultiPolygon, when a ring cannot be packed exactly, or
    (``within`` / ``contains``) when it needs the scalar edge splitter;
    its verdict is then meaningless and the caller must judge it with
    :mod:`repro.geometry.predicates`.  Both operands must share an SRID.
    """
    if name not in PREDICATES:
        raise ValueError(f"no batched kernel for {name!r}")
    li = np.asarray(li, dtype=np.intp)
    ri = np.asarray(ri, dtype=np.intp)
    if len(li) == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)
    # Distinct geometries on each side, then distinct pairs: rows that
    # repeat a pair (one hotspot over many triples) are decided once.
    lu, lslot = np.unique(li, return_inverse=True)
    ru, rslot = np.unique(ri, return_inverse=True)
    left_side = _Side([left[k] for k in lu.tolist()])
    right_side = _Side([right[k] for k in ru.tolist()])
    pairs, row_pair = np.unique(
        lslot * len(ru) + rslot, return_inverse=True
    )
    gl, gr = pairs // len(ru), pairs % len(ru)
    usable = np.flatnonzero(left_side.ok[gl] & right_side.ok[gr])
    gl, gr = gl[usable], gr[usable]
    if name == "intersects":
        v = _intersects(left_side, right_side, gl, gr)
        d = np.ones(len(usable), dtype=bool)
    elif name == "contains":
        v, d = _contains(left_side, right_side, gl, gr)
    else:
        v, d = _contains(right_side, left_side, gr, gl)
    pair_verdict = np.zeros(len(pairs), dtype=bool)
    pair_decided = np.zeros(len(pairs), dtype=bool)
    pair_verdict[usable] = v
    pair_decided[usable] = d
    return pair_verdict[row_pair], pair_decided[row_pair]
