"""Topological predicates between geometries.

The dispatch layer beneath ``Geometry.intersects`` and friends.  Semantics
follow OGC Simple Features (as implemented by PostGIS):

* ``intersects`` — closures share a point.
* ``contains(a, b)`` — ``b`` within the closure of ``a`` *and* the interiors
  intersect (so a point on a polygon's boundary is **not** contained).
* ``covers(a, b)`` — ``b`` within the closure of ``a`` (boundary counts).
* ``touches`` — closures intersect but interiors do not.
* ``crosses`` / ``overlaps`` / ``equals`` — the usual DE-9IM derivations.

All predicates first reject on envelopes, so they stay cheap for the
index-refined candidate sets that the Strabon store feeds them.
"""

from __future__ import annotations

from itertools import product
from typing import List, Tuple

from repro.geometry import algorithms, linework
from repro.geometry.algorithms import Coord
from repro.geometry.base import Geometry
from repro.geometry.linestring import LineString
from repro.geometry.multi import GeometryCollection
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon


def _atoms(geom: Geometry) -> List[Geometry]:
    return list(geom._component_geometries())


def _line_coords(line: LineString) -> List[Coord]:
    from repro.geometry.linestring import LinearRing

    if isinstance(line, LinearRing):
        return line.closed_coords()
    return list(line.coords())


# ---------------------------------------------------------------------------
# intersects
# ---------------------------------------------------------------------------


def intersects(a: Geometry, b: Geometry) -> bool:
    """Whether the closures of ``a`` and ``b`` share at least one point."""
    if a.is_empty or b.is_empty:
        return False
    if not a.envelope.intersects(b.envelope):
        return False
    if isinstance(a, GeometryCollection) or isinstance(b, GeometryCollection):
        return any(
            intersects(x, y) for x, y in product(_atoms(a), _atoms(b))
        )
    return _atom_intersects(a, b)


def _atom_intersects(a: Geometry, b: Geometry) -> bool:
    if isinstance(a, Point) and isinstance(b, Point):
        return algorithms.coords_equal(a.coord, b.coord)
    if isinstance(a, Point):
        return _point_on(b, a)
    if isinstance(b, Point):
        return _point_on(a, b)
    if isinstance(a, LineString) and isinstance(b, LineString):
        return _lines_intersect(a, b)
    if isinstance(a, LineString) and isinstance(b, Polygon):
        return _line_polygon_intersect(a, b)
    if isinstance(a, Polygon) and isinstance(b, LineString):
        return _line_polygon_intersect(b, a)
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        return _polygons_intersect(a, b)
    raise TypeError(
        f"unsupported operand types {a.geom_type}/{b.geom_type}"
    )


def _point_on(geom: Geometry, p: Point) -> bool:
    if isinstance(geom, LineString):
        coords = _line_coords(geom)
        return any(
            algorithms.on_segment(p.coord, coords[i], coords[i + 1])
            for i in range(len(coords) - 1)
        )
    if isinstance(geom, Polygon):
        return geom.locate_point(p.x, p.y) >= 0
    raise TypeError(f"unsupported operand type {geom.geom_type}")


def _lines_intersect(a: LineString, b: LineString) -> bool:
    ca, cb = _line_coords(a), _line_coords(b)
    for i in range(len(ca) - 1):
        for j in range(len(cb) - 1):
            if algorithms.segments_intersect(
                ca[i], ca[i + 1], cb[j], cb[j + 1]
            ):
                return True
    return False


def _line_polygon_intersect(line: LineString, poly: Polygon) -> bool:
    coords = _line_coords(line)
    if any(poly.locate_point(x, y) >= 0 for x, y in coords):
        return True
    boundary = linework.polygon_boundary_segments(poly)
    for i in range(len(coords) - 1):
        for c, d in boundary:
            if algorithms.segments_intersect(coords[i], coords[i + 1], c, d):
                return True
    return False


def _polygons_intersect(a: Polygon, b: Polygon) -> bool:
    # Any boundary crossing?
    segs_a = linework.polygon_boundary_segments(a)
    segs_b = linework.polygon_boundary_segments(b)
    for p, q in segs_a:
        for r, s in segs_b:
            if algorithms.segments_intersect(p, q, r, s):
                return True
    # No crossing: one may contain the other entirely.
    ax, ay = next(a.shell.coords())
    bx, by = next(b.shell.coords())
    return a.locate_point(bx, by) >= 0 or b.locate_point(ax, ay) >= 0


# ---------------------------------------------------------------------------
# covers / contains
# ---------------------------------------------------------------------------


def covers(a: Geometry, b: Geometry) -> bool:
    """Whether every point of ``b`` lies in the closure of ``a``."""
    if a.is_empty or b.is_empty:
        return False
    if not a.envelope.contains(b.envelope):
        return False
    if isinstance(b, GeometryCollection):
        return all(covers(a, part) for part in _atoms(b))
    if isinstance(a, GeometryCollection):
        # Sufficient test: some single part covers b (unions of parts that
        # jointly cover are not detected; acceptable approximation).
        return any(covers(part, b) for part in _atoms(a))
    return _atom_covers(a, b, strict=False)


def contains(a: Geometry, b: Geometry) -> bool:
    """OGC contains: ``covers`` plus interior-interior intersection."""
    if a.is_empty or b.is_empty:
        return False
    if not a.envelope.contains(b.envelope):
        return False
    if isinstance(b, GeometryCollection):
        parts = _atoms(b)
        return bool(parts) and all(covers(a, p) for p in parts) and any(
            _interiors_meet(a, p) for p in parts
        )
    if isinstance(a, GeometryCollection):
        return any(contains(part, b) for part in _atoms(a))
    return _atom_covers(a, b, strict=True)


def _interiors_meet(a: Geometry, b: Geometry) -> bool:
    if isinstance(a, GeometryCollection):
        return any(_interiors_meet(p, b) for p in _atoms(a))
    return _atom_covers(a, b, strict=True) or crosses(a, b) or overlaps(a, b)


def _atom_covers(a: Geometry, b: Geometry, strict: bool) -> bool:
    if isinstance(a, Point):
        return isinstance(b, Point) and algorithms.coords_equal(
            a.coord, b.coord
        )
    if isinstance(a, LineString):
        if isinstance(b, Point):
            return _point_on(a, b)
        if isinstance(b, LineString):
            return _line_covers_line(a, b)
        return False  # a line cannot cover a polygon
    if isinstance(a, Polygon):
        if isinstance(b, Point):
            where = a.locate_point(b.x, b.y)
            return where > 0 if strict else where >= 0
        if isinstance(b, LineString):
            return linework.path_within_polygon(_line_coords(b), a, strict)
        if isinstance(b, Polygon):
            return _polygon_covers_polygon(a, b, strict)
    raise TypeError(f"unsupported operand type {a.geom_type}")


def _line_covers_line(a: LineString, b: LineString) -> bool:
    ca = _line_coords(a)
    cb = _line_coords(b)
    # Every sub-segment midpoint and vertex of b must lie on a.
    samples: List[Coord] = list(cb)
    for i in range(len(cb) - 1):
        samples.append(
            ((cb[i][0] + cb[i + 1][0]) / 2, (cb[i][1] + cb[i + 1][1]) / 2)
        )
    for p in samples:
        if not any(
            algorithms.on_segment(p, ca[i], ca[i + 1])
            for i in range(len(ca) - 1)
        ):
            return False
    return True


def _polygon_covers_polygon(a: Polygon, b: Polygon, strict: bool) -> bool:
    # Every ring of b must stay out of a's exterior.
    for ring in b.rings():
        if not linework.path_within_polygon(
            ring.closed_coords(), a, strict=False
        ):
            return False
    # No hole of a may poke into b's interior.
    for hole in a.holes:
        hx, hy = algorithms.ring_centroid(list(hole.coords()))
        if b.locate_point(hx, hy) > 0 and a.locate_point(hx, hy) < 0:
            return False
    if strict:
        # Need an interior-interior witness.
        rep = b.representative_point()
        return a.locate_point(rep.x, rep.y) > 0
    return True


# ---------------------------------------------------------------------------
# touches / crosses / overlaps / equals
# ---------------------------------------------------------------------------


def touches(a: Geometry, b: Geometry) -> bool:
    """Closures intersect, interiors do not."""
    if not intersects(a, b):
        return False
    return not _interior_interior(a, b)


def crosses(a: Geometry, b: Geometry) -> bool:
    """Interiors intersect and the result is lower-dimensional than the
    higher-dimensional operand (line crossing polygon, lines crossing)."""
    da, db = _dimension(a), _dimension(b)
    if da > db:
        return crosses(b, a)
    if not intersects(a, b):
        return False
    if da == 0 and db > 0:
        # Multipoint with some points in, some out.
        pts = [g for g in _atoms(a) if isinstance(g, Point)]
        if len(pts) < 2:
            return False
        inside = sum(1 for p in pts if _interior_interior(p, b))
        return 0 < inside < len(pts)
    if da == 1 and db == 1:
        return _lines_properly_cross(a, b)
    if da == 1 and db == 2:
        has_in, _, has_out = _path_classification(a, b)
        return has_in and has_out
    return False


def overlaps(a: Geometry, b: Geometry) -> bool:
    """Same-dimension partial interior sharing (neither covers the other)."""
    if _dimension(a) != _dimension(b):
        return False
    if not _interior_interior(a, b):
        return False
    return not covers(a, b) and not covers(b, a)


def equals(a: Geometry, b: Geometry) -> bool:
    """Spatial equality: mutual coverage."""
    if a.is_empty and b.is_empty:
        return True
    if a.is_empty or b.is_empty:
        return False
    return covers(a, b) and covers(b, a)


def relate(a: Geometry, b: Geometry) -> str:
    """A human-readable relation summary (not a full DE-9IM matrix)."""
    checks = (
        ("equals", equals),
        ("contains", contains),
        ("within", lambda x, y: contains(y, x)),
        ("overlaps", overlaps),
        ("crosses", crosses),
        ("touches", touches),
        ("intersects", intersects),
    )
    for name, fn in checks:
        try:
            if fn(a, b):
                return name
        except TypeError:
            continue
    return "disjoint"


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _dimension(geom: Geometry) -> int:
    dims = []
    for g in _atoms(geom):
        if isinstance(g, Point):
            dims.append(0)
        elif isinstance(g, LineString):
            dims.append(1)
        elif isinstance(g, Polygon):
            dims.append(2)
    return max(dims) if dims else -1


def _interior_interior(a: Geometry, b: Geometry) -> bool:
    """Whether the interiors of ``a`` and ``b`` share a point."""
    if isinstance(a, GeometryCollection) or isinstance(b, GeometryCollection):
        return any(
            _interior_interior(x, y)
            for x, y in product(_atoms(a), _atoms(b))
        )
    if isinstance(a, Point) and isinstance(b, Point):
        return algorithms.coords_equal(a.coord, b.coord)
    if isinstance(a, Point):
        return _point_in_interior(b, a)
    if isinstance(b, Point):
        return _point_in_interior(a, b)
    if isinstance(a, LineString) and isinstance(b, LineString):
        return _lines_properly_cross(a, b) or _lines_share_segment(a, b)
    if isinstance(a, LineString) and isinstance(b, Polygon):
        has_in, _, _ = _path_classification(a, b)
        return has_in
    if isinstance(a, Polygon) and isinstance(b, LineString):
        return _interior_interior(b, a)
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        return _polygon_interiors_meet(a, b)
    raise TypeError(
        f"unsupported operand types {a.geom_type}/{b.geom_type}"
    )


def _point_in_interior(geom: Geometry, p: Point) -> bool:
    if isinstance(geom, Polygon):
        return geom.locate_point(p.x, p.y) > 0
    if isinstance(geom, LineString):
        coords = _line_coords(geom)
        endpoints = (
            ()
            if getattr(geom, "is_closed", False)
            else (coords[0], coords[-1])
        )
        if any(algorithms.coords_equal(p.coord, e) for e in endpoints):
            return False
        return _point_on(geom, p)
    raise TypeError(f"unsupported operand type {geom.geom_type}")


def _lines_properly_cross(a: Geometry, b: Geometry) -> bool:
    for la in _atoms(a):
        if not isinstance(la, LineString):
            continue
        ca = _line_coords(la)
        for lb in _atoms(b):
            if not isinstance(lb, LineString):
                continue
            cb = _line_coords(lb)
            for i in range(len(ca) - 1):
                for j in range(len(cb) - 1):
                    p = algorithms.segment_intersection_point(
                        ca[i], ca[i + 1], cb[j], cb[j + 1]
                    )
                    if p is None:
                        continue
                    if _is_line_endpoint(p, ca) or _is_line_endpoint(p, cb):
                        continue
                    return True
    return False


def _is_line_endpoint(p: Coord, coords: List[Coord]) -> bool:
    return algorithms.coords_equal(p, coords[0]) or algorithms.coords_equal(
        p, coords[-1]
    )


def _lines_share_segment(a: Geometry, b: Geometry) -> bool:
    for la in _atoms(a):
        ca = _line_coords(la)
        for lb in _atoms(b):
            cb = _line_coords(lb)
            for i in range(len(ca) - 1):
                mid = (
                    (ca[i][0] + ca[i + 1][0]) / 2,
                    (ca[i][1] + ca[i + 1][1]) / 2,
                )
                for j in range(len(cb) - 1):
                    if algorithms.on_segment(mid, cb[j], cb[j + 1]):
                        return True
    return False


def _path_classification(
    line: Geometry, poly: Polygon
) -> Tuple[bool, bool, bool]:
    has_in = has_bnd = has_out = False
    for part in _atoms(line):
        if not isinstance(part, LineString):
            continue
        i, b, o = linework.path_polygon_crossings(_line_coords(part), poly)
        has_in = has_in or i
        has_bnd = has_bnd or b
        has_out = has_out or o
    return has_in, has_bnd, has_out


def _polygon_interiors_meet(a: Polygon, b: Polygon) -> bool:
    # A boundary crossing between shells almost always implies shared
    # interior; verify with a sampled witness point to rule out touching.
    if covers(a, b) or covers(b, a):
        return True
    segs_a = linework.polygon_boundary_segments(a)
    segs_b = linework.polygon_boundary_segments(b)
    for p, q in segs_a:
        pieces = linework.split_path_by_polygon([p, q], b)
        for where, coords in pieces:
            if where != linework.INTERIOR:
                continue
            mid = (
                (coords[0][0] + coords[-1][0]) / 2,
                (coords[0][1] + coords[-1][1]) / 2,
            )
            if a.locate_point(mid[0], mid[1]) >= 0:
                return True
    for p, q in segs_b:
        pieces = linework.split_path_by_polygon([p, q], a)
        for where, coords in pieces:
            if where == linework.INTERIOR:
                return True
    # Identical boundaries / shared-area cases: test vertices and centroid.
    for x, y in b.shell.coords():
        if a.locate_point(x, y) > 0:
            return True
    cx, cy = algorithms.ring_centroid(list(b.shell.coords()))
    return a.locate_point(cx, cy) > 0 and b.locate_point(cx, cy) > 0
