"""Property-based tests for the geometry engine (hypothesis)."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry import (
    Envelope,
    LineString,
    Point,
    Polygon,
    from_wkt,
    to_wkt,
)
from repro.geometry import algorithms as alg
from repro.geometry.multi import flatten

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
coord = st.tuples(finite, finite)
small = st.floats(min_value=-100, max_value=100, allow_nan=False)
small_coord = st.tuples(small, small)


def _convex_polygon(points):
    hull = alg.convex_hull(points)
    assume(len(hull) >= 3)
    # Extreme slivers defeat float point-location; require real area.
    assume(abs(alg.ring_signed_area(hull)) > 1e-3)
    return Polygon(hull)


convex_polys = st.lists(small_coord, min_size=3, max_size=12).map(
    _convex_polygon
)


class TestWktRoundtrip:
    @given(x=finite, y=finite)
    def test_point_roundtrip(self, x, y):
        p = Point(x, y)
        back = from_wkt(to_wkt(p))
        assert math.isclose(back.x, x, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(back.y, y, rel_tol=1e-12, abs_tol=1e-12)

    @given(coords=st.lists(coord, min_size=2, max_size=20, unique=True))
    def test_linestring_roundtrip(self, coords):
        line = LineString(coords)
        back = from_wkt(to_wkt(line))
        assert len(list(back.coords())) == len(list(line.coords()))

    @given(poly=convex_polys)
    def test_polygon_roundtrip_area(self, poly):
        back = from_wkt(to_wkt(poly))
        assert math.isclose(back.area, poly.area, rel_tol=1e-9)


class TestRingInvariants:
    @given(pts=st.lists(small_coord, min_size=3, max_size=30, unique=True))
    def test_convex_hull_contains_all_points(self, pts):
        hull = alg.convex_hull(pts)
        assume(len(hull) >= 3)
        for p in pts:
            assert alg.point_in_ring(p, hull) >= 0

    @given(pts=st.lists(small_coord, min_size=3, max_size=30, unique=True))
    def test_convex_hull_never_clockwise(self, pts):
        # Degenerate near-collinear inputs may cancel to exactly zero
        # area in floats, so the invariant is "never clockwise".
        hull = alg.convex_hull(pts)
        assume(len(hull) >= 3)
        assert alg.ring_signed_area(hull) >= 0

    @given(poly=convex_polys)
    def test_reversed_ring_negates_area(self, poly):
        ring = list(poly.shell.coords())
        assert math.isclose(
            alg.ring_signed_area(ring),
            -alg.ring_signed_area(list(reversed(ring))),
            rel_tol=1e-9,
        )

    @given(poly=convex_polys)
    def test_centroid_inside_convex_polygon(self, poly):
        c = poly.centroid
        assert poly.locate_point(c.x, c.y) >= 0


class TestDistanceProperties:
    @given(a=small_coord, b=small_coord)
    def test_distance_symmetry(self, a, b):
        pa, pb = Point(*a), Point(*b)
        assert math.isclose(
            pa.distance(pb), pb.distance(pa), rel_tol=1e-12, abs_tol=1e-12
        )

    @given(a=small_coord, b=small_coord, c=small_coord)
    def test_triangle_inequality(self, a, b, c):
        pa, pb, pc = Point(*a), Point(*b), Point(*c)
        assert pa.distance(pc) <= pa.distance(pb) + pb.distance(pc) + 1e-9

    @given(poly=convex_polys, p=small_coord)
    def test_point_polygon_distance_consistent_with_containment(
        self, poly, p
    ):
        pt = Point(*p)
        d = pt.distance(poly)
        if poly.locate_point(pt.x, pt.y) > 0:
            assert d == 0.0
        else:
            assert d >= 0.0


class TestOverlayProperties:
    @settings(max_examples=40, deadline=None)
    @given(a=convex_polys, b=convex_polys)
    def test_intersection_area_bounded(self, a, b):
        inter = a.intersection(b)
        area = sum(g.area for g in flatten(inter))
        assert area <= min(a.area, b.area) + 1e-5 + 0.01 * min(a.area, b.area)

    @settings(max_examples=40, deadline=None)
    @given(a=convex_polys, b=convex_polys)
    def test_inclusion_exclusion(self, a, b):
        inter = sum(g.area for g in flatten(a.intersection(b)))
        union = sum(g.area for g in flatten(a.union(b)))
        expected = a.area + b.area - inter
        assert math.isclose(union, expected, rel_tol=0.02, abs_tol=1e-4)

    @settings(max_examples=40, deadline=None)
    @given(a=convex_polys, b=convex_polys)
    def test_difference_plus_intersection(self, a, b):
        inter = sum(g.area for g in flatten(a.intersection(b)))
        diff = sum(g.area for g in flatten(a.difference(b)))
        assert math.isclose(
            diff + inter, a.area, rel_tol=0.02, abs_tol=1e-4
        )


class TestEnvelopeProperties:
    @given(c1=coord, c2=coord, c3=coord)
    def test_union_is_commutative_and_covers(self, c1, c2, c3):
        a = Envelope.of_coords([c1, c2])
        b = Envelope.of_coords([c2, c3])
        assert a.union(b) == b.union(a)
        assert a.union(b).contains(a)
        assert a.union(b).contains(b)

    @given(c1=coord, c2=coord, c3=coord, c4=coord)
    def test_intersects_symmetric(self, c1, c2, c3, c4):
        a = Envelope.of_coords([c1, c2])
        b = Envelope.of_coords([c3, c4])
        assert a.intersects(b) == b.intersects(a)

    @given(c1=coord, c2=coord, c3=coord, c4=coord)
    def test_intersection_contained_in_both(self, c1, c2, c3, c4):
        a = Envelope.of_coords([c1, c2])
        b = Envelope.of_coords([c3, c4])
        inter = a.intersection(b)
        if not inter.is_empty:
            assert a.contains(inter)
            assert b.contains(inter)


class TestSimplifyProperties:
    @given(
        coords=st.lists(small_coord, min_size=2, max_size=30, unique=True),
        tol=st.floats(min_value=0.001, max_value=10),
    )
    def test_simplified_line_not_longer(self, coords, tol):
        line = LineString(coords)
        out = line.simplify(tol)
        assert out.length <= line.length + 1e-9

    @given(coords=st.lists(small_coord, min_size=2, max_size=30, unique=True))
    def test_simplify_keeps_endpoints(self, coords):
        line = LineString(coords)
        out = line.simplify(1.0)
        out_coords = list(out.coords())
        line_coords = list(line.coords())
        assert out_coords[0] == line_coords[0]
        assert out_coords[-1] == line_coords[-1]
