"""The batched exact predicates agree with the scalar reference.

``batch.relate`` must return, for every pair it decides, exactly what
``predicates.intersects`` / ``predicates.contains`` return.  Inputs are
dyadic polygons and multipolygons built to hit the degenerate cases the
scalar code's tolerances exist for: donuts, holes inside the other
operand, shared and collinear edges, shared vertices, and vertices moved
by about ``EPS``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    LineString,
    MultiPolygon,
    Point,
    Polygon,
    batch,
    from_wkt,
    predicates,
)

#: Offsets around ``EPS`` (1e-9): 2**-31 and 2**-30 fall inside it,
#: 2**-29 just outside.
NUDGES = (0.0, 2.0**-31, -(2.0**-31), 2.0**-30, -(2.0**-30), 2.0**-29)

grid = st.integers(-16, 16).map(lambda i: i * 0.25)
size = st.integers(1, 16).map(lambda i: i * 0.25)
nudge = st.sampled_from(NUDGES)

OCTAGON = (
    (2.0, 0.0), (1.5, 1.5), (0.0, 2.0), (-1.5, 1.5),
    (-2.0, 0.0), (-1.5, -1.5), (0.0, -2.0), (1.5, -1.5),
)


def scalar(name, a, b):
    if name == "within":
        return predicates.contains(b, a)
    if name == "contains":
        return predicates.contains(a, b)
    return predicates.intersects(a, b)


@st.composite
def rects(draw):
    x, y, w, h = draw(grid), draw(grid), draw(size), draw(size)
    ring = [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
    if draw(st.booleans()):
        # A collinear vertex in the middle of the bottom edge.
        ring.insert(1, (x + w / 2, y))
    return ring


@st.composite
def polygons(draw):
    kind = draw(st.sampled_from(["rect", "octagon", "donut", "notch"]))
    if kind == "octagon":
        cx, cy = draw(grid), draw(grid)
        scale = draw(st.sampled_from([0.5, 1.0, 1.5]))
        picks = sorted(
            draw(st.sets(st.integers(0, 7), min_size=3, max_size=8))
        )
        ring = [
            (cx + OCTAGON[i][0] * scale, cy + OCTAGON[i][1] * scale)
            for i in picks
        ]
        holes = []
    elif kind == "donut":
        x, y = draw(grid), draw(grid)
        w, h = draw(st.integers(3, 12)), draw(st.integers(3, 12))
        ring = [(x, y), (x + w * 0.5, y), (x + w * 0.5, y + h * 0.5),
                (x, y + h * 0.5)]
        hx = x + 0.5 * draw(st.integers(1, w - 2))
        hy = y + 0.5 * draw(st.integers(1, h - 2))
        holes = [[(hx, hy), (hx + 0.5, hy), (hx + 0.5, hy + 0.5),
                  (hx, hy + 0.5)]]
    elif kind == "notch":
        # A concave L: the bounding square minus its top-right quarter.
        x, y, s = draw(grid), draw(grid), draw(size)
        ring = [(x, y), (x + 2 * s, y), (x + 2 * s, y + s),
                (x + s, y + s), (x + s, y + 2 * s), (x, y + 2 * s)]
        holes = []
    else:
        ring, holes = draw(rects()), []
    moved = draw(
        st.lists(nudge, min_size=2 * len(ring), max_size=2 * len(ring))
    )
    ring = [
        (px + moved[2 * i], py + moved[2 * i + 1])
        for i, (px, py) in enumerate(ring)
    ]
    return Polygon(ring, holes=holes)


@st.composite
def related(draw, base):
    """A polygon built from ``base``: shifted along the grid (shared
    edges and vertices), a rectangle around one of its holes, a fan on
    one of its edges, or a copy with nudged vertices."""
    how = draw(st.sampled_from(["shift", "hole", "fan", "nudge"]))
    shell = list(base.shell.coords())
    if how == "hole" and base.holes:
        hole = base.holes[0].envelope
        pad = draw(st.sampled_from([0.0, 0.25, 0.5]))
        dx, dy = draw(st.sampled_from([0.0, 0.25, 0.5])), draw(nudge)
        return Polygon(
            [
                (hole.minx - pad, hole.miny - pad + dy),
                (hole.maxx + pad + dx, hole.miny - pad),
                (hole.maxx + pad + dx, hole.maxy + pad),
                (hole.minx - pad, hole.maxy + pad),
            ]
        )
    if how == "fan":
        i = draw(st.integers(0, len(shell) - 1))
        (ax, ay), (bx, by) = shell[i], shell[(i + 1) % len(shell)]
        out = draw(st.sampled_from([-1.0, -0.5, 0.5, 1.0]))
        mx, my = (ax + bx) / 2, (ay + by) / 2
        apex = (mx - (by - ay) * out, my + (bx - ax) * out)
        return Polygon(
            [(ax + draw(nudge), ay), (bx, by + draw(nudge)), apex]
        )
    if how == "nudge":
        return Polygon(
            [(x + draw(nudge), y + draw(nudge)) for x, y in shell]
        )
    dx, dy = draw(grid), draw(grid)
    return Polygon(
        [(x + dx, y + dy) for x, y in shell],
        holes=[
            [(x + dx, y + dy) for x, y in h.coords()] for h in base.holes
        ],
    )


@st.composite
def operands(draw):
    a = draw(polygons())
    b = draw(st.one_of(polygons(), related(a)))
    if draw(st.booleans()):
        b, a = a, b
    if draw(st.integers(0, 3)) == 0:
        a = MultiPolygon([a, draw(polygons())])
    if draw(st.integers(0, 3)) == 0:
        b = MultiPolygon([draw(st.one_of(polygons(), related(b))), b])
    return a, b


def check(pairs):
    left = [a for a, _ in pairs]
    right = [b for _, b in pairs]
    index = np.arange(len(pairs))
    for name in batch.PREDICATES:
        verdict, decided = batch.relate(name, left, right, index, index)
        if name == "intersects":
            assert decided.all()
        for k, (a, b) in enumerate(pairs):
            if decided[k]:
                assert bool(verdict[k]) == scalar(name, a, b), (
                    name, a.wkt, b.wkt
                )


HARD_CASES = {
    # Triangles sharing a vertex but for 2**-30 in y: only the collinear
    # pass of the edge test sees the touch.
    "eps-touch": (
        from_wkt("POLYGON ((5 1, 4.5 2.5, 3 3, 5 1))"),
        from_wkt("POLYGON ((2.5 4.5, 4.5 2.5000000009313226, 6 3, 2.5 4.5))"),
    ),
    # The container's hole lies inside the contained rectangle, whose
    # representative point is in the container's interior.
    "hole-inside": (
        from_wkt(
            "POLYGON ((0.75 0.75, 3.5 0.75, 3.5 3.5, 0.75 3.5, 0.75 0.75))"
        ),
        from_wkt(
            "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 1 2, 2 2, 2 1, 1 1))"
        ),
    ),
    # Parts whose envelopes are EPS apart: the per-part envelope reject
    # decides, the edge test alone would see a touch.
    "eps-apart-parts": (
        from_wkt(
            "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), "
            "((5 5, 6 5, 6 6, 5 6, 5 5)))"
        ),
        from_wkt(
            "POLYGON ((1.0000000004656613 0, 2 0, 2 1, "
            "1.0000000004656613 1, 1.0000000004656613 0))"
        ),
    ),
}


class TestBatchMatchesScalar:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(operands(), min_size=1, max_size=6))
    def test_verdicts_match_scalar(self, pairs):
        check(pairs)

    @pytest.mark.parametrize("case", sorted(HARD_CASES))
    def test_hard_cases(self, case):
        a, b = HARD_CASES[case]
        check([(a, b), (b, a)])

    def test_hole_inside_contained_refutes_within(self):
        rect, donut = HARD_CASES["hole-inside"]
        verdict, decided = batch.relate("within", [rect], [donut], [0], [0])
        assert decided[0] and not verdict[0]
        assert not rect.within(donut)

    def test_repeated_pairs_decided_once_each(self):
        a = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        b = Polygon([(1, 1), (3, 1), (3, 3), (1, 3)])
        c = Polygon([(5, 5), (6, 5), (6, 6)])
        verdict, decided = batch.relate(
            "intersects", [a], [b, c], [0, 0, 0, 0], [0, 1, 0, 1]
        )
        assert decided.all()
        assert verdict.tolist() == [True, False, True, False]


class TestUndecided:
    def test_non_polygon_operands_are_left_to_the_caller(self):
        poly = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        others = [Point(1, 1), LineString([(0, 0), (3, 3)])]
        for name in batch.PREDICATES:
            _, decided = batch.relate(name, [poly], others, [0, 0], [0, 1])
            assert not decided.any()

    def test_within_with_edge_contact_is_left_to_the_caller(self):
        # The contained square shares the container's bottom edge.
        outer = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        inner = Polygon([(1, 0), (2, 0), (2, 1), (1, 1)])
        _, decided = batch.relate("within", [inner], [outer], [0], [0])
        assert not decided[0]

    def test_unknown_predicate_is_refused(self):
        with pytest.raises(ValueError):
            batch.relate("touches", [], [], [], [])
