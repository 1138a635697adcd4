"""The Polygon geometry (shell plus optional holes)."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.base import Geometry, GeometryError
from repro.geometry.envelope import Envelope
from repro.geometry.linestring import LinearRing

Coord = Tuple[float, float]


class Polygon(Geometry):
    """A simple polygon: one exterior shell and zero or more interior holes.

    The shell is normalised to counter-clockwise winding and holes to
    clockwise, per OGC convention.  Rings may be given as coordinate
    sequences or as :class:`LinearRing` instances.
    """

    geom_type = "Polygon"

    # ``_edges`` caches the packed form the batched predicate kernel
    # (:mod:`repro.geometry.batch`) builds at its first use.
    __slots__ = ("shell", "holes", "_edges")

    def __init__(
        self,
        shell: Iterable[Sequence[float]] | LinearRing,
        holes: Optional[Iterable[Iterable[Sequence[float]] | LinearRing]] = None,
        srid: int = 4326,
    ):
        super().__init__(srid=srid)
        self.shell = self._as_ring(shell, srid).oriented(ccw=True)
        hole_rings: List[LinearRing] = []
        for hole in holes or ():
            hole_rings.append(self._as_ring(hole, srid).oriented(ccw=False))
        self.holes: Tuple[LinearRing, ...] = tuple(hole_rings)

    @staticmethod
    def _as_ring(
        ring: Iterable[Sequence[float]] | LinearRing, srid: int
    ) -> LinearRing:
        if isinstance(ring, LinearRing):
            return ring
        return LinearRing(ring, srid=srid)

    @classmethod
    def from_envelope(cls, env: Envelope, srid: int = 4326) -> "Polygon":
        """Rectangle polygon covering ``env``."""
        if env.is_empty:
            raise GeometryError("cannot build polygon from empty envelope")
        return cls(list(env.corners()), srid=srid)

    @classmethod
    def regular(
        cls,
        cx: float,
        cy: float,
        radius: float,
        sides: int = 16,
        srid: int = 4326,
    ) -> "Polygon":
        """Regular ``sides``-gon centred at ``(cx, cy)`` — a cheap circle."""
        import math

        if sides < 3:
            raise GeometryError("a polygon needs at least 3 sides")
        if radius <= 0:
            raise GeometryError("radius must be positive")
        pts = [
            (
                cx + radius * math.cos(2.0 * math.pi * i / sides),
                cy + radius * math.sin(2.0 * math.pi * i / sides),
            )
            for i in range(sides)
        ]
        return cls(pts, srid=srid)

    @property
    def is_empty(self) -> bool:
        return False

    @property
    def envelope(self) -> Envelope:
        return self.shell.envelope

    def coords(self) -> Iterator[Coord]:
        yield from self.shell.coords()
        for hole in self.holes:
            yield from hole.coords()

    @property
    def area(self) -> float:
        total = abs(self.shell.signed_area)
        for hole in self.holes:
            total -= abs(hole.signed_area)
        return max(total, 0.0)

    @property
    def length(self) -> float:
        """Total boundary length (shell + holes)."""
        return self.shell.length + sum(h.length for h in self.holes)

    @property
    def exterior(self) -> LinearRing:
        return self.shell

    @property
    def interiors(self) -> Tuple[LinearRing, ...]:
        return self.holes

    def rings(self) -> Iterator[LinearRing]:
        """Yield the shell followed by every hole."""
        yield self.shell
        yield from self.holes

    def locate_point(self, x: float, y: float) -> int:
        """Locate ``(x, y)``: 1 interior, 0 boundary, -1 exterior."""
        where = self.shell.contains_point(x, y)
        if where <= 0:
            return where
        for hole in self.holes:
            inside_hole = hole.contains_point(x, y)
            if inside_hole == 0:
                return 0
            if inside_hole > 0:
                return -1
        return 1

    def contains_coord(self, x: float, y: float) -> bool:
        """Whether ``(x, y)`` is inside or on the boundary."""
        return self.locate_point(x, y) >= 0

    def representative_point(self):
        """A point guaranteed inside the polygon.

        Tries the centroid first, then scans horizontal midlines.
        """
        from repro.geometry.point import Point

        cx, cy = self.centroid.coord
        if self.locate_point(cx, cy) > 0:
            return Point(cx, cy, srid=self.srid)
        env = self.envelope
        steps = 32
        for i in range(1, steps):
            y = env.miny + env.height * i / steps
            for j in range(1, steps):
                x = env.minx + env.width * j / steps
                if self.locate_point(x, y) > 0:
                    return Point(x, y, srid=self.srid)
        # Fall back to a shell vertex (boundary point).
        x, y = next(self.shell.coords())
        return Point(x, y, srid=self.srid)

    def without_holes(self) -> "Polygon":
        """The shell alone, holes discarded."""
        if not self.holes:
            return self
        return Polygon(self.shell, srid=self.srid)

    def _clone(self) -> "Polygon":
        return Polygon(self.shell, self.holes, srid=self.srid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return (
            self.shell == other.shell
            and self.holes == other.holes
            and self.srid == other.srid
        )

    def __hash__(self) -> int:
        return hash((self.geom_type, self.shell, self.holes, self.srid))
