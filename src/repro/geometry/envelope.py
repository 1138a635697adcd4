"""Axis-aligned bounding boxes (envelopes).

Envelopes are the currency of every cheap spatial pre-filter in the
system: predicates first reject on envelopes before running the exact
geometry test.  :class:`PackedEnvelopes` stores many envelopes as numpy
struct-of-arrays so batch workloads (the Strabon store's spatial index, a
packed envelope column probed with ``intersects & live``, and the stSPARQL
batched spatial FILTERs) test thousands of envelopes with four array
comparisons instead of a Python loop.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np


class Envelope:
    """An axis-aligned rectangle ``[minx, maxx] x [miny, maxy]``.

    An envelope may be *empty* (containing no points); empty envelopes are
    produced by :meth:`Envelope.empty` and behave as the identity for
    :meth:`union` and as the annihilator for :meth:`intersection`.
    """

    __slots__ = ("minx", "miny", "maxx", "maxy")

    def __init__(self, minx: float, miny: float, maxx: float, maxy: float):
        if minx > maxx or miny > maxy:
            # Normalised empty representation.
            self.minx, self.miny = math.inf, math.inf
            self.maxx, self.maxy = -math.inf, -math.inf
        else:
            self.minx = float(minx)
            self.miny = float(miny)
            self.maxx = float(maxx)
            self.maxy = float(maxy)

    @classmethod
    def empty(cls) -> "Envelope":
        """Return the empty envelope."""
        return cls(math.inf, math.inf, -math.inf, -math.inf)

    @classmethod
    def of_point(cls, x: float, y: float) -> "Envelope":
        """Return the degenerate envelope covering a single point."""
        return cls(x, y, x, y)

    @classmethod
    def of_coords(cls, coords: Iterable[Tuple[float, float]]) -> "Envelope":
        """Return the tightest envelope covering ``coords``."""
        minx = miny = math.inf
        maxx = maxy = -math.inf
        for x, y in coords:
            if x < minx:
                minx = x
            if x > maxx:
                maxx = x
            if y < miny:
                miny = y
            if y > maxy:
                maxy = y
        if minx > maxx:
            return cls.empty()
        return cls(minx, miny, maxx, maxy)

    @property
    def is_empty(self) -> bool:
        return self.minx > self.maxx

    @property
    def width(self) -> float:
        return 0.0 if self.is_empty else self.maxx - self.minx

    @property
    def height(self) -> float:
        return 0.0 if self.is_empty else self.maxy - self.miny

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def perimeter(self) -> float:
        return 2.0 * (self.width + self.height)

    @property
    def center(self) -> Tuple[float, float]:
        if self.is_empty:
            raise ValueError("empty envelope has no center")
        return ((self.minx + self.maxx) / 2.0, (self.miny + self.maxy) / 2.0)

    def contains_point(self, x: float, y: float) -> bool:
        """Whether ``(x, y)`` lies inside or on the boundary."""
        return self.minx <= x <= self.maxx and self.miny <= y <= self.maxy

    def contains(self, other: "Envelope") -> bool:
        """Whether ``other`` lies fully inside this envelope."""
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return (
            self.minx <= other.minx
            and self.miny <= other.miny
            and self.maxx >= other.maxx
            and self.maxy >= other.maxy
        )

    def intersects(self, other: "Envelope") -> bool:
        """Whether the two envelopes share at least one point."""
        if self.is_empty or other.is_empty:
            return False
        return (
            self.minx <= other.maxx
            and other.minx <= self.maxx
            and self.miny <= other.maxy
            and other.miny <= self.maxy
        )

    def intersection(self, other: "Envelope") -> "Envelope":
        """Return the envelope common to both (possibly empty)."""
        return Envelope(
            max(self.minx, other.minx),
            max(self.miny, other.miny),
            min(self.maxx, other.maxx),
            min(self.maxy, other.maxy),
        )

    def union(self, other: "Envelope") -> "Envelope":
        """Return the smallest envelope covering both."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Envelope(
            min(self.minx, other.minx),
            min(self.miny, other.miny),
            max(self.maxx, other.maxx),
            max(self.maxy, other.maxy),
        )

    def expanded(self, margin: float) -> "Envelope":
        """Return this envelope grown by ``margin`` on every side."""
        if self.is_empty:
            return self
        return Envelope(
            self.minx - margin,
            self.miny - margin,
            self.maxx + margin,
            self.maxy + margin,
        )

    def enlargement(self, other: "Envelope") -> float:
        """Area increase needed for this envelope to cover ``other``."""
        return self.union(other).area - self.area

    def distance(self, other: "Envelope") -> float:
        """Minimum Euclidean distance between the two envelopes."""
        if self.is_empty or other.is_empty:
            return math.inf
        dx = max(other.minx - self.maxx, self.minx - other.maxx, 0.0)
        dy = max(other.miny - self.maxy, self.miny - other.maxy, 0.0)
        return math.hypot(dx, dy)

    def corners(self) -> Iterator[Tuple[float, float]]:
        """Yield the four corners counter-clockwise from (minx, miny)."""
        yield (self.minx, self.miny)
        yield (self.maxx, self.miny)
        yield (self.maxx, self.maxy)
        yield (self.minx, self.maxy)

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.minx, self.miny, self.maxx, self.maxy)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Envelope):
            return NotImplemented
        if self.is_empty and other.is_empty:
            return True
        return self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        if self.is_empty:
            return "Envelope.empty()"
        return (
            f"Envelope({self.minx!r}, {self.miny!r}, "
            f"{self.maxx!r}, {self.maxy!r})"
        )


class PackedEnvelopes:
    """``n`` envelopes packed into four float64 arrays.

    The layout keeps batch predicates vectorised: one intersection test
    against ``n`` envelopes is four array comparisons.  Empty envelopes
    pack as ``(+inf, +inf, -inf, -inf)`` and therefore fail every
    comparison, matching :meth:`Envelope.intersects` exactly.
    """

    __slots__ = ("minx", "miny", "maxx", "maxy")

    def __init__(
        self,
        minx: np.ndarray,
        miny: np.ndarray,
        maxx: np.ndarray,
        maxy: np.ndarray,
    ):
        self.minx = np.asarray(minx, dtype=np.float64)
        self.miny = np.asarray(miny, dtype=np.float64)
        self.maxx = np.asarray(maxx, dtype=np.float64)
        self.maxy = np.asarray(maxy, dtype=np.float64)
        if not (
            self.minx.shape == self.miny.shape
            == self.maxx.shape == self.maxy.shape
        ) or self.minx.ndim != 1:
            raise ValueError("packed bounds must be equal-length 1-D arrays")

    @classmethod
    def pack(cls, envelopes: Sequence["Envelope"]) -> "PackedEnvelopes":
        """Pack a sequence of envelopes (order preserved)."""
        n = len(envelopes)
        minx = np.empty(n, dtype=np.float64)
        miny = np.empty(n, dtype=np.float64)
        maxx = np.empty(n, dtype=np.float64)
        maxy = np.empty(n, dtype=np.float64)
        for i, env in enumerate(envelopes):
            minx[i] = env.minx
            miny[i] = env.miny
            maxx[i] = env.maxx
            maxy[i] = env.maxy
        return cls(minx, miny, maxx, maxy)

    def __len__(self) -> int:
        return self.minx.shape[0]

    def concat(self, other: "PackedEnvelopes") -> "PackedEnvelopes":
        """These entries followed by ``other``'s."""
        return PackedEnvelopes(
            np.concatenate([self.minx, other.minx]),
            np.concatenate([self.miny, other.miny]),
            np.concatenate([self.maxx, other.maxx]),
            np.concatenate([self.maxy, other.maxy]),
        )

    def take(self, indices: np.ndarray) -> "PackedEnvelopes":
        """The entries at ``indices``, gathered in that order."""
        return PackedEnvelopes(
            self.minx[indices], self.miny[indices],
            self.maxx[indices], self.maxy[indices],
        )

    def get(self, index: int) -> Envelope:
        """The envelope at ``index`` (unpacked)."""
        return Envelope(
            self.minx[index], self.miny[index],
            self.maxx[index], self.maxy[index],
        )

    def _other(self, other) -> "Envelope | PackedEnvelopes":
        """Validate the second operand of an elementwise test: one
        envelope (broadcast) or an equal-length packed set."""
        if isinstance(other, PackedEnvelopes) and len(other) != len(self):
            raise ValueError(
                f"elementwise test of {len(self)} envelopes against "
                f"{len(other)}"
            )
        return other

    def intersects(self, other: "Envelope | PackedEnvelopes") -> np.ndarray:
        """Boolean mask: which packed envelopes intersect ``other`` — one
        envelope, or (elementwise) an equal-length packed set."""
        other = self._other(other)
        if len(self) == 0 or (
            isinstance(other, Envelope) and other.is_empty
        ):
            return np.zeros(len(self), dtype=bool)
        return (
            (self.minx <= other.maxx)
            & (other.minx <= self.maxx)
            & (self.miny <= other.maxy)
            & (other.miny <= self.maxy)
        )

    def intersecting(self, envelope: Envelope) -> np.ndarray:
        """Indices (ascending) of packed envelopes intersecting
        ``envelope``."""
        return np.flatnonzero(self.intersects(envelope))

    def distance(self, other: "Envelope | PackedEnvelopes") -> np.ndarray:
        """Per-entry minimum Euclidean distance to ``other`` — one
        envelope, or (elementwise) an equal-length packed set.

        Same edge semantics as :meth:`Envelope.distance` — an empty
        operand on either side yields ``inf`` — but the batch uses
        ``np.hypot``, which may differ from the scalar ``math.hypot`` in
        the last ulp.  Callers treating the result as a strict lower
        bound (batch spatial FILTERs) must shave a relative margin
        before comparing.
        """
        other = self._other(other)
        n = len(self)
        if n == 0 or (isinstance(other, Envelope) and other.is_empty):
            return np.full(n, np.inf, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            dx = np.maximum(other.minx - self.maxx, self.minx - other.maxx)
            np.maximum(dx, 0.0, out=dx)
            dy = np.maximum(other.miny - self.maxy, self.miny - other.maxy)
            np.maximum(dy, 0.0, out=dy)
            out = np.hypot(dx, dy)
        empty = self.minx > self.maxx
        if isinstance(other, PackedEnvelopes):
            empty |= other.minx > other.maxx
        if empty.any():
            out[empty] = np.inf
        return out

    def contains_points(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Boolean matrix ``(len(self), len(x))``: envelope i contains
        point j (boundary inclusive)."""
        x = np.asarray(x, dtype=np.float64)[np.newaxis, :]
        y = np.asarray(y, dtype=np.float64)[np.newaxis, :]
        return (
            (self.minx[:, np.newaxis] <= x) & (x <= self.maxx[:, np.newaxis])
            & (self.miny[:, np.newaxis] <= y) & (y <= self.maxy[:, np.newaxis])
        )

    def union_envelope(self) -> Envelope:
        """The envelope covering every non-empty packed entry."""
        valid = self.minx <= self.maxx
        if not valid.any():
            return Envelope.empty()
        return Envelope(
            float(self.minx[valid].min()),
            float(self.miny[valid].min()),
            float(self.maxx[valid].max()),
            float(self.maxy[valid].max()),
        )

    def unpack(self) -> List[Envelope]:
        return [self.get(i) for i in range(len(self))]

    def __repr__(self) -> str:
        return f"<PackedEnvelopes n={len(self)}>"
