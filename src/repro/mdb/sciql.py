"""SciQL: multi-dimensional arrays as first-class query objects.

The paper's SciQL layer ([9] Zhang et al., IDEAS 2011) lets satellite
images live *inside* the database as arrays that can be queried next to
relational tables.  This module provides:

* :class:`SciArray` — a named dense array with integer dimensions and one
  or more typed attributes (cell payloads), created through SQL
  (``CREATE ARRAY msg (x INT DIMENSION [0:512], y INT DIMENSION [0:512],
  v DOUBLE DEFAULT 0.0)``) or the Python API;
* relational access — any array can appear in a ``FROM`` clause; it is
  exposed as a table with one row per cell (dimension columns + attribute
  columns);
* array-native bulk operators used by the NOA processing chain: slicing
  (cropping), tiled aggregation (resampling), cell mapping and masked
  updates, all executing directly on numpy storage;
* ``UPDATE array SET attr = expr WHERE ...`` — the SciQL idiom for pixel
  classification, evaluated by the same SQL expression engine as table
  statements, over the cells.

Every operator is one whole-plane numpy pass on the calling thread.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs, resilience
from repro.mdb.errors import CatalogError, ExecutionError, SQLTypeError
from repro.mdb.sql import ast
from repro.mdb.sql.executor import Evaluator, Frame, column_refs, is_wanted
from repro.mdb.sql.vectors import all_valid, bool_mask
from repro.mdb.types import ColumnType, type_by_name


class Dimension:
    """A dense integer dimension ``[start, stop)``."""

    def __init__(self, name: str, start: int, stop: int):
        if stop <= start:
            raise SQLTypeError(
                f"dimension {name!r} range [{start}:{stop}] is empty"
            )
        self.name = name.lower()
        self.start = int(start)
        self.stop = int(stop)

    @property
    def size(self) -> int:
        return self.stop - self.start

    def index_of(self, coordinate: int) -> int:
        if not self.start <= coordinate < self.stop:
            raise ExecutionError(
                f"coordinate {coordinate} outside dimension "
                f"{self.name} [{self.start}:{self.stop})"
            )
        return int(coordinate) - self.start

    def __repr__(self) -> str:
        return f"Dimension({self.name!r}, {self.start}, {self.stop})"


class SciArray:
    """A dense multi-dimensional array with named, typed attributes."""

    def __init__(
        self,
        name: str,
        dimensions: Sequence[Dimension],
        attributes: Sequence[Tuple[str, ColumnType]],
        defaults: Optional[Sequence[Any]] = None,
    ):
        if not dimensions:
            raise SQLTypeError("an array needs at least one dimension")
        if not attributes:
            raise SQLTypeError("an array needs at least one attribute")
        self.name = name.lower()
        self.dimensions: List[Dimension] = list(dimensions)
        self.attributes: List[Tuple[str, ColumnType]] = [
            (n.lower(), t) for n, t in attributes
        ]
        names = [d.name for d in self.dimensions] + [
            n for n, _ in self.attributes
        ]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in array {name!r}")
        defaults = list(defaults or [None] * len(self.attributes))
        # Durability hook: a StorageEngine sets ``journal`` and every
        # plane mutation reports itself via _plane_changed after the
        # new plane is live (whole-plane journaling — SciQL writes are
        # write-then-swap, so the plane is the natural redo unit).
        self.journal = None
        self._values: Dict[str, np.ndarray] = {}
        # Lazily materialised flattened dimension-coordinate columns
        # (name -> read-only int64 array of cell_count coordinates).
        # Dimensions are immutable per instance — copy() and slice()
        # build new SciArrays, which start with a fresh cache.
        self._dim_cols: Dict[str, np.ndarray] = {}
        for (attr_name, ctype), default in zip(self.attributes, defaults):
            (fill,), _ = ctype.coerce_column([default])
            self._values[attr_name] = np.full(self.shape, fill, ctype.dtype)

    @classmethod
    def from_ast(cls, stmt: ast.CreateArray) -> "SciArray":
        dims = [
            Dimension(d.name, d.start, d.stop) for d in stmt.dimensions
        ]
        attrs = [
            (c.name, type_by_name(c.type_name)) for c in stmt.attributes
        ]
        return cls(stmt.name, dims, attrs, stmt.defaults)

    # -- structure -----------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(d.size for d in self.dimensions)

    @property
    def ndim(self) -> int:
        return len(self.dimensions)

    @property
    def cell_count(self) -> int:
        return int(np.prod(self.shape))

    @property
    def column_names(self) -> List[str]:
        return [d.name for d in self.dimensions] + [
            n for n, _ in self.attributes
        ]

    def dimension(self, name: str) -> Dimension:
        for d in self.dimensions:
            if d.name == name.lower():
                return d
        raise CatalogError(f"no dimension {name!r} in array {self.name!r}")

    def has_attribute(self, name: str) -> bool:
        return name.lower() in self._values

    def attribute(self, name: str) -> np.ndarray:
        """Direct numpy access to an attribute plane (no copy)."""
        try:
            return self._values[name.lower()]
        except KeyError:
            raise CatalogError(
                f"no attribute {name!r} in array {self.name!r}"
            ) from None

    def attribute_type(self, name: str) -> ColumnType:
        for n, t in self.attributes:
            if n == name.lower():
                return t
        raise CatalogError(f"no attribute {name!r} in array {self.name!r}")

    def dim_column(self, name: str) -> np.ndarray:
        """The flattened coordinate column of one dimension, cached.

        Equivalent to the ``name`` plane of a full ``np.meshgrid`` over
        the dimensions, flattened in C order — but built with one
        repeat+tile per dimension and only for the dimensions a query
        actually references.  The returned array is shared and marked
        read-only.
        """
        name = name.lower()
        cached = self._dim_cols.get(name)
        if cached is not None:
            return cached
        for axis, d in enumerate(self.dimensions):
            if d.name == name:
                break
        else:
            raise CatalogError(
                f"no dimension {name!r} in array {self.name!r}"
            )
        inner = 1
        for size in self.shape[axis + 1:]:
            inner *= size
        outer = 1
        for size in self.shape[:axis]:
            outer *= size
        col = np.tile(
            np.repeat(
                np.arange(d.start, d.stop, dtype=np.int64), inner
            ),
            outer,
        )
        col.flags.writeable = False
        self._dim_cols[name] = col
        return col

    def _plane_changed(self, attr: str) -> None:
        """Journal one attribute plane after its new contents are live."""
        if self.journal is not None:
            self.journal.log_plane(self.name, attr)

    def store_plane(self, attr: str, plane: np.ndarray) -> None:
        """The single swap point for attribute planes: install ``plane``
        as the live contents of ``attr`` and journal the change."""
        self._values[attr.lower()] = plane
        self._plane_changed(attr.lower())

    def add_attribute(
        self, name: str, ctype: ColumnType, default: Any = None
    ) -> "SciArray":
        """Add a new attribute plane (SciQL ``ALTER ARRAY ... ADD``)."""
        name = name.lower()
        if name in self._values or any(
            d.name == name for d in self.dimensions
        ):
            raise CatalogError(
                f"column {name!r} already exists in array {self.name!r}"
            )
        self.attributes.append((name, ctype))
        (fill,), _ = ctype.coerce_column([default])
        self._values[name] = np.full(self.shape, fill, ctype.dtype)
        if self.journal is not None:
            self.journal.log_add_attribute(self.name, name, ctype.name)
        return self

    def set_attribute(self, name: str, values: np.ndarray) -> None:
        """Replace an attribute plane (shape-checked)."""
        values = np.asarray(values)
        if values.shape != self.shape:
            raise ExecutionError(
                f"shape mismatch: array is {self.shape}, got {values.shape}"
            )
        ctype = self.attribute_type(name)
        self.store_plane(name, values.astype(ctype.dtype, copy=True))

    # -- cell access ------------------------------------------------------------

    def get(self, coords: Sequence[int], attr: Optional[str] = None) -> Any:
        """One cell's attribute value at dimension coordinates."""
        attr_name = attr.lower() if attr else self.attributes[0][0]
        index = tuple(
            d.index_of(c) for d, c in zip(self.dimensions, coords)
        )
        return self._values[attr_name].item(index)

    def set(
        self, coords: Sequence[int], value: Any, attr: Optional[str] = None
    ) -> None:
        attr_name = attr.lower() if attr else self.attributes[0][0]
        ctype = self.attribute_type(attr_name)
        index = tuple(
            d.index_of(c) for d, c in zip(self.dimensions, coords)
        )
        self._values[attr_name][index] = ctype.coerce(value)
        self._plane_changed(attr_name)

    # -- array-native operators (the SciQL idioms) ---------------------------------

    def slice(self, **ranges: Tuple[int, int]) -> "SciArray":
        """Subarray restricted to ``dim=(start, stop)`` windows (cropping).

        Dimension coordinates are preserved, so a crop of the Peloponnese
        window keeps its grid georeference.
        """
        slices = []
        new_dims = []
        for d in self.dimensions:
            if d.name in ranges:
                lo, hi = ranges[d.name]
                lo = max(lo, d.start)
                hi = min(hi, d.stop)
                if hi <= lo:
                    raise ExecutionError(
                        f"empty slice for dimension {d.name!r}"
                    )
                slices.append(slice(lo - d.start, hi - d.start))
                new_dims.append(Dimension(d.name, lo, hi))
            else:
                slices.append(slice(None))
                new_dims.append(Dimension(d.name, d.start, d.stop))
        unknown = set(ranges) - {d.name for d in self.dimensions}
        if unknown:
            raise CatalogError(f"unknown dimensions {sorted(unknown)}")
        out = SciArray(
            f"{self.name}_slice", new_dims, self.attributes
        )
        for attr_name, _ in self.attributes:
            out._values[attr_name] = self._values[attr_name][
                tuple(slices)
            ].copy()
        return out

    def map(
        self, fn: Callable[[np.ndarray], np.ndarray],
        attr: Optional[str] = None,
        out_attr: Optional[str] = None,
    ) -> "SciArray":
        """Apply a vectorised function to one attribute plane in place
        (or into ``out_attr``)."""
        source = attr.lower() if attr else self.attributes[0][0]
        target = (out_attr or source).lower()
        ctype = self.attribute_type(target)
        deadline = resilience.active_deadline()
        if deadline is not None:
            deadline.check("sciql.map")
        obs.counter("sciql.map.calls").inc()
        obs.counter("sciql.map.cells").inc(self.cell_count)
        with obs.span("sciql.map", array=self.name):
            result = np.asarray(fn(self._values[source]))
        if result.shape != self.shape:
            raise ExecutionError(
                "map function changed the array shape "
                f"({self.shape} -> {result.shape})"
            )
        self.store_plane(target, result.astype(ctype.dtype))
        return self

    def fill(self, value: Any, attr: Optional[str] = None) -> "SciArray":
        name = attr.lower() if attr else self.attributes[0][0]
        ctype = self.attribute_type(name)
        self._values[name][...] = ctype.coerce(value)
        self._plane_changed(name)
        return self

    def tile_aggregate(
        self,
        tile: Sequence[int],
        func: str = "mean",
        attr: Optional[str] = None,
    ) -> "SciArray":
        """Aggregate non-overlapping tiles — SciQL's structural grouping.

        ``tile`` gives the tile size per dimension; the result array has
        one cell per tile (truncated at the edges).  ``func`` is one of
        mean/sum/min/max.  This is the resampling primitive of the NOA
        chain.
        """
        attr_name = attr.lower() if attr else self.attributes[0][0]
        if len(tile) != self.ndim:
            raise ExecutionError(
                f"tile needs {self.ndim} sizes, got {len(tile)}"
            )
        trimmed_shape = [
            (s // t) * t for s, t in zip(self.shape, tile)
        ]
        if any(s == 0 for s in trimmed_shape):
            raise ExecutionError("tile larger than the array")
        reducers = {
            "mean": np.mean,
            "sum": np.sum,
            "min": np.min,
            "max": np.max,
        }
        try:
            reducer = reducers[func]
        except KeyError:
            raise ExecutionError(f"unknown tile aggregate {func!r}") from None
        deadline = resilience.active_deadline()
        if deadline is not None:
            deadline.check("sciql.tile_aggregate")
        obs.counter("sciql.tile_aggregate.calls").inc()
        obs.counter("sciql.tile_aggregate.cells").inc(self.cell_count)
        with obs.span("sciql.tile_aggregate", array=self.name, func=func):
            block = self._values[attr_name][
                tuple(slice(0, s) for s in trimmed_shape)
            ]
            block_shape: List[int] = []
            for s, t in zip(trimmed_shape, tile):
                block_shape.extend([s // t, t])
            block = block.reshape(block_shape)
            # A float64 block reduces as it is: astype would only copy it,
            # axes in the same order, for the same result.
            if block.dtype != np.float64:
                block = block.astype(float)
            reduced = reducer(block, axis=tuple(range(1, 2 * self.ndim, 2)))
        dims = [
            Dimension(d.name, 0, s // t)
            for d, s, t in zip(self.dimensions, trimmed_shape, tile)
        ]
        out = SciArray(
            f"{self.name}_{func}",
            dims,
            [(attr_name, self.attribute_type(attr_name))],
        )
        out._values[attr_name] = reduced.astype(
            out.attribute_type(attr_name).dtype
        )
        return out

    def count_where(
        self, predicate: Callable[[np.ndarray], np.ndarray],
        attr: Optional[str] = None,
    ) -> int:
        """Number of cells whose attribute satisfies ``predicate``."""
        name = attr.lower() if attr else self.attributes[0][0]
        deadline = resilience.active_deadline()
        if deadline is not None:
            deadline.check("sciql.count_where")
        obs.counter("sciql.count_where.calls").inc()
        obs.counter("sciql.count_where.cells").inc(self.cell_count)
        with obs.span("sciql.count_where", array=self.name):
            return int(np.count_nonzero(predicate(self._values[name])))

    # -- relational view -----------------------------------------------------------

    def to_frame(
        self,
        binding: str,
        names: Optional[Sequence[str]] = None,
        rows: Any = None,
    ) -> Frame:
        """Expose the array as a relational frame, one row per cell in C
        order: the columns ``names`` (default every dimension, then every
        attribute) over the cells ``rows`` (a slice or flat cell indices;
        default all).

        Dimension columns come from the cached :meth:`dim_column`.  Over
        a slice, attribute columns are views of the live planes, so a
        caller copies anything that must outlive a plane write.
        """
        rows = slice(None) if rows is None else rows
        count = (
            len(range(self.cell_count)[rows])
            if isinstance(rows, slice)
            else len(rows)
        )
        frame = Frame(count)
        for name in self.column_names if names is None else names:
            plane = self._values.get(name)
            if plane is None:
                data, valid = self.dim_column(name)[rows], all_valid(count)
            else:
                data = plane.reshape(-1)[rows]
                if data.dtype == np.dtype(object):
                    valid = np.fromiter(
                        (v is not None for v in data), count=count, dtype=bool
                    )
                else:
                    valid = all_valid(count)
            frame.add_column(binding, name, (data, valid))
        return frame

    def copy(self, name: Optional[str] = None) -> "SciArray":
        out = SciArray(
            name or self.name,
            [Dimension(d.name, d.start, d.stop) for d in self.dimensions],
            self.attributes,
        )
        for attr_name, _ in self.attributes:
            out._values[attr_name] = self._values[attr_name].copy()
        return out

    def __repr__(self) -> str:
        dims = ", ".join(
            f"{d.name}[{d.start}:{d.stop}]" for d in self.dimensions
        )
        attrs = ", ".join(f"{n} {t.name}" for n, t in self.attributes)
        return f"<SciArray {self.name}({dims}; {attrs})>"


def update_array(array: SciArray, stmt: ast.Update) -> int:
    """Execute ``UPDATE array SET attr = expr [WHERE cond]``.

    The statement runs on the SQL :class:`~repro.mdb.sql.executor.
    Evaluator`, the way a table UPDATE does.  WHERE evaluates over a
    frame of only the columns it names; the SET expressions then
    evaluate over only the cells that passed, gathered from only the
    columns they name.  A SET expression that would fail only on cells
    WHERE rejects therefore succeeds.

    Writes are **write-then-swap**: each assignment scatters into a
    private copy of the attribute plane and the finished copy replaces
    the live plane in one reference assignment.  An UPDATE that dies
    mid-scatter (an injected fault, a soft deadline) therefore leaves
    the array exactly as it was — which is what makes a chain stage
    built on SciQL UPDATE safe to retry.
    """
    binding = array.name

    def columns(*exprs: Any) -> List[str]:
        refs = column_refs(*exprs)
        return [
            name for name in array.column_names
            if is_wanted(refs, binding, name)
        ]

    n = array.cell_count
    deadline = resilience.active_deadline()
    if deadline is not None:
        deadline.check("sciql.update")
    obs.counter("sciql.update.calls").inc()
    obs.counter("sciql.update.cells").inc(n)

    with obs.span("sciql.update", array=array.name):
        if stmt.where is None:
            idx = np.arange(n)
            rows = slice(None)
        else:
            frame = array.to_frame(binding, columns(stmt.where))
            idx = np.flatnonzero(bool_mask(Evaluator(frame).eval(stmt.where)))
            rows = idx
        if idx.size == 0:
            return 0
        evaluator = Evaluator(array.to_frame(
            binding,
            columns(tuple(expr for _, expr in stmt.assignments)),
            rows,
        ))
        # Stage one plane copy per assignment (all computed from the
        # original planes), then swap: the last assignment to an
        # attribute wins.
        staged = []
        for attr_name, expr in stmt.assignments:
            ctype = array.attribute_type(attr_name)
            data, valid = evaluator.eval(expr)
            values, _ = ctype.coerce_column(data[valid])
            current = array.attribute(attr_name)
            plane = current.reshape(-1).copy()
            plane[idx[valid]] = values
            staged.append((attr_name.lower(), plane.reshape(current.shape)))
    for key, plane in staged:
        array.store_plane(key, plane)
    return int(idx.size)
