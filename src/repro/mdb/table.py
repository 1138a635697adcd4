"""Relational tables over BAT columns."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.mdb.bat import BAT
from repro.mdb.errors import CatalogError, ExecutionError
from repro.mdb.types import ColumnType, column_values


class Column:
    """A named, typed column declaration."""

    def __init__(self, name: str, ctype: ColumnType):
        self.name = name.lower()
        self.ctype = ctype

    def __repr__(self) -> str:
        return f"Column({self.name!r}, {self.ctype.name})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Column)
            and self.name == other.name
            and self.ctype == other.ctype
        )

    def __hash__(self) -> int:
        return hash((self.name, self.ctype))


class Table:
    """A named collection of equal-length BATs."""

    def __init__(self, name: str, columns: Sequence[Column]):
        if not columns:
            raise CatalogError(f"table {name!r} needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in table {name!r}")
        self.name = name.lower()
        self.columns: List[Column] = list(columns)
        self._bats: Dict[str, BAT] = {
            c.name: BAT(c.ctype) for c in columns
        }
        # Durability hook: when a StorageEngine owns this table it sets
        # ``journal`` and every mutation below reports itself as exactly
        # one logical record: stage (coerce every column), apply, then
        # journal, so a validation error changes nothing and logs nothing.
        self.journal = None

    # -- schema -----------------------------------------------------------

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> BAT:
        try:
            return self._bats[name.lower()]
        except KeyError:
            raise CatalogError(
                f"no column {name!r} in table {self.name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name.lower() in self._bats

    def column_type(self, name: str) -> ColumnType:
        for c in self.columns:
            if c.name == name.lower():
                return c.ctype
        raise CatalogError(f"no column {name!r} in table {self.name!r}")

    # -- mutation ------------------------------------------------------------

    def insert_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append full-width rows: transposed, then :meth:`insert_columns`."""
        rows = list(rows)
        width = len(self.columns)
        for row in rows:
            if len(row) != width:
                raise ExecutionError(
                    f"table {self.name!r} has {width} columns, "
                    f"got {len(row)} values"
                )
        if not rows:
            return 0
        return self.insert_columns(dict(zip(self.column_names, zip(*rows))))

    def insert_columns(self, columns: Dict[str, Sequence[Any]]) -> int:
        """Append one equal-length sequence per column (all present).

        Every column is coerced (:meth:`ColumnType.coerce_column`) into
        staged ``(data, valid)`` arrays before any BAT changes, so a bad
        cell leaves the table as it was; then the arrays are appended
        and the rows journaled as one record.
        """
        missing = set(self.column_names) - set(columns)
        extra = set(columns) - set(self.column_names)
        if missing or extra:
            raise CatalogError(
                f"insert_columns on {self.name!r}: "
                f"missing {sorted(missing)}, unknown {sorted(extra)}"
            )
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ExecutionError(
                f"insert_columns on {self.name!r}: ragged column "
                f"lengths {sorted(lengths)}"
            )
        n = lengths.pop() if lengths else 0
        if n == 0:
            return 0
        staged = [
            (self._bats[col.name], col.ctype.coerce_column(columns[col.name]))
            for col in self.columns
        ]
        for bat, (data, valid) in staged:
            bat.extend_arrays(data, valid)
        if self.journal is not None:
            self.journal.log_insert(self.name, n)
        return n

    def delete_positions(self, positions: np.ndarray) -> int:
        """Remove the rows at ``positions`` (rebuilds the columns)."""
        if len(positions) == 0:
            return 0
        keep = np.ones(len(self), dtype=bool)
        keep[positions] = False
        keep_positions = np.nonzero(keep)[0]
        for name, bat in self._bats.items():
            self._bats[name] = bat.take(keep_positions)
        if self.journal is not None:
            self.journal.log_delete(self.name, positions)
        return int(len(positions))

    def update_positions(
        self, positions: np.ndarray, assignments: Dict[str, Sequence[Any]]
    ) -> int:
        """Set ``assignments[col][k]`` at row ``positions[k]`` per column.

        Every assignment is coerced before any BAT changes, so a bad
        value leaves the table as it was; the coerced values are what
        the journal records.
        """
        positions = np.asarray(positions, dtype=np.int64)
        staged: Dict[str, Tuple[BAT, np.ndarray, np.ndarray]] = {}
        for col_name, values in assignments.items():
            bat = self.column(col_name)
            data, valid = bat.ctype.coerce_column(values)
            if len(data) != len(positions):
                raise ExecutionError(
                    f"update of {self.name}.{col_name}: {len(data)} "
                    f"values for {len(positions)} positions"
                )
            staged[col_name.lower()] = (bat, data, valid)
        for bat, data, valid in staged.values():
            bat.assign(positions, data, valid)
        if self.journal is not None and len(positions):
            self.journal.log_update(
                self.name,
                positions,
                {
                    name: column_values(data, valid)
                    for name, (_, data, valid) in staged.items()
                },
            )
        return len(positions)

    def truncate(self) -> None:
        self._bats = {c.name: BAT(c.ctype) for c in self.columns}
        if self.journal is not None:
            self.journal.log_truncate(self.name)

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        first = self.columns[0].name
        return len(self._bats[first])

    def row(self, position: int) -> Tuple[Any, ...]:
        return tuple(
            self._bats[c.name].get(position) for c in self.columns
        )

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        for i in range(len(self)):
            yield self.row(i)

    def scan(
        self, column_names: Optional[Sequence[str]] = None
    ) -> Dict[str, np.ndarray]:
        """Column vectors for the requested columns (default: all)."""
        names = (
            [n.lower() for n in column_names]
            if column_names is not None
            else self.column_names
        )
        return {n: self.column(n).values for n in names}

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.ctype.name}" for c in self.columns)
        return f"<Table {self.name}({cols}) rows={len(self)}>"
