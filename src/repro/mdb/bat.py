"""Binary Association Tables — MonetDB's column primitive.

A BAT is logically a mapping from a dense object-id head (0..n-1) to a
typed tail.  Here the head is implicit and the tail is a numpy array plus a
validity mask; all bulk operators (select, take, arithmetic) work
column-at-a-time, which is exactly the execution model the SQL layer
compiles to.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional

import numpy as np

from repro.mdb.errors import ExecutionError
from repro.mdb.types import ColumnType, column_values

_GROWTH = 1.6
_MIN_CAPACITY = 16


class BAT:
    """An append-only typed column with NULL support."""

    def __init__(self, ctype: ColumnType, values: Optional[Iterable] = None):
        self.ctype = ctype
        self._data = ctype.empty_array(_MIN_CAPACITY)
        self._valid = np.ones(_MIN_CAPACITY, dtype=bool)
        self._size = 0
        # True while _data/_valid are borrowed read-only buffers (e.g.
        # snapshot memmaps adopted without copy); the first in-place
        # write materialises private copies (copy-on-write).
        self._frozen = False
        if values is not None:
            self.extend_arrays(*ctype.coerce_column(values))

    @classmethod
    def adopt(
        cls, ctype: ColumnType, data: np.ndarray, valid: np.ndarray
    ) -> "BAT":
        """Wrap existing ``(data, valid)`` buffers without copying.

        The buffers may be read-only (snapshot memmaps): scans serve
        straight from them, and the first mutation triggers a private
        copy.  ``len(data)`` rows are adopted exactly — no spare
        capacity.
        """
        if len(data) != len(valid):
            raise ExecutionError(
                f"adopt: {len(data)} values vs {len(valid)} validity bits"
            )
        out = cls.__new__(cls)
        out.ctype = ctype
        out._data = data
        out._valid = valid
        out._size = len(data)
        out._frozen = not (
            data.flags.writeable and valid.flags.writeable
        )
        return out

    @property
    def frozen(self) -> bool:
        """True while the column still serves from borrowed read-only
        buffers (no mutation has happened since adoption)."""
        return self._frozen

    def _thaw(self) -> None:
        """Materialise private writable copies of borrowed buffers."""
        if not self._frozen:
            return
        self._data = np.array(self._data, dtype=self._data.dtype, copy=True)
        self._valid = np.array(self._valid, dtype=bool, copy=True)
        self._frozen = False

    # -- mutation ------------------------------------------------------------

    def extend_arrays(self, data: np.ndarray, valid: np.ndarray) -> None:
        """Vectorised bulk append of pre-coerced ``(data, valid)`` arrays.

        ``data`` must already match the column dtype (NULL slots hold a
        benign filler); this is the segment-replay and bulk-ingest fast
        path — no per-value coercion.
        """
        n = len(data)
        if n == 0:
            return
        if len(valid) != n:
            raise ExecutionError(
                f"extend_arrays: {n} values vs {len(valid)} validity bits"
            )
        self._reserve(self._size + n)
        self._data[self._size:self._size + n] = data
        self._valid[self._size:self._size + n] = valid
        self._size += n

    def assign(
        self, positions: np.ndarray, data: np.ndarray, valid: np.ndarray
    ) -> None:
        """Overwrite the rows at ``positions`` with pre-coerced
        ``(data, valid)`` arrays (see :meth:`ColumnType.coerce_column`)."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and not (
            0 <= positions.min() and positions.max() < self._size
        ):
            raise ExecutionError(
                f"positions out of range [0, {self._size})"
            )
        self._thaw()
        self._data[positions] = data
        self._valid[positions] = valid

    def _reserve(self, needed: int) -> None:
        cap = len(self._data)
        if needed <= cap and not self._frozen:
            return
        new_cap = max(int(cap * _GROWTH) + 1, needed, _MIN_CAPACITY)
        data = self.ctype.empty_array(new_cap)
        data[: self._size] = self._data[: self._size]
        valid = np.ones(new_cap, dtype=bool)
        valid[: self._size] = self._valid[: self._size]
        self._data = data
        self._valid = valid
        self._frozen = False

    # -- bulk access -------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The live tail as a numpy view (no copy)."""
        return self._data[: self._size]

    @property
    def validity(self) -> np.ndarray:
        """Boolean mask, False where the value is NULL."""
        return self._valid[: self._size]

    def get(self, position: int) -> Any:
        """The Python value at ``position`` (None when NULL)."""
        if not 0 <= position < self._size:
            raise ExecutionError(
                f"position {position} out of range [0, {self._size})"
            )
        return self._data.item(position) if self._valid[position] else None

    def to_list(self) -> List[Any]:
        """Every value as a Python value (None where NULL)."""
        return column_values(self.values, self.validity)

    def take(self, positions: np.ndarray) -> "BAT":
        """A new BAT with the rows at ``positions`` (MonetDB 'fetchjoin')."""
        return BAT.adopt(
            self.ctype, self.values[positions], self.validity[positions]
        )

    def select_mask(self, mask: np.ndarray) -> np.ndarray:
        """Positions where ``mask`` holds (a candidate list)."""
        return np.nonzero(mask)[0]

    def copy(self) -> "BAT":
        return BAT.adopt(self.ctype, self.values.copy(), self.validity.copy())

    # -- protocol -------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Any]:
        return iter(self.to_list())

    def __repr__(self) -> str:
        return f"<BAT {self.ctype.name} n={self._size}>"
