"""Column types and their numpy storage mapping.

The store keeps every column as a numpy array; NULLs are represented with a
parallel boolean validity mask (MonetDB uses in-band nil values — a mask is
the same idea without magic numbers).
"""

from __future__ import annotations

from datetime import datetime
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.mdb.errors import SQLTypeError

#: The range of an INT cell; a value outside it is a domain error.
_INT_MIN, _INT_MAX = -(2**63), 2**63 - 1


class ColumnType:
    """A storage type: SQL name, numpy dtype and a Python coercion."""

    def __init__(self, name: str, dtype: np.dtype, py_type: type):
        self.name = name
        self.dtype = np.dtype(dtype)
        self.py_type = py_type
        # Value types a numpy pass stores exactly as coerce would.
        self._exact = frozenset({py_type, self.dtype.type}) - {np.object_}

    def coerce(self, value: Any) -> Any:
        """Convert ``value`` to this type; raises :class:`SQLTypeError`."""
        if value is None:
            return None
        try:
            if self.py_type is bool:
                if isinstance(value, str):
                    return value.strip().lower() in ("true", "1", "t")
                return bool(value)
            if self.py_type is datetime:
                if isinstance(value, datetime):
                    return value
                return datetime.fromisoformat(str(value))
            out = self.py_type(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SQLTypeError(
                f"cannot convert {value!r} to {self.name}"
            ) from exc
        if self.py_type is int and not _INT_MIN <= out <= _INT_MAX:
            raise SQLTypeError(f"cannot convert {value!r} to {self.name}")
        return out

    def coerce_column(
        self, values: Any, valid: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """A column of values as new ``(data, valid)`` arrays, ``data``
        holding a filler (0 or None) where the value was None.  A given
        ``valid`` mask makes ``values`` an ndarray with NULLs where the
        mask is False (an evaluated ``(data, valid)`` vector).

        Data, mask and any :class:`SQLTypeError` equal :meth:`coerce` per
        cell.  One numpy pass replaces that loop when ``values`` is a
        numeric ndarray whose cast reproduces ``coerce``, or when every
        non-None value already has an exact type of this column.
        """
        obj = self.dtype.kind == "O"
        if isinstance(values, np.ndarray) and not obj and values.dtype.kind in (
            "bi" if self.dtype.kind == "i" else "biuf"
        ):
            data = values.astype(self.dtype)
            if valid is None:
                return data, np.ones(len(values), dtype=bool)
            valid = np.array(valid, dtype=bool)
            data[~valid] = 0
            return data, valid
        cells = list(values) if valid is None else column_values(values, valid)
        data = self.empty_array(len(cells))
        valid = np.fromiter((v is not None for v in cells), bool, len(cells))
        if set(map(type, cells)) - {type(None)} <= self._exact:
            try:
                data[:] = cells if obj else [
                    0 if v is None else v for v in cells
                ]
                return data, valid
            except OverflowError:
                pass  # an INT out of range: the loop below names it
        for i, raw in enumerate(cells):
            value = self.coerce(raw)
            data[i] = (None if obj else 0) if value is None else value
        return data, valid

    def empty_array(self, capacity: int) -> np.ndarray:
        return np.empty(capacity, dtype=self.dtype)

    def __repr__(self) -> str:
        return f"ColumnType({self.name})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ColumnType) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)


def column_values(data: np.ndarray, valid: np.ndarray) -> List[Any]:
    """A ``(data, valid)`` column as Python values, None where NULL."""
    out = data.tolist()
    if data.dtype.kind == "O":  # may hold numpy scalars
        out = [v.item() if isinstance(v, np.generic) else v for v in out]
    for i in np.flatnonzero(~np.asarray(valid)):
        out[i] = None
    return out


INT = ColumnType("INT", np.dtype(np.int64), int)
DOUBLE = ColumnType("DOUBLE", np.dtype(np.float64), float)
STRING = ColumnType("STRING", np.dtype(object), str)
BOOL = ColumnType("BOOL", np.dtype(bool), bool)
TIMESTAMP = ColumnType("TIMESTAMP", np.dtype(object), datetime)

_BY_NAME: Dict[str, ColumnType] = {
    "INT": INT,
    "INTEGER": INT,
    "BIGINT": INT,
    "SMALLINT": INT,
    "DOUBLE": DOUBLE,
    "FLOAT": DOUBLE,
    "REAL": DOUBLE,
    "DECIMAL": DOUBLE,
    "STRING": STRING,
    "VARCHAR": STRING,
    "TEXT": STRING,
    "CHAR": STRING,
    "CLOB": STRING,
    "BOOL": BOOL,
    "BOOLEAN": BOOL,
    "TIMESTAMP": TIMESTAMP,
    "DATE": TIMESTAMP,
}


def type_by_name(name: str) -> ColumnType:
    """Resolve a SQL type name (case-insensitive, sizes ignored)."""
    base = name.strip().upper().split("(")[0].strip()
    try:
        return _BY_NAME[base]
    except KeyError:
        raise SQLTypeError(f"unknown SQL type {name!r}") from None


def infer_type(value: Any) -> Optional[ColumnType]:
    """Guess the column type of a Python value (None for NULL)."""
    if value is None:
        return None
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, (int, np.integer)):
        return INT
    if isinstance(value, (float, np.floating)):
        return DOUBLE
    if isinstance(value, datetime):
        return TIMESTAMP
    return STRING
