"""Database facade and query results."""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cache import LRUCache
from repro.mdb.catalog import Catalog
from repro.mdb.errors import ExecutionError
from repro.mdb.sql.executor import Executor, Vector
from repro.mdb.sql.parser import parse_script, parse_statement


class Result:
    """The outcome of a statement.

    SELECTs carry named columns; DML statements carry ``rowcount``.
    """

    def __init__(
        self,
        names: Optional[List[str]] = None,
        columns: Optional[List[Vector]] = None,
        rowcount: int = 0,
    ):
        self.names = names or []
        self._columns = columns or []
        self.rowcount = rowcount

    @classmethod
    def affected(cls, count: int) -> "Result":
        return cls(rowcount=count)

    @property
    def is_query(self) -> bool:
        return bool(self.names)

    def __len__(self) -> int:
        if not self._columns:
            return 0
        return len(self._columns[0][0])

    def rows(self) -> List[Tuple[Any, ...]]:
        """All result rows as Python tuples (NULL → None)."""
        n = len(self)
        out = []
        for i in range(n):
            out.append(
                tuple(
                    self._value(col, i) for col in self._columns
                )
            )
        return out

    @staticmethod
    def _value(col: Vector, i: int):
        data, valid = col
        if not valid[i]:
            return None
        value = data[i]
        if isinstance(value, np.generic):
            return value.item()
        return value

    def column(self, name: str) -> List[Any]:
        """One column's values by result name."""
        try:
            index = self.names.index(name)
        except ValueError:
            raise ExecutionError(
                f"no result column {name!r}; have {self.names}"
            ) from None
        col = self._columns[index]
        return [self._value(col, i) for i in range(len(self))]

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if len(self.names) != 1 or len(self) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.names)}x{len(self)}"
            )
        return self._value(self._columns[0], 0)

    def dicts(self) -> Iterator[Dict[str, Any]]:
        for row in self.rows():
            yield dict(zip(self.names, row))

    def __repr__(self) -> str:
        if self.is_query:
            return f"<Result {self.names} rows={len(self)}>"
        return f"<Result rowcount={self.rowcount}>"


class Database:
    """A MonetDB-style in-memory database instance.

    The single public entry point is :meth:`execute`; convenience wrappers
    (:meth:`query`, :meth:`scalar`) reduce boilerplate in application code.
    """

    def __init__(self):
        self.catalog = Catalog()
        self._executor = Executor(self.catalog)
        # Set by repro.mdb.storage.StorageEngine when this instance is
        # durably backed; None for plain in-memory databases.
        self.engine = None
        # Prepared-plan cache: SQL text → parsed statement.  Statement
        # ASTs are immutable, so repeated query texts (the dominant shape
        # of catalog-serving workloads) skip the lexer and parser.
        self.plan_cache = LRUCache(maxsize=256, name="mdb.plan_cache")
        # One statement executes at a time: the executor and catalog are
        # not internally concurrent, so the worker pool (parallel NOA
        # batches) serialises on this re-entrant lock.  Callers doing
        # multi-statement catalog surgery may hold it across statements.
        self.lock = threading.RLock()

    def execute(self, sql: str) -> Result:
        """Parse and execute one statement (plans cached by SQL text)."""
        stmt = self.plan_cache.get_or_compute(
            sql, lambda: parse_statement(sql)
        )
        with obs.span("mdb.execute"), self.lock:
            return self._executor.execute(stmt)

    def execute_script(self, sql: str) -> List[Result]:
        """Execute a ';'-separated script; returns one Result per statement."""
        stmts = self.plan_cache.get_or_compute(
            ("script", sql), lambda: parse_script(sql)
        )
        with self.lock:
            return [self._executor.execute(stmt) for stmt in stmts]

    def query(self, sql: str) -> List[Tuple[Any, ...]]:
        """Execute a SELECT and return its rows."""
        result = self.execute(sql)
        if not result.is_query:
            raise ExecutionError("query() expects a SELECT statement")
        return result.rows()

    def scalar(self, sql: str) -> Any:
        """Execute a SELECT returning one value."""
        return self.execute(sql).scalar()

    def insert_rows(
        self, table_name: str, rows: Sequence[Sequence[Any]]
    ) -> int:
        """Fast-path bulk insert bypassing the SQL parser."""
        with self.lock:
            table = self.catalog.table(table_name)
            return table.insert_rows(rows)

    def insert_columns(
        self, table_name: str, columns: Dict[str, Sequence[Any]]
    ) -> int:
        """Columnar bulk insert (one sequence per column) — the
        batched-write path used for 100k-scale catalog ingest."""
        with self.lock:
            table = self.catalog.table(table_name)
            return table.insert_columns(columns)

    # -- convenience -------------------------------------------------------

    def table(self, name: str):
        return self.catalog.table(name)

    def array(self, name: str):
        return self.catalog.array(name)

    def tables(self) -> List[str]:
        return self.catalog.table_names()

    def arrays(self) -> List[str]:
        return self.catalog.array_names()

    def __repr__(self) -> str:
        return (
            f"<Database tables={self.catalog.table_names()} "
            f"arrays={self.catalog.array_names()}>"
        )
