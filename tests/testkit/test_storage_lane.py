"""Differential storage lane: durable engine vs in-memory oracle.

The flagship check here is the crash sweep: for one schedule, inject a
``hard`` fault at *every* WAL append boundary in turn and demand that
recovery reproduces exactly the acknowledged prefix the in-memory
oracle holds at that boundary — bit-identical rows, nothing lost,
nothing resurrected.
"""

import pytest

from repro import faults
from repro.mdb import Database
from repro.mdb.storage import open_database
from repro.testkit import differential, oracles
from repro.testkit.differential import storage_apply
from repro.testkit.shrink import candidates as shrink_candidates
from repro.testkit.generators import gen_spec


class TestGenerator:
    def test_specs_are_deterministic(self):
        assert gen_spec("storage", 11) == gen_spec("storage", 11)

    def test_schedules_reference_only_live_tables(self):
        for seed in range(30):
            live = set()
            for op in gen_spec("storage", seed)["program"]:
                if op["op"] == "create":
                    assert op["table"] not in live
                    live.add(op["table"])
                elif op["op"] == "drop":
                    assert op["table"] in live
                    live.remove(op["table"])
                elif "table" in op:
                    assert op["table"] in live


class TestLane:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_schedules_agree(self, seed):
        spec = gen_spec("storage", seed)
        assert differential.run_case("storage", spec) is None

    def test_lane_catches_lost_writes(self, tmp_path, monkeypatch):
        """The lane must actually fail when recovery drops data: a spec
        replayed against an engine whose WAL is silently discarded
        diverges at the final recovery compare."""
        spec = {
            "program": [
                {"op": "create", "table": "t_a"},
                {"op": "insert", "table": "t_a", "rows": [[1, "x", 0.5, None]]},
                {"op": "reload"},
            ],
            "faults": None,
        }
        import repro.mdb.storage.wal as wal_mod

        real_append = wal_mod.WriteAheadLog.append
        monkeypatch.setattr(
            wal_mod.WriteAheadLog,
            "append",
            lambda self, record: None,  # ack without journaling
        )
        try:
            detail = differential.run_case("storage", spec)
        finally:
            monkeypatch.setattr(
                wal_mod.WriteAheadLog, "append", real_append
            )
        assert detail is not None
        assert "reload" in detail or "recovery" in detail

    def test_shrink_storage_specs(self):
        spec = gen_spec("storage", 5)
        smaller = shrink_candidates("storage", spec)
        assert smaller
        for candidate in smaller:
            assert candidate["program"]


class TestTypedWrites:
    """``typed`` ops write numpy scalars and ints into STRING; ``reject``
    ops write a multi-row batch whose last row has a bad non-first cell."""

    def spec(self, *extra):
        return {
            "program": [
                {"op": "create", "table": "t_a"},
                {"op": "insert", "table": "t_a", "rows": [[1, "x", 0.5, None]]},
                *extra,
                {"op": "reload"},
            ],
            "faults": None,
        }

    def test_generator_adds_both_kinds(self):
        kinds = {
            op["op"]
            for seed in range(20)
            for op in gen_spec("storage", seed)["program"]
        }
        assert {"typed", "reject"} <= kinds

    def test_typed_and_rejected_writes_agree(self):
        spec = self.spec(
            {"op": "typed", "table": "t_a", "base": 10, "count": 5},
            {"op": "reject", "table": "t_a", "base": 20, "count": 3,
             "column": "at"},
            {"op": "reject", "table": "t_a", "base": 20, "count": 2,
             "column": "v"},
        )
        assert differential.run_case("storage", spec) is None

    def test_lane_catches_a_partial_insert(self, monkeypatch):
        """Appending each column as soon as it is coerced leaves the
        table ragged when a later column fails; the lane says so."""
        from repro.mdb.table import Table

        def column_at_a_time(self, columns):
            for col in self.columns:
                self.column(col.name).extend_arrays(
                    *col.ctype.coerce_column(columns[col.name])
                )
            return len(columns[self.columns[0].name])

        monkeypatch.setattr(Table, "insert_columns", column_at_a_time)
        spec = self.spec(
            {"op": "reject", "table": "t_a", "base": 20, "count": 3,
             "column": "at"},
        )
        detail = differential.run_case("storage", spec)
        assert detail is not None and "reject" in detail

class TestCrashSweep:
    def test_crash_at_every_wal_boundary(self, tmp_path):
        """For each K, crash the Kth WAL append; recovery must equal the
        oracle that applied exactly the acknowledged ops."""
        spec = gen_spec("storage", 42)
        program = [
            op
            for op in spec["program"]
            if op["op"] not in ("reload", "checkpoint")
        ]
        assert len(program) >= 4

        # One clean run counts the WAL appends each op produces.
        probe_dir = str(tmp_path / "probe")
        probe = open_database(probe_dir)
        appends = []
        for op in program:
            before = probe.wal_records
            storage_apply(probe.db, op)
            appends.append(probe.wal_records - before)
        probe.close()
        total = sum(appends)
        # Every op journals at least once, but a rejected insert never.
        assert [
            n == 0 if op["op"] == "reject" else n >= 1
            for op, n in zip(program, appends)
        ] == [True] * len(program)

        for k in range(1, total + 1):
            data_dir = str(tmp_path / f"crash-{k}")
            engine = open_database(data_dir)
            oracle = Database()
            crashed_at = None
            with faults.injected(f"storage.wal:nth={k},hard"):
                for i, op in enumerate(program):
                    try:
                        storage_apply(engine.db, op)
                    except faults.PermanentFault:
                        crashed_at = i
                        break
                    storage_apply(oracle, op)
            assert crashed_at is not None, f"K={k} never fired"
            engine.close()

            recovered = open_database(data_dir)
            assert oracles.database_state(
                recovered.db
            ) == oracles.database_state(oracle), (
                f"crash at WAL append #{k} (op {crashed_at}) diverged"
            )
            recovered.close()
