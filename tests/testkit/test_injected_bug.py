"""Acceptance: a deliberately injected optimizer bug is caught, shrunk
to a tiny counterexample, and replayable from its printed seed.

Two classic bug shapes are injected:

* the store's spatial-index fold drops its tail once the packed column
  holds any slot, so the column goes stale after the first probe (the
  stale-snapshot bug class fixed in an earlier release);
* ``StrabonStore.spatial_candidates_batch`` silently drops a candidate
  (a broken prefilter must never shrink the answer set);
* the batched exact predicate kernel ignores holes of the container
  (``within`` of a polygon that encloses the other's hole).
"""

import pytest

from repro.strabon import StrabonStore
from repro.testkit import run_case, sweep
from repro.testkit.generators import gen_spec

BASE_SEED = 20_260_806


@pytest.fixture
def stale_snapshot_insert(monkeypatch):
    """Make the spatial-index fold drop its tail after the first fold."""
    original = StrabonStore._fold_index

    def buggy_fold(self):
        if self._literals:
            self._tail = []  # BUG: adds after the first fold never land
        original(self)

    monkeypatch.setattr(StrabonStore, "_fold_index", buggy_fold)


@pytest.fixture
def lossy_prefilter(monkeypatch):
    """Make the batched spatial prefilter drop one candidate per probe."""
    original = StrabonStore.spatial_candidates_batch

    def buggy_batch(self, envelopes):
        found = original(self, envelopes)
        if found is None:
            return None
        return [
            candidates - {max(candidates, key=repr)}
            if candidates
            else candidates
            for candidates in found
        ]

    monkeypatch.setattr(
        StrabonStore, "spatial_candidates_batch", buggy_batch
    )


class TestStaleSnapshotBugIsCaught:
    def test_sweep_catches_and_shrinks(self, stale_snapshot_insert):
        report = sweep(
            base_seed=BASE_SEED,
            budget_seconds=60.0,
            domains=("spatial",),
            max_cases=300,
            stop_on_first=True,
        )
        assert report.counterexamples, (
            f"injected bug escaped {report.cases_run} cases"
        )
        counterexample = report.counterexamples[0]

        # Shrunk to the acceptance bound: at most 2 geometries.
        shrunk = counterexample.shrunk_spec
        assert shrunk is not None
        assert len(shrunk["geometries"]) <= 2
        assert len(shrunk["probes"]) == 1
        assert counterexample.shrunk_detail is not None

        # Replayable from the printed seed alone.
        replayed_spec = gen_spec("spatial", counterexample.seed)
        assert replayed_spec == counterexample.spec
        assert run_case("spatial", replayed_spec) is not None
        assert run_case("spatial", shrunk) is not None

        # And the report names the seed for copy-paste replay.
        text = counterexample.format()
        assert f"REPRO_TESTKIT_SEED={counterexample.seed}" in text
        assert "replay" in text

    def test_same_seeds_agree_without_the_bug(self):
        report = sweep(
            base_seed=BASE_SEED,
            budget_seconds=60.0,
            domains=("spatial",),
            max_cases=60,
        )
        assert report.ok


class TestLossyPrefilterBugIsCaught:
    def test_sweep_catches_and_shrinks(self, lossy_prefilter):
        report = sweep(
            base_seed=BASE_SEED,
            budget_seconds=60.0,
            domains=("stsparql",),
            max_cases=500,
            stop_on_first=True,
        )
        assert report.counterexamples, (
            f"injected bug escaped {report.cases_run} cases"
        )
        counterexample = report.counterexamples[0]
        shrunk = counterexample.shrunk_spec
        assert shrunk is not None

        # Shrunk to the acceptance bound: at most 5 triples.
        total = len(shrunk["triples"]) + len(shrunk["extra_triples"])
        assert total <= 5
        assert run_case("stsparql", shrunk) is not None

        replayed_spec = gen_spec("stsparql", counterexample.seed)
        assert run_case("stsparql", replayed_spec) is not None

    def test_same_seeds_agree_without_the_bug(self):
        report = sweep(
            base_seed=BASE_SEED,
            budget_seconds=60.0,
            domains=("stsparql",),
            max_cases=60,
        )
        assert report.ok


class TestHoleBlindKernelBugIsCaught:
    def test_sweep_catches_and_shrinks(self, monkeypatch):
        from repro.geometry import batch

        def covers_without_holes(outer, inner, ka, kb):
            holes = outer.hole_count
            outer.hole_count = holes * 0  # BUG: no hole is ever checked
            try:
                return covers(outer, inner, ka, kb)
            finally:
                outer.hole_count = holes

        covers = batch._covers
        monkeypatch.setattr(batch, "_covers", covers_without_holes)
        report = sweep(
            base_seed=BASE_SEED,
            budget_seconds=60.0,
            domains=("predicates",),
            max_cases=3000,
            stop_on_first=True,
        )
        assert report.counterexamples, (
            f"injected bug escaped {report.cases_run} cases"
        )
        counterexample = report.counterexamples[0]
        shrunk = counterexample.shrunk_spec
        assert len(shrunk["pairs"]) == 1
        assert "), (" in shrunk["pairs"][0][0] + shrunk["pairs"][0][1]
        assert run_case("predicates", shrunk) is not None
        replayed_spec = gen_spec("predicates", counterexample.seed)
        assert run_case("predicates", replayed_spec) is not None
