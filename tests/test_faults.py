"""Tests for repro.faults and the fault tolerance of the guarded tiers."""

from datetime import datetime

import pytest

from repro import faults, obs, resilience
from repro.eo import GreeceLikeWorld, SceneSpec, generate_scene, write_scene
from repro.faults import (
    FaultPlan,
    FaultRule,
    FaultSpecError,
    PermanentFault,
    TransientFault,
    parse_spec,
)
from repro.ingest import Ingestor
from repro.mdb import Database
from repro.noa.chain import ChainFailure, ChainResult, ProcessingChain
from repro.strabon import StrabonStore

FIRE_SEEDS = [(21.63, 37.7), (22.5, 38.5)]


@pytest.fixture
def live_metrics():
    """The process registry, force-enabled and reset (REPRO_OBS=0 safe)."""
    registry = obs.get_registry()
    previous = registry.enabled
    registry.set_enabled(True)
    registry.reset()
    try:
        yield registry
    finally:
        registry.set_enabled(previous)


@pytest.fixture
def archive(tmp_path):
    world = GreeceLikeWorld()
    paths = []
    for i in range(3):
        spec = SceneSpec(
            width=48,
            height=48,
            seed=i,
            acquired=datetime(2007, 8, 25, 10 + i, 0),
        )
        path = str(tmp_path / f"scene_{i:03d}.nat")
        write_scene(
            generate_scene(spec, world.land, fire_seeds=FIRE_SEEDS), path
        )
        paths.append(path)
    return tmp_path, paths


@pytest.fixture
def ingestor():
    return Ingestor(Database(), StrabonStore())


class TestSpecParsing:
    def test_empty_spec_is_no_plan(self):
        assert parse_spec(None) is None
        assert parse_spec("") is None
        assert parse_spec("   ") is None

    def test_single_rule_with_probability(self):
        plan = parse_spec("vault.fetch:p=0.25;seed=7")
        assert plan.seed == 7
        (rule,) = plan.rules
        assert rule.pattern == "vault.fetch"
        assert rule.probability == 0.25
        assert not rule.hard

    def test_nth_and_hard_triggers(self):
        plan = parse_spec("chain.classification:nth=2,hard")
        (rule,) = plan.rules
        assert rule.nth == frozenset([2])
        assert rule.hard

    def test_multiple_rules_and_glob(self):
        plan = parse_spec("chain.*:p=0.5;strabon.update:nth=1;seed=3")
        assert len(plan.rules) == 2
        assert plan.rules[0].matches("chain.cropping")
        assert not plan.rules[0].matches("vault.fetch")

    def test_errors(self):
        with pytest.raises(FaultSpecError):
            parse_spec("vault.fetch")  # no trigger separator
        with pytest.raises(FaultSpecError):
            parse_spec("vault.fetch:banana")
        with pytest.raises(FaultSpecError):
            parse_spec("vault.fetch:p=2.0")
        with pytest.raises(FaultSpecError):
            parse_spec("vault.fetch:nth=0")
        with pytest.raises(FaultSpecError):
            parse_spec("seed=notanumber")
        with pytest.raises(FaultSpecError):
            parse_spec("seed=5")  # seed alone defines no rule
        with pytest.raises(FaultSpecError):
            FaultRule("x")  # needs p= or nth=


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        def run():
            plan = parse_spec("site.a:p=0.5;seed=11")
            return [
                plan.decide("site.a") is not None for _ in range(50)
            ]

        assert run() == run()
        assert any(run())  # p=0.5 over 50 calls certainly fires

    def test_different_seeds_differ(self):
        def run(seed):
            plan = parse_spec(f"site.a:p=0.5;seed={seed}")
            return [
                plan.decide("site.a") is not None for _ in range(64)
            ]

        assert run(1) != run(2)

    def test_nth_fires_exactly_once(self):
        plan = parse_spec("site.a:nth=3")
        fired = [plan.decide("site.a") for _ in range(6)]
        assert [f is not None for f in fired] == [
            False, False, True, False, False, False
        ]
        fault = fired[2]
        assert isinstance(fault, TransientFault)
        assert fault.site == "site.a"
        assert fault.call_index == 3

    def test_hard_rule_yields_permanent_fault(self):
        plan = parse_spec("site.a:nth=1,hard")
        fault = plan.decide("site.a")
        assert isinstance(fault, PermanentFault)
        assert not isinstance(fault, resilience.TransientError)

    def test_transient_fault_is_transient_error(self):
        assert issubclass(TransientFault, resilience.TransientError)

    def test_counters_per_site(self, live_metrics):
        registry = live_metrics
        plan = parse_spec("site.a:nth=1")
        plan.decide("site.a")
        plan.decide("site.b")  # no rule matches; still counted as a call
        counters = registry.snapshot()["counters"]
        assert counters["faults.injected"] == 1
        assert counters["faults.injected.site.a"] == 1
        assert plan.call_count("site.a") == 1
        assert plan.call_count("site.b") == 1

    def test_first_matching_rule_wins(self):
        plan = parse_spec("site.*:nth=1,hard;site.a:nth=1")
        fault = plan.decide("site.a")
        assert isinstance(fault, PermanentFault)


class TestInstallation:
    @pytest.fixture(autouse=True)
    def pristine(self):
        # These tests assert the no-plan baseline; stash any ambient plan
        # (e.g. a chaos suite run under REPRO_FAULTS) and restore it after.
        previous = faults.uninstall()
        try:
            yield
        finally:
            faults.install(previous)

    def test_injected_scoping(self):
        assert not faults.enabled()
        with faults.injected("site.a:nth=1") as plan:
            assert faults.enabled()
            assert faults.active_plan() is plan
            with pytest.raises(TransientFault):
                faults.maybe_fail("site.a")
        assert not faults.enabled()
        faults.maybe_fail("site.a")  # no-op again

    def test_install_returns_previous(self):
        previous = faults.install("site.a:nth=1")
        try:
            assert previous is None
            inner = faults.install(FaultPlan([FaultRule("b", nth=[1])]))
            assert isinstance(inner, FaultPlan)
        finally:
            faults.uninstall()
        assert not faults.enabled()

    def test_describe(self):
        assert faults.describe() == {"enabled": False}
        with faults.injected("site.a:nth=1;seed=9"):
            faults.maybe_fail("site.other")
            report = faults.describe()
            assert report["enabled"] is True
            assert report["seed"] == 9
            assert report["calls"] == {"site.other": 1}


class TestVaultFaults:
    def test_transient_fetch_fault_absorbed(self, archive, ingestor):
        _, paths = archive
        with faults.injected("vault.fetch:nth=1"):
            report = ingestor.ingest_directory(str(archive[0]), lazy=False)
        assert report.ok
        assert len(report.products) == 3
        assert ingestor.vault.stats["ingests"] == 3

    def test_breaker_trips_on_persistent_fetch_failure(self, tmp_path):
        world = GreeceLikeWorld()
        spec = SceneSpec(width=32, height=32, seed=0)
        path = str(tmp_path / "scene.nat")
        write_scene(generate_scene(spec, world.land), path)
        from repro.mdb.datavault import DataVault
        from repro.ingest.handlers import seviri_format_handler

        now = [0.0]
        vault = DataVault(
            "flaky",
            retry=resilience.RetryPolicy(attempts=1),
            breaker=resilience.CircuitBreaker(
                "vault.flaky",
                failure_threshold=2,
                recovery_time=30.0,
                record_on=(
                    resilience.TransientError,
                    faults.InjectedFault,
                ),
                clock=lambda: now[0],
            ),
        )
        vault.register_format(seviri_format_handler())
        vault.attach_file(path)
        with faults.injected("vault.fetch:p=1.0,hard"):
            for _ in range(2):
                with pytest.raises(PermanentFault):
                    vault.fetch(path)
            assert vault.breaker.state == "open"
            with pytest.raises(resilience.CircuitOpenError):
                vault.fetch(path)
        # Backend "recovers": after the window, a probe closes the circuit.
        now[0] += 30.0
        array = vault.fetch(path)
        assert array.shape == (32, 32)
        assert vault.breaker.state == "closed"
        assert vault.stats["ingests"] == 1


class TestIngestFaults:
    def test_transient_file_fault_retried(self, archive, ingestor):
        _, paths = archive
        with faults.injected("ingest.file:nth=2"):
            report = ingestor.ingest_directory(str(archive[0]))
        assert report.ok
        assert len(report.products) == 3

    def test_permanent_file_fault_degrades(self, archive, ingestor):
        directory, paths = archive
        with faults.injected("ingest.file:nth=2,hard"):
            report = ingestor.ingest_directory(str(directory))
        assert not report.ok
        assert len(report.products) == 2
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert isinstance(failure.error, PermanentFault)
        assert not failure.ok
        # The failed file's slot is the 2nd in sorted order.
        assert failure.path == paths[1]
        # Catalog is consistent: exactly the two succeeded products.
        assert ingestor.db.scalar("SELECT count(*) FROM products") == 2
        ids = {p.product_id for p in report.products}
        rows = ingestor.db.execute("SELECT product_id FROM products")
        assert set(rows.column("product_id")) == ids

    def test_every_file_lands_in_products_or_failures(
        self, archive, ingestor
    ):
        directory, paths = archive
        with faults.injected("ingest.file:p=0.5,hard;seed=5"):
            report = ingestor.ingest_directory(str(directory))
        got = {p.path for p in report.products} | {
            f.path for f in report.failures
        }
        assert got == set(paths)


class TestChainFaults:
    def test_transient_stage_faults_absorbed(self, archive, ingestor):
        _, paths = archive
        chain = ProcessingChain(ingestor)
        with faults.injected(
            "chain.classification:nth=1;chain.shapefile:nth=1"
        ):
            result = chain.run(paths[0])
        assert result.ok
        assert result.hotspots

    def test_permanent_stage_fault_isolated_in_batch(
        self, archive, ingestor
    ):
        """Acceptance: an injected permanent fault in one acquisition
        never drops another acquisition's products or RDF."""
        directory, paths = archive
        chain = ProcessingChain(ingestor)
        with faults.injected("chain.classification:nth=2,hard"):
            results = chain.run_batch(paths)
        from repro.ingest.metadata import product_uri

        # Exactly one acquisition degrades.  Which one takes the 2nd
        # classification call depends on worker scheduling, so assert by
        # slot rather than by a fixed index.
        failures = [r for r in results if isinstance(r, ChainFailure)]
        survivors = [r for r in results if isinstance(r, ChainResult)]
        assert len(failures) == 1 and len(survivors) == 2
        failed = failures[0]
        assert isinstance(failed.error, PermanentFault)
        assert failed.path == paths[results.index(failed)]
        # The two surviving acquisitions' RDF reached the store.
        for result in survivors:
            node = product_uri(result.derived_product)
            assert list(ingestor.store.triples((node, None, None)))

    def test_chain_deadline_becomes_chain_failure_in_batch(
        self, archive, ingestor
    ):
        _, paths = archive
        chain = ProcessingChain(ingestor, deadline=0.0)
        results = chain.run_batch(paths[:1])
        assert isinstance(results[0], ChainFailure)
        assert isinstance(results[0].error, resilience.DeadlineExceeded)

    def test_chain_deadline_raises_on_single_run(self, archive, ingestor):
        _, paths = archive
        chain = ProcessingChain(ingestor, deadline=0.0)
        with pytest.raises(resilience.DeadlineExceeded):
            chain.run(paths[0])


class TestStrabonFaults:
    def test_transient_update_fault_retried(self):
        store = StrabonStore()
        store.load_turtle(
            '@prefix ex: <http://ex/> . ex:s ex:p "old" .'
        )
        with faults.injected("strabon.update:nth=1"):
            changed = store.update(
                "PREFIX ex: <http://ex/> "
                'DELETE { ?s ex:p "old" } INSERT { ?s ex:p "new" } '
                'WHERE { ?s ex:p "old" }'
            )
        assert changed == 2

    def test_permanent_update_fault_mutates_nothing(self):
        store = StrabonStore()
        store.load_turtle(
            '@prefix ex: <http://ex/> . ex:s ex:p "old" .'
        )
        with faults.injected("strabon.update:nth=1,hard"):
            with pytest.raises(PermanentFault):
                store.update(
                    "PREFIX ex: <http://ex/> "
                    'DELETE { ?s ex:p "old" } WHERE { ?s ex:p "old" }'
                )
        assert len(store) == 1  # untouched


class TestResilienceService:
    def test_snapshot_and_reset(self, archive):
        from repro.vo import VirtualEarthObservatory

        vo = VirtualEarthObservatory(load_linked_data=False)
        snap = vo.resilience.snapshot()
        names = {b["name"] for b in snap["breakers"]}
        assert names == {"vault.eo-archive"}
        assert snap["faults"] == faults.describe()  # mirrors the active plan
        assert vo.resilience.reset_breakers() == 0  # all already closed
