"""StrabonStore.query is invariant to its go-faster knobs.

The answer to an stSPARQL query must not depend on whether the parse
plan came from the LRU plan cache or a cold parse, nor on whether the
observability layer is recording.  Queries and data come from the
testkit generators so the sweep and these fixed regressions share one
vocabulary.
"""

import pytest

from repro import obs
from repro.strabon import StrabonStore
from repro.testkit.differential import _store_rows, render_query
from repro.testkit.generators import gen_spec
from repro.testkit.oracles import triples_from_json

SEEDS = [11, 23, 47, 95, 191, 383, 767, 1535]


def _store_and_query(seed):
    spec = gen_spec("stsparql", seed)
    store = StrabonStore()
    store.load_graph(triples_from_json(spec["triples"]))
    query, variables = render_query(spec)
    return store, query, variables


class TestPlanCacheEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cleared_vs_warm(self, seed):
        store, query, variables = _store_and_query(seed)

        store.plan_cache.clear()
        cold = _store_rows(store, query, variables)
        # The plan is cached now; the second run must hit it.
        hits_before = store.plan_cache.stats.hits
        warm = _store_rows(store, query, variables)
        assert store.plan_cache.stats.hits > hits_before

        store.plan_cache.clear()
        recleared = _store_rows(store, query, variables)

        assert cold == warm == recleared

    def test_clearing_mid_session_is_invisible(self):
        store, query, variables = _store_and_query(777)
        baseline = _store_rows(store, query, variables)
        for _ in range(3):
            store.plan_cache.clear()
            assert _store_rows(store, query, variables) == baseline


class TestObservabilityEquivalence:
    @pytest.fixture
    def registry(self):
        registry = obs.get_registry()
        original = registry.enabled
        yield registry
        registry.set_enabled(original)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_obs_on_vs_off(self, seed, registry):
        store, query, variables = _store_and_query(seed)

        registry.set_enabled(True)
        recorded = _store_rows(store, query, variables)
        registry.set_enabled(False)
        silent = _store_rows(store, query, variables)

        assert recorded == silent

    def test_toggling_between_runs(self, registry):
        store, query, variables = _store_and_query(31337)
        rows = []
        for flag in (True, False, True, False):
            registry.set_enabled(flag)
            rows.append(_store_rows(store, query, variables))
        assert rows[0] == rows[1] == rows[2] == rows[3]
