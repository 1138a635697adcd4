"""Differential-oracle conformance testing for the TELEIOS stack.

Every optimisation in the repository (plan caches, BGP join ordering,
spatial-index prefilters, vectorised SciQL kernels, retried chain runs) is
continuously checked against a slow, obviously-correct reference:

* :mod:`repro.testkit.generators` — seeded, deterministic input
  generators (WKT geometries, stRDF graphs + stSPARQL queries, SciQL
  programs, NOA acquisition batches).  A *spec* is a JSON-able value; a
  seed always regenerates the same spec, so every case is replayable.
* :mod:`repro.testkit.oracles` — brute-force reference implementations
  (all-pairs spatial scan, nested-loop BGP evaluation, pure-python cell
  loops, fault-free sequential chain runs).
* :mod:`repro.testkit.differential` — runs optimised variants against
  the oracle and against each other, reporting the first divergence.
* :mod:`repro.testkit.shrink` — greedy spec shrinking down to a locally
  minimal counterexample.
* :mod:`repro.testkit.corpus` — a directory of past counterexamples
  replayed by the normal test suite.

Run a sweep with ``python -m repro.testkit sweep``; replay a printed
``REPRO_TESTKIT_SEED`` with ``python -m repro.testkit replay``.
"""

from repro.testkit.differential import (
    DOMAINS,
    Counterexample,
    run_case,
    sweep,
)
from repro.testkit.generators import case_seed, gen_geometry, gen_spec
from repro.testkit.shrink import shrink, spec_size

__all__ = [
    "DOMAINS",
    "Counterexample",
    "case_seed",
    "gen_geometry",
    "gen_spec",
    "run_case",
    "shrink",
    "spec_size",
    "sweep",
]
