"""Compare benchmark metrics against committed baseline floors.

The CI ``bench-gate`` job runs the gated benchmark (A10 writes
``BENCH_mining.json``) and then this checker.  Each entry in
``benchmarks/baselines.json`` names a dotted path into its results file
(``extract.patches_per_second`` →
``results["extract"]["patches_per_second"]``) and the value recorded
the last time the baseline was updated.  A measurement may drift
*below* its baseline by at most ``tolerance`` (relative) before the
gate fails — CI runners are noisy, real regressions are not.

The baselines spec gates one results file through its top-level
``results_file``/``baselines`` keys; an optional ``files`` list adds
further ``{"results_file": ..., "baselines": {...}}`` entries gated
with the same tolerance.

Exit status: 0 when every metric is within tolerance, 1 when any metric
regressed or is missing from its results file.

Updating baselines after an intentional performance change::

    PYTHONPATH=src python -m pytest benchmarks/bench_a10_mining.py -q
    python benchmarks/check_baselines.py --update
    git add benchmarks/baselines.json   # commit alongside the change

``--update`` rewrites the baseline of every tracked metric to the value
just measured; tolerance and the metric set are never touched.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINES = os.path.join(
    REPO_ROOT, "benchmarks", "baselines.json"
)


def lookup(results: Any, dotted: str) -> Any:
    """Walk a dotted path into nested dicts; None when any hop is gone."""
    node = results
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check(
    baselines_path: str,
    results_path: str | None = None,
    update: bool = False,
) -> int:
    with open(baselines_path) as fh:
        spec = json.load(fh)
    tolerance = float(spec["tolerance"])
    repo_dir = os.path.join(
        os.path.dirname(os.path.abspath(baselines_path)), os.pardir
    )

    # The top-level results_file/baselines pair (honouring an explicit
    # --results override), plus any extra entries from the optional
    # "files" list.
    entries = [(results_path, spec["results_file"], spec["baselines"])]
    for extra in spec.get("files", []):
        entries.append((None, extra["results_file"], extra["baselines"]))

    resolved = []
    for override, results_file, baselines in entries:
        path = override or os.path.join(repo_dir, results_file)
        if not os.path.exists(path):
            print(f"bench-gate: results file missing: {path}")
            return 1
        with open(path) as fh:
            resolved.append((path, json.load(fh), baselines))

    failures = 0
    width = max(len(k) for _, _, b in resolved for k in b)
    for path, results, baselines in resolved:
        for metric, baseline in sorted(baselines.items()):
            measured = lookup(results, metric)
            if not isinstance(measured, (int, float)):
                print(f"FAIL {metric:<{width}}  missing from {path}")
                failures += 1
                continue
            floor = float(baseline) * (1.0 - tolerance)
            verdict = "ok  " if measured >= floor else "FAIL"
            print(
                f"{verdict} {metric:<{width}}  measured {measured:9.2f}"
                f"  baseline {float(baseline):9.2f}"
                f"  floor {floor:9.2f}"
            )
            if measured < floor:
                failures += 1
            if update:
                baselines[metric] = round(float(measured), 2)

    if update:
        with open(baselines_path, "w") as fh:
            json.dump(spec, fh, indent=2)
            fh.write("\n")
        print(f"bench-gate: baselines rewritten in {baselines_path}")
        return 0
    if failures:
        print(
            f"bench-gate: {failures} metric(s) regressed beyond "
            f"{tolerance:.0%} tolerance"
        )
    return 1 if failures else 0


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate benchmark metrics against baselines.json"
    )
    parser.add_argument(
        "--baselines",
        default=DEFAULT_BASELINES,
        help="path to baselines.json (default: benchmarks/baselines.json)",
    )
    parser.add_argument(
        "--results",
        default=None,
        help="path to the benchmark results file "
        "(default: results_file from baselines.json, repo-relative)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite each baseline to the measured value and exit 0",
    )
    ns = parser.parse_args(argv)
    return check(ns.baselines, ns.results, ns.update)


if __name__ == "__main__":
    sys.exit(main())
