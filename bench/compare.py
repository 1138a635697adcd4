"""``python3 -m bench compare A.json B.json [...]`` — A against each
other result file, per workload and end-to-end metric.

A result file holds one or more full runs (``python3 -m bench --runs N``).
The verdict follows the choosing-metrics guide, section 8:

* ``unresolved`` — either side's quartile spread is wider than the
  metric's bound, so the runs cannot tell a change of that size;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B wins at least nine tenths of the run pairs (ties count
  for neither) and the medians differ by more than A's own quartile
  spread;
* ``same`` — otherwise.

Exits non-zero when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional

from bench import WORKLOADS, load_spec


def load_runs(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [one value per run]}}`` of a result file."""
    with open(path) as fh:
        record = json.load(fh)
    out: Dict[str, Dict[str, List[float]]] = {}
    for run in record["runs"]:
        for workload, entry in run["workloads"].items():
            metrics = entry["end_to_end"]["metrics"]
            for name, cell in metrics.items():
                out.setdefault(workload, {}).setdefault(name, []).append(
                    cell["value"]
                )
    return out


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(q: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    return (q[2] - q[0]) / q[1]


def verdict(
    a: List[float], b: List[float], better: str, bound: float
) -> str:
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    if max(spread(qa), spread(qb)) > bound:
        return "unresolved"
    change = sign * (qb[1] - qa[1]) / qa[1]  # positive = worse
    if change > bound:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if (
        wins >= 0.9 * len(pairs) > 0 and losses == len(pairs) - wins
        and abs(qb[1] - qa[1]) > qa[2] - qa[0]
    ):
        return "better"
    return "same"


def compare(path_a: str, path_b: str, markdown: bool) -> bool:
    """Print the table of A against B; True when something is worse."""
    spec = load_spec()
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    any_worse = False
    header = (
        "workload/metric", "unit",
        "A q1", "A median", "A q3", "A spread", "A max/min",
        "B q1", "B median", "B q3", "B spread", "B max/min",
        "B/A", "bound", "verdict",
    )
    rows = []
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = runs_a.get(workload, {}).get(name)
            b = runs_b.get(workload, {}).get(name)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            outcome = verdict(a, b, metric["better"], metric["bound"])
            any_worse = any_worse or outcome == "worse"
            rows.append((
                f"{workload}/{name}", metric["unit"],
                f"{qa[0]:.4g}", f"{qa[1]:.4g}", f"{qa[2]:.4g}",
                f"{spread(qa):.1%}", f"{max(a) / min(a):.3f}",
                f"{qb[0]:.4g}", f"{qb[1]:.4g}", f"{qb[2]:.4g}",
                f"{spread(qb):.1%}", f"{max(b) / min(b):.3f}",
                f"{qb[1] / qa[1]:.3f}", f"{metric['bound']:.0%}", outcome,
            ))
    print(f"A = {path_a} ({_count(runs_a)} runs), "
          f"B = {path_b} ({_count(runs_b)} runs)\n")
    if markdown:
        print("| " + " | ".join(header) + " |")
        print("|" + "---|" * len(header))
        for row in rows:
            print("| " + " | ".join(row) + " |")
    else:
        widths = [
            max(len(str(r[i])) for r in [header] + rows)
            for i in range(len(header))
        ]
        for row in [header] + rows:
            print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return any_worse


def _count(runs: Dict[str, Dict[str, List[float]]]) -> int:
    return max(
        (len(v) for metrics in runs.values() for v in metrics.values()),
        default=0,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench compare")
    parser.add_argument("a", help="baseline result file")
    parser.add_argument("b", nargs="+", help="result files to judge")
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args(argv)
    worse = False
    for path in args.b:
        worse = compare(args.a, path, args.markdown) or worse
        print()
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
