"""One workload in one process: set-up, warm-up, timed rounds, metrics.

``python3 -m bench`` starts this module in a fresh subprocess with the
pinned environment (see ``bench/__main__.py``); it prints one JSON object
as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

_STARTED = time.perf_counter()

from bench import ADDR_NO_RANDOMIZE, load_spec  # noqa: E402

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Fewest timed rounds, however slow the machine.
MIN_ROUNDS = 3


class Round:
    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.phases: Dict[str, float] = {}
        self.uncounted: Dict[str, float] = {}
        self.latencies: List[float] = []
        self.query_window_s = 0.0
        self.layers: Dict[str, float] = {}

    @property
    def wall(self) -> float:
        return sum(self.phases.values())


class Recorder:
    """What a workload reports into: phases, latencies, checks, and the
    per-layer numbers it can read from the program's public statistics."""

    def __init__(self) -> None:
        self.tracer = None
        self.rounds: List[Round] = []
        self.current: Optional[Round] = None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    @property
    def tracing(self) -> bool:
        return self.current is not None and self.current.traced

    @contextmanager
    def round(self, traced: bool) -> Iterator[Round]:
        this = Round(len(self.rounds), traced)
        self.current = this
        span = None
        if traced:
            self.tracer.round = this.index
            span = self.tracer.begin("round")
        try:
            yield this
        finally:
            if traced:
                self.tracer.end(span)
                self.tracer.round = None
            self.current = None
        self.rounds.append(this)

    @contextmanager
    def phase(self, name: str, counted: bool = True) -> Iterator[None]:
        """Time one phase of the round; an uncounted phase (extra work a
        traced run does) stays out of the round's wall time."""
        span = self.tracer.begin(f"phase.{name}") if self.tracing else None
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            if span is not None:
                self.tracer.end(span)
            target = (
                self.current.phases if counted else self.current.uncounted
            )
            target[name] = target.get(name, 0.0) + elapsed

    def query(self, fn: Callable, *args: Any) -> Any:
        """One interactive query: a latency sample and an operation."""
        started = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - started
        self.current.latencies.append(elapsed)
        self.current.query_window_s += elapsed
        self.attempted += 1
        return result

    def served(self, latencies: List[float], window_s: float) -> None:
        """Latencies of a client that ran for ``window_s`` of wall time."""
        self.current.latencies.extend(latencies)
        self.current.query_window_s += window_s
        self.attempted += len(latencies)

    def check(self, ok: bool, what: str) -> None:
        """One correctness check, counted as an operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def layer(self, name: str, amount: float) -> None:
        """Add to a per-layer metric of the current round."""
        layers = self.current.layers
        layers[name] = layers.get(name, 0.0) + amount


def calibrate() -> float:
    """A fixed pure-Python + numpy kernel, timed before and after the
    rounds to tell a noisy machine from a changed program.  The fastest
    of three passes: interference only ever adds time."""
    import numpy as np

    passes = []
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(1_200_000):
            acc += i * i % 7
        plane = np.arange(500_000, dtype=np.float64)
        for _ in range(60):
            plane = np.sqrt(plane * 1.0001 + 1.0)
        passes.append(time.perf_counter() - started)
    return min(passes)


def percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _cache_counts() -> Dict[str, int]:
    from repro import kernels

    totals = {"hits": 0, "lookups": 0, "refusals": 0}
    for cache in (kernels.sql_kernel_cache, kernels.filter_kernel_cache):
        stats = cache.stats
        totals["hits"] += stats.hits
        totals["lookups"] += stats.lookups
        totals["refusals"] += stats.refusals
    return totals


def run(args: argparse.Namespace) -> Dict[str, Any]:
    from bench import trace as tracing
    from bench.workloads import Context, create

    spec = load_spec()
    os.makedirs(args.workdir, exist_ok=True)
    ctx = Context(args.seed, 8 if args.smoke else 1, args.workdir)

    import_started = time.perf_counter()
    workload = create(args.workload, ctx)
    import_s = time.perf_counter() - import_started

    rec = Recorder()
    calib_before = calibrate()
    # A full collection of a several-hundred-MB heap takes tens of
    # milliseconds and lands on whichever query is running: collect
    # explicitly before every set-up and round instead (as timeit does).
    gc.disable()

    setups: List[float] = []
    for _ in range(1 if args.smoke else SETUP_REPS):
        gc.collect()
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)

    if not args.smoke:
        warm_started = time.perf_counter()
        with rec.round(traced=False):
            workload.round(rec)
        warmup_s = time.perf_counter() - warm_started
        rec.rounds.clear()
    else:
        warmup_s = 0.0

    def rounds_for(seconds: float, traced: bool) -> List[Round]:
        """Rounds until ``seconds`` of wall time are used (at least
        MIN_ROUNDS; exactly one under --smoke)."""
        done: List[Round] = []
        begun = time.perf_counter()
        while True:
            gc.collect()
            with rec.round(traced) as this:
                workload.round(rec)
            done.append(this)
            if args.smoke:
                return done
            elapsed = time.perf_counter() - begun
            if len(done) >= MIN_ROUNDS and (
                elapsed + 0.5 * elapsed / len(done) >= seconds
            ):
                return done

    loop_started = time.perf_counter()
    cpu_started = time.process_time()
    if args.trace:
        # Half the time untraced, half traced, in one process: the two
        # medians give the tracing overhead without a second run.
        plain = rounds_for(args.seconds / 2.0, traced=False)
        rec.tracer = tracing.Tracer()
        tracing.install(rec.tracer)
        caches_before = _cache_counts()
        timed = rounds_for(args.seconds / 2.0, traced=True)
        caches = {
            key: value - caches_before[key]
            for key, value in _cache_counts().items()
        }
    else:
        timed = rounds_for(args.seconds, traced=False)
    loop_wall = time.perf_counter() - loop_started
    loop_cpu = time.process_time() - cpu_started
    calib_after = calibrate()

    walls = [r.wall for r in timed]
    health = {
        "calib_s": calib_before,
        "calib_drift_frac": calib_after / calib_before - 1.0,
        "cpu_over_wall": loop_cpu / loop_wall,
        "address_space_pinned": _address_space_pinned(),
        "round_walls_s": walls,
        "setups_s": setups,
    }
    result: Dict[str, Any] = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "health": health,
    }
    if rec.failures:
        print("failed checks:", *rec.failures, sep="\n  ", file=sys.stderr)

    if not args.trace:
        # Each query statistic is taken per round and the median over
        # the rounds reported, like ``wall_s``: one disturbed round then
        # moves none of them.
        def over_rounds(stat: Callable[[Round], float]) -> float:
            return statistics.median(stat(r) for r in timed)

        values = {
            "setup_s": import_s + statistics.median(setups),
            "wall_s": statistics.median(walls),
            "query_p50_ms": 1e3 * over_rounds(
                lambda r: statistics.median(r.latencies)
            ),
            "query_p95_ms": 1e3 * over_rounds(
                lambda r: percentile(r.latencies, 0.95)
            ),
            "queries_per_s": over_rounds(
                lambda r: len(r.latencies) / r.query_window_s
            ),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
        result["samples"] = {
            "rounds": len(timed),
            "setups": len(setups),
            "queries": sum(len(r.latencies) for r in timed),
        }
    else:
        summary = rec.tracer.summary([r.index for r in timed])
        n = len(timed)
        values = {}
        for round_ in timed:
            for key, amount in round_.layers.items():
                values[key] = values.get(key, 0.0) + amount / n
        for phase in {p for r in timed for p in (*r.phases, *r.uncounted)}:
            values[f"phase.{phase}_s"] = statistics.median(
                r.phases.get(phase, r.uncounted.get(phase, 0.0))
                for r in timed
            )
        for key, amount in summary.counts.items():
            values[key] = amount / n
        for name in list(summary.calls):
            if name == "round" or name.startswith("phase."):
                continue  # benchmark glue; phases are reported above
            values[f"{name}_s"] = summary.self_s[name] / n
            values[f"{name}_n"] = summary.calls[name] / n
            values[f"{name}_p50_ms"] = summary.p50_ms(name)
        values["query.p99_ms"] = 1e3 * percentile(
            [s for r in timed for s in r.latencies], 0.99
        )
        traced_wall = statistics.median(walls)
        plain_wall = statistics.median(r.wall for r in plain)
        # Time inside the timed phases that no wrapped layer accounts
        # for; the checks between phases are the benchmark's own.
        phase_self = sum(
            seconds for name, seconds in summary.self_s.items()
            if name.startswith("phase.")
        )
        values.update(
            {
                "kernels.cache_hit_ratio": _ratio(
                    caches["hits"], caches["lookups"]
                ),
                "kernels.refusals_n": caches["refusals"] / n,
                "machine.calib_s": health["calib_s"],
                "machine.calib_drift_frac": health["calib_drift_frac"],
                "proc.cpu_over_wall": health["cpu_over_wall"],
                "setup.import_s": import_s,
                "setup.first_s": setups[0],
                "setup.warmup_s": warmup_s,
                "trace.wall_s": traced_wall,
                "trace.overhead_frac": traced_wall / plain_wall - 1.0,
                "trace.unattributed_frac": phase_self / sum(
                    r.wall + sum(r.uncounted.values()) for r in timed
                ),
                "trace.rounds_n": float(n),
            }
        )
        _derive(values)
        declared = spec["per_layer"]
        if args.spans:
            os.makedirs(os.path.dirname(args.spans), exist_ok=True)
            rec.tracer.dump(args.spans)
        result["samples"] = {"rounds": n, "untraced_rounds": len(plain)}

    result["metrics"] = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in declared
    }
    health["process_s"] = time.perf_counter() - _STARTED
    return result


def _address_space_pinned() -> bool:
    """Whether the runner's ``personality(ADDR_NO_RANDOMIZE)`` took."""
    with open("/proc/self/personality") as fh:
        return bool(int(fh.read(), 16) & ADDR_NO_RANDOMIZE)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _derive(values: Dict[str, float]) -> None:
    """Ratios of counts and busy times measured at the same boundary."""
    get = lambda key: values.get(key, 0.0)  # noqa: E731
    values["sciql.cells_per_s"] = _ratio(
        get("sciql.cells_n"), get("sciql.execute_s")
    )
    values["store.triples_per_s"] = _ratio(
        get("store.triples_n"), get("store.bulk_emit_s")
    )
    values["rtree.candidates_per_probe"] = _ratio(
        get("rtree.candidates_n"), get("rtree.probes_n")
    )
    values["mining.patches_per_s"] = _ratio(
        get("mining.patches_n"), get("mining.extract_s")
    )
    values["broker.scenes_per_s"] = _ratio(
        get("broker.scenes_n"), get("broker.register_s")
    )
    values["vault.cache_hit_ratio"] = _ratio(
        get("vault.cache_hits_n"),
        get("vault.cache_hits_n") + get("vault.ingests_n"),
    )
    values["store.plan_cache_hit_ratio"] = _ratio(
        get("store.plan_cache_hits_n"), get("store.plan_cache_lookups_n")
    )
    values["server.token_bytes_mean"] = _ratio(
        get("server.token_bytes_n"), get("server.suspends_n")
    )
    values["server.preempt_overhead_frac"] = (
        _ratio(get("phase.solo_s"), get("phase.unpreempted_s")) - 1.0
        if get("phase.unpreempted_s")
        else 0.0
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    detail = {key: result.pop(key) for key in ("samples", "health")}
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
