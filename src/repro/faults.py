"""Deterministic fault injection — the chaos harness of the VEO stack.

Production failure modes (corrupt acquisitions, slow storage, a store
tier refusing writes) cannot be waited for in CI; they have to be
*injected*.  This module plants named injection points at every tier
boundary — Data Vault payload reads (``vault.fetch``), per-file
ingestion (``ingest.file``), each chain stage (``chain.ingestion`` ...
``chain.shapefile``, ``mining.extract`` ... ``mining.annotate``),
Strabon updates
(``strabon.update``), serving-tier request quanta (``server.request``,
fired once per time slice by :class:`repro.server.QueryServer`) and the
durable storage engine's write paths (``storage.wal``,
``storage.segment``, ``storage.snapshot`` — each fired *before* any
byte reaches disk, so a ``hard`` fault there is an exact crash
simulation) — and fires them according to a spec string, so the whole
test suite can run under a fixed failure schedule and still pass.

**Spec syntax** (the ``REPRO_FAULTS`` environment variable)::

    REPRO_FAULTS = clause [";" clause]*
    clause       = "seed=" INT
                 | SITE-PATTERN ":" trigger ["," trigger]*
    trigger      = "p=" FLOAT        seeded per-call failure probability
                 | "nth=" INT        fail exactly the Nth call (1-based)
                 | "hard"            make this rule's faults permanent

Site patterns are :func:`fnmatch.fnmatchcase` globs.  Examples::

    REPRO_FAULTS="*:p=0.1;seed=1337"            # 10% chaos, everywhere
    REPRO_FAULTS="vault.fetch:p=0.25;seed=7"    # flaky payload reads
    REPRO_FAULTS="chain.classification:nth=2,hard"  # 2nd call: permanent

**Determinism.**  Each site keeps a call counter; the decision for call
``n`` of a site depends only on ``(seed, rule, site, n)`` — never on
wall-clock time or thread interleaving — so a chaos run replays the same
per-site failure schedule on every execution.

**Failure taxonomy.**  By default an injected fault is a
:class:`TransientFault` (a subclass of
:class:`repro.resilience.TransientError`), which the retry policies of
the guarded call sites absorb — the system is *expected* to survive it.
A rule marked ``hard`` raises :class:`PermanentFault` instead, which no
retry whitelist matches: it surfaces as a per-file
:class:`~repro.ingest.harvest.IngestFailure`, a per-acquisition
:class:`~repro.stages.ChainFailure`, or a circuit-breaker trip —
degradation, not crash.

Injection is a no-op (one global ``None`` check) unless ``REPRO_FAULTS``
is set or a plan is installed programmatically via :func:`install` /
:func:`injected`.  Every fired fault increments ``faults.injected`` and
``faults.injected.<site>`` in :mod:`repro.obs`.
"""

from __future__ import annotations

import fnmatch
import os
import random
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro import obs, resilience

__all__ = [
    "FAULTS_ENV",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "InjectedFault",
    "PermanentFault",
    "TransientFault",
    "active_plan",
    "describe",
    "enabled",
    "injected",
    "install",
    "maybe_fail",
    "parse_spec",
    "uninstall",
]

#: Environment variable carrying the fault-injection spec.
FAULTS_ENV = "REPRO_FAULTS"


class FaultSpecError(ValueError):
    """Raised for malformed ``REPRO_FAULTS`` spec strings."""


class InjectedFault(RuntimeError):
    """Base class of all injected faults (carries site and call index)."""

    def __init__(self, site: str, call_index: int, hard: bool):
        kind = "permanent" if hard else "transient"
        super().__init__(
            f"injected {kind} fault at {site!r} (call #{call_index})"
        )
        self.site = site
        self.call_index = call_index
        self.hard = hard


class TransientFault(InjectedFault, resilience.TransientError):
    """An injected fault that retry policies are expected to absorb."""

    def __init__(self, site: str, call_index: int):
        super().__init__(site, call_index, hard=False)


class PermanentFault(InjectedFault):
    """An injected fault no retry absorbs — must degrade, not crash."""

    def __init__(self, site: str, call_index: int):
        super().__init__(site, call_index, hard=True)


class FaultRule:
    """One clause of the spec: a site pattern plus its triggers."""

    __slots__ = ("pattern", "probability", "nth", "hard")

    def __init__(
        self,
        pattern: str,
        probability: Optional[float] = None,
        nth: Optional[List[int]] = None,
        hard: bool = False,
    ):
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise FaultSpecError(
                f"probability must be in [0, 1], got {probability}"
            )
        for n in nth or []:
            if n < 1:
                raise FaultSpecError(f"nth must be >= 1, got {n}")
        if probability is None and not nth:
            raise FaultSpecError(
                f"rule for {pattern!r} needs a trigger (p= or nth=)"
            )
        self.pattern = pattern
        self.probability = probability
        self.nth = frozenset(nth or [])
        self.hard = hard

    def matches(self, site: str) -> bool:
        return fnmatch.fnmatchcase(site, self.pattern)

    def __repr__(self) -> str:
        bits = []
        if self.probability is not None:
            bits.append(f"p={self.probability}")
        for n in sorted(self.nth):
            bits.append(f"nth={n}")
        if self.hard:
            bits.append("hard")
        return f"<FaultRule {self.pattern}:{','.join(bits)}>"


class FaultPlan:
    """A parsed spec plus the per-site call counters it drives."""

    def __init__(self, rules: List[FaultRule], seed: int = 0):
        self.rules = list(rules)
        self.seed = int(seed)
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()

    def call_count(self, site: str) -> int:
        with self._lock:
            return self._counts.get(site, 0)

    def decide(self, site: str) -> Optional[InjectedFault]:
        """Register one call at ``site``; the fault to raise, if any.

        The decision for call ``n`` is a pure function of
        ``(seed, rule index, site, n)``: ``nth`` triggers fire on the
        matching call index, probability triggers draw from a generator
        seeded with exactly those values.  Rules are consulted in spec
        order; the first rule that fires wins.
        """
        with self._lock:
            n = self._counts.get(site, 0) + 1
            self._counts[site] = n
        for index, rule in enumerate(self.rules):
            if not rule.matches(site):
                continue
            fired = n in rule.nth
            if not fired and rule.probability:
                draw = random.Random(
                    f"{self.seed}|{index}|{site}|{n}"
                ).random()
                fired = draw < rule.probability
            if fired:
                obs.counter("faults.injected").inc()
                obs.counter(f"faults.injected.{site}").inc()
                if rule.hard:
                    return PermanentFault(site, n)
                return TransientFault(site, n)
        return None

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            counts = dict(self._counts)
        return {
            "seed": self.seed,
            "rules": [repr(rule) for rule in self.rules],
            "calls": counts,
        }

    def __repr__(self) -> str:
        return f"<FaultPlan rules={len(self.rules)} seed={self.seed}>"


def parse_spec(text: Optional[str]) -> Optional[FaultPlan]:
    """Parse a spec string; None (no plan) for empty/absent input."""
    text = (text or "").strip()
    if not text:
        return None
    rules: List[FaultRule] = []
    seed = 0
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            try:
                seed = int(clause[len("seed="):])
            except ValueError as exc:
                raise FaultSpecError(f"bad seed in {clause!r}") from exc
            continue
        site, sep, triggers = clause.partition(":")
        site = site.strip()
        if not sep or not site:
            raise FaultSpecError(
                f"expected 'site:trigger[,trigger...]', got {clause!r}"
            )
        probability: Optional[float] = None
        nth: List[int] = []
        hard = False
        for trigger in triggers.split(","):
            trigger = trigger.strip()
            if trigger == "hard":
                hard = True
            elif trigger.startswith("p="):
                try:
                    probability = float(trigger[2:])
                except ValueError as exc:
                    raise FaultSpecError(
                        f"bad probability in {trigger!r}"
                    ) from exc
            elif trigger.startswith("nth="):
                try:
                    nth.append(int(trigger[4:]))
                except ValueError as exc:
                    raise FaultSpecError(f"bad nth in {trigger!r}") from exc
            else:
                raise FaultSpecError(f"unknown trigger {trigger!r}")
        rules.append(FaultRule(site, probability, nth, hard))
    if not rules:
        raise FaultSpecError(f"spec {text!r} defines no fault rules")
    return FaultPlan(rules, seed)


# -- the active plan ----------------------------------------------------------

_PLAN: Optional[FaultPlan] = parse_spec(os.environ.get(FAULTS_ENV))


def active_plan() -> Optional[FaultPlan]:
    """The installed plan (from ``REPRO_FAULTS`` or :func:`install`)."""
    return _PLAN


def enabled() -> bool:
    return _PLAN is not None


def install(spec: "FaultPlan | str | None") -> Optional[FaultPlan]:
    """Install a plan (parsing a spec string); returns the previous one."""
    global _PLAN
    previous = _PLAN
    _PLAN = spec if isinstance(spec, (FaultPlan, type(None))) else parse_spec(spec)
    return previous


def uninstall() -> Optional[FaultPlan]:
    """Remove the active plan; injection becomes a no-op again."""
    return install(None)


@contextmanager
def injected(spec: "FaultPlan | str") -> Iterator[FaultPlan]:
    """Scoped installation for tests: ``with faults.injected("..."):``."""
    previous = install(spec)
    try:
        plan = _PLAN
        assert plan is not None
        yield plan
    finally:
        install(previous)


def maybe_fail(site: str) -> None:
    """The injection point: raise the scheduled fault for this call, if
    any.  One ``None`` check when no plan is active."""
    plan = _PLAN
    if plan is None:
        return
    fault = plan.decide(site)
    if fault is not None:
        raise fault


def describe() -> Dict[str, Any]:
    """The active plan as a report dict (``{"enabled": False}`` if none)."""
    if _PLAN is None:
        return {"enabled": False}
    report = _PLAN.describe()
    report["enabled"] = True
    return report
