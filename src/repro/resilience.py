"""Resilience policies: bounded retries, deadlines and circuit breakers.

A production Virtual Earth Observatory ingests real SEVIRI feeds, and
real feeds fail: acquisitions arrive corrupt, storage stalls, a store
tier refuses writes for a while.  The demo scenarios of the paper assume
every tier succeeds on the first try; this module makes failure a
first-class, *policy-driven* outcome instead:

* :class:`RetryPolicy` / :func:`call_with_retry` / :func:`retry` —
  bounded attempts with exponential backoff.  Sleep and clock are
  injectable, so tests drive the schedule deterministically, and only
  whitelisted exception types (:class:`TransientError` by default) are
  retried — a programming error is never papered over by a retry loop.
* :class:`Deadline` — a soft timeout carried across tiers and *checked
  at boundaries* (chain stages, SciQL tile bands).  Python threads
  cannot be interrupted mid-kernel, so the deadline is cooperative: the
  work between two checks is the latency floor.  An ambient per-thread
  deadline can be installed with :func:`deadline_scope`.
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine guarding Data Vault payload reads.  After
  ``failure_threshold`` consecutive recorded failures the circuit opens and callers fail fast with
  :class:`CircuitOpenError` (no queue of doomed work piles up on a sick
  backend); after ``recovery_time`` a limited number of half-open probe
  calls test the backend, and one success closes the circuit again.

Everything reports through :mod:`repro.obs` (``resilience.retry.*``,
``resilience.breaker.*``, ``resilience.deadline.*``), so retries, trips
and rejections are visible in the same metrics snapshot as the work they
protect.  Fault *injection* lives in the sibling :mod:`repro.faults`
module; this module knows nothing about it beyond the shared
:class:`TransientError` marker type.
"""

from __future__ import annotations

import functools
import random
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Type

from repro import obs

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "DEFAULT_RETRY",
    "Deadline",
    "DeadlineExceeded",
    "RetryPolicy",
    "TransientError",
    "active_deadline",
    "call_with_retry",
    "check_deadline",
    "deadline_scope",
    "retry",
]


class TransientError(RuntimeError):
    """Marker base class for failures worth retrying.

    Raise (or subclass) this for conditions expected to clear on their
    own: a slow read, a store refusing writes momentarily, an injected
    chaos fault.  Retry whitelists default to exactly this type, so
    genuine bugs (``TypeError``, ``ValueError``, ...) always surface on
    the first attempt.
    """


class DeadlineExceeded(RuntimeError):
    """A cooperative deadline expired at a checkpoint."""


class CircuitOpenError(RuntimeError):
    """A call was rejected because the circuit is open (failing fast)."""

    def __init__(self, name: str, retry_in: float):
        super().__init__(
            f"circuit {name!r} is open (retry in {retry_in:.3g}s)"
        )
        self.circuit = name
        self.retry_in = retry_in


# -- retry --------------------------------------------------------------------


class RetryPolicy:
    """Bounded attempts with exponential backoff.

    ``attempts`` is the *total* number of tries (1 = no retry).  The
    delay before retry ``k`` (1-based) is ``base_delay * multiplier**(k-1)``
    capped at ``max_delay``; with ``jitter > 0`` the delay is scattered
    uniformly in ``[delay * (1 - jitter), delay * (1 + jitter)]`` by a
    *seeded* generator, so even jittered schedules replay exactly.
    ``sleep`` and the jitter seed are injectable for tests.
    """

    __slots__ = ("attempts", "base_delay", "multiplier", "max_delay",
                 "retry_on", "sleep", "_jitter", "_rng")

    def __init__(
        self,
        attempts: int = 3,
        base_delay: float = 0.05,
        multiplier: float = 2.0,
        max_delay: float = 2.0,
        retry_on: Tuple[Type[BaseException], ...] = (TransientError,),
        sleep: Callable[[float], None] = time.sleep,
        jitter: float = 0.0,
        seed: int = 0,
    ):
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.attempts = int(attempts)
        self.base_delay = float(base_delay)
        self.multiplier = float(multiplier)
        self.max_delay = float(max_delay)
        self.retry_on = tuple(retry_on)
        self.sleep = sleep
        self._jitter = float(jitter)
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        base = min(
            self.max_delay,
            self.base_delay * self.multiplier ** (attempt - 1),
        )
        if self._jitter:
            base *= 1.0 - self._jitter + 2 * self._jitter * self._rng.random()
        return max(0.0, base)

    def __repr__(self) -> str:
        return (
            f"<RetryPolicy attempts={self.attempts} "
            f"base={self.base_delay:.3g}s x{self.multiplier:g} "
            f"max={self.max_delay:.3g}s>"
        )


#: The stack-wide default: six tries with millisecond-scale backoff.
#: Tuned so a 10% injected fault rate (the CI chaos run) gives up with
#: probability 1e-6 per guarded call while the worst-case added latency
#: stays ~60ms.
DEFAULT_RETRY = RetryPolicy(
    attempts=6, base_delay=0.002, multiplier=2.0, max_delay=0.05
)


def call_with_retry(
    fn: Callable[[], Any],
    policy: Optional[RetryPolicy] = None,
    label: str = "",
) -> Any:
    """Run ``fn`` under ``policy`` (default :data:`DEFAULT_RETRY`).

    Only exceptions matching ``policy.retry_on`` are retried; anything
    else propagates from the first attempt.  When the attempts are
    exhausted — or an ambient :class:`Deadline` would expire before the
    next backoff completes — the *original* exception is re-raised, so
    callers keep their error types; the ``resilience.retry.giveups``
    counter records the exhaustion.
    """
    policy = policy or DEFAULT_RETRY
    obs.counter("resilience.retry.calls").inc()
    attempt = 1
    while True:
        try:
            return fn()
        except policy.retry_on:
            if attempt >= policy.attempts:
                obs.counter("resilience.retry.giveups").inc()
                raise
            delay = policy.delay(attempt)
            ambient = active_deadline()
            if ambient is not None and ambient.remaining() < delay:
                obs.counter("resilience.retry.giveups").inc()
                raise
            obs.counter("resilience.retry.retries").inc()
            if label:
                obs.counter(f"resilience.retry.retries.{label}").inc()
            if delay > 0:
                policy.sleep(delay)
            attempt += 1


def retry(
    policy: Optional[RetryPolicy] = None, label: str = ""
) -> Callable:
    """Decorator form of :func:`call_with_retry`."""

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return call_with_retry(
                lambda: fn(*args, **kwargs),
                policy,
                label or fn.__name__,
            )

        return wrapper

    return decorate


# -- deadlines ----------------------------------------------------------------


class Deadline:
    """A cooperative soft timeout, checked at work boundaries.

    The object is immutable after construction and safe to share across
    worker threads (tile bands capture it by reference).  ``clock`` is
    injectable; the default is :func:`time.monotonic`.
    """

    __slots__ = ("seconds", "_clock", "_expires")

    def __init__(
        self,
        seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.seconds = float(seconds)
        self._clock = clock
        self._expires = clock() + self.seconds

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self._expires - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, label: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        over = -self.remaining()
        if over >= 0:
            obs.counter("resilience.deadline.exceeded").inc()
            where = f" at {label}" if label else ""
            raise DeadlineExceeded(
                f"deadline of {self.seconds:.3g}s exceeded{where} "
                f"(over by {over:.3g}s)"
            )

    def __repr__(self) -> str:
        return f"<Deadline {self.seconds:.3g}s remaining={self.remaining():.3g}s>"


_DEADLINES = threading.local()


def _deadline_stack() -> List[Deadline]:
    stack = getattr(_DEADLINES, "stack", None)
    if stack is None:
        stack = _DEADLINES.stack = []
    return stack


@contextmanager
def deadline_scope(deadline: "Deadline | float") -> Iterator[Deadline]:
    """Install an ambient deadline for the calling thread.

    Checkpoints reached inside the scope (chain stages, SciQL tile
    bands) honour it without any explicit plumbing.  Scopes nest; the
    innermost deadline wins.
    """
    if not isinstance(deadline, Deadline):
        deadline = Deadline(deadline)
    stack = _deadline_stack()
    stack.append(deadline)
    try:
        yield deadline
    finally:
        stack.pop()


def active_deadline() -> Optional[Deadline]:
    """The innermost ambient deadline of the calling thread, if any."""
    stack = getattr(_DEADLINES, "stack", None)
    return stack[-1] if stack else None


def check_deadline(label: str = "") -> None:
    """Checkpoint against the ambient deadline (no-op without one)."""
    deadline = active_deadline()
    if deadline is not None:
        deadline.check(label)


# -- circuit breaker ----------------------------------------------------------

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Gauge encoding of breaker state (0 healthy, 1 tripped).
_STATE_GAUGE = {CLOSED: 0.0, HALF_OPEN: 0.5, OPEN: 1.0}


class CircuitBreaker:
    """Closed → open → half-open guard around a fallible dependency.

    Failures are *recorded* only for exception types in ``record_on``
    (infrastructure trouble), so a caller bug passing through the
    breaker never trips it.  After ``failure_threshold`` consecutive
    failures the circuit opens: calls fail fast with
    :class:`CircuitOpenError` until ``recovery_time`` has elapsed, then
    up to ``half_open_max`` concurrent probe calls are let through —
    one success closes the circuit, one failure re-opens it.
    Thread-safe; the clock is injectable for tests.
    """

    def __init__(
        self,
        name: str,
        failure_threshold: int = 5,
        recovery_time: float = 5.0,
        half_open_max: int = 1,
        record_on: Tuple[Type[BaseException], ...] = (TransientError,),
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.recovery_time = float(recovery_time)
        self.half_open_max = int(half_open_max)
        self.record_on = tuple(record_on)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes = 0

    # -- state machine -------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        # Lock held.  OPEN decays to HALF_OPEN once recovery_time passes.
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.recovery_time
        ):
            self._state = HALF_OPEN
            self._probes = 0
            self._set_gauge()
        return self._state

    def _set_gauge(self) -> None:
        obs.gauge(f"resilience.breaker.{self.name}.state").set(
            _STATE_GAUGE[self._state]
        )

    def allow(self) -> None:
        """Admit one call, or raise :class:`CircuitOpenError`."""
        with self._lock:
            state = self._effective_state()
            if state == OPEN:
                obs.counter("resilience.breaker.rejections").inc()
                retry_in = self.recovery_time - (
                    self._clock() - self._opened_at
                )
                raise CircuitOpenError(self.name, max(0.0, retry_in))
            if state == HALF_OPEN:
                if self._probes >= self.half_open_max:
                    obs.counter("resilience.breaker.rejections").inc()
                    raise CircuitOpenError(self.name, 0.0)
                self._probes += 1
                obs.counter("resilience.breaker.half_open_probes").inc()

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                obs.counter("resilience.breaker.closes").inc()
            self._state = CLOSED
            self._failures = 0
            self._probes = 0
            self._set_gauge()

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            tripping = (
                self._state == HALF_OPEN
                or self._failures >= self.failure_threshold
            )
            if tripping:
                if self._state != OPEN:
                    obs.counter("resilience.breaker.trips").inc()
                self._state = OPEN
                self._opened_at = self._clock()
                self._probes = 0
            self._set_gauge()

    def _release_probe(self) -> None:
        # A half-open probe ended with an exception the breaker does not
        # record (a caller bug); free the probe slot without moving state.
        with self._lock:
            if self._state == HALF_OPEN and self._probes > 0:
                self._probes -= 1

    def reset(self) -> None:
        """Force the circuit closed (operator override)."""
        with self._lock:
            self._state = CLOSED
            self._failures = 0
            self._probes = 0
            self._set_gauge()

    # -- call wrappers -------------------------------------------------------

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` through the breaker."""
        self.allow()
        obs.counter("resilience.breaker.calls").inc()
        try:
            result = fn()
        except self.record_on:
            self.record_failure()
            raise
        except BaseException:
            self._release_probe()
            raise
        self.record_success()
        return result

    @contextmanager
    def guard(self) -> Iterator["CircuitBreaker"]:
        """``with breaker.guard(): ...`` — context-manager form."""
        self.allow()
        obs.counter("resilience.breaker.calls").inc()
        try:
            yield self
        except self.record_on:
            self.record_failure()
            raise
        except BaseException:
            self._release_probe()
            raise
        else:
            self.record_success()

    def describe(self) -> Dict[str, Any]:
        """Snapshot of the breaker for service-tier reporting."""
        with self._lock:
            state = self._effective_state()
            return {
                "name": self.name,
                "state": state,
                "consecutive_failures": self._failures,
                "failure_threshold": self.failure_threshold,
                "recovery_time": self.recovery_time,
            }

    def __repr__(self) -> str:
        return (
            f"<CircuitBreaker {self.name} {self.state} "
            f"failures={self._failures}/{self.failure_threshold}>"
        )
