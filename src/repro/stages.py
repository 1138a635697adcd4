"""The stage runner every application chain shares.

The paper's chains (NOA fire monitoring, burn-scar mapping, image
mining) all have one shape: an acquisition flows through a list of
stages and ends as stRDF in Strabon.  :class:`StageRunner` is that
shape once; a chain supplies only its stage bodies (``_execute``), a
fault-site prefix (:attr:`StageRunner.site`) and a metric prefix
(:attr:`StageRunner.metric`).  The runner supplies the rest:

* :class:`Stages` — the per-stage resilience envelope: deadline check
  at the boundary, the ``<site>.<stage>`` fault point per attempt,
  retry with the database lock re-acquired per attempt, the
  ``<metric>.stage.<stage>`` span and the stage timing;
* :meth:`StageRunner._run_batch` — the batch loop: acquisitions run in
  path order, each failure isolated as a :class:`ChainFailure`, the
  survivors' RDF written as one store delta after the last acquisition,
  and ``<metric>.errors`` and ``<metric>.batch.ok``/``.failed`` counted
  (a chain's ``run(path)`` is a one-path batch, so single runs count).
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import faults, obs, resilience


class ChainFailure:
    """One acquisition that failed inside a batch.

    :meth:`StageRunner._run_batch` isolates per-acquisition errors: a
    failure is returned in the acquisition's result slot instead of
    aborting the whole batch (and with it every other acquisition's RDF
    emit).  The original exception is preserved for the caller to
    re-raise or log.
    """

    __slots__ = ("path", "error")

    def __init__(self, path: str, error: BaseException):
        self.path = path
        self.error = error

    @property
    def ok(self) -> bool:
        return False

    def __repr__(self) -> str:
        return (
            f"<ChainFailure {os.path.basename(self.path)!r} "
            f"{type(self.error).__name__}: {self.error}>"
        )


class Stages:
    """One acquisition's pass through a runner: its deadline, the
    database lock its ``locked`` stages take, and its per-stage
    timings."""

    def __init__(self, runner: "StageRunner"):
        self.runner = runner
        # An RLock: a locked stage may call Database.execute, which
        # takes it again.
        self.lock = runner.ingestor.db.lock
        self.timings: Dict[str, float] = {}
        self.deadline = (
            resilience.Deadline(runner.deadline)
            if runner.deadline is not None
            else resilience.active_deadline()
        )

    def __call__(
        self,
        name: str,
        fn: Callable[[], Any],
        locked: bool = False,
        **tags: Any,
    ) -> Any:
        """Run one stage with the full resilience envelope.

        The deadline is checked at the stage *boundary* (soft timeout:
        a stage in flight is never interrupted), the ``<site>.<name>``
        fault-injection point fires per attempt, and transient failures
        are retried under the runner's policy.  A ``locked`` stage
        touches shared tiers and re-acquires the lock per attempt, so a
        backoff sleep never holds it.  Stage bodies are idempotent, so a
        retried stage recomputes instead of corrupting.
        """
        site = f"{self.runner.site}.{name}"
        if self.deadline is not None:
            self.deadline.check(site)
        guard = self.lock if locked else nullcontext()
        t0 = time.perf_counter()

        def attempt() -> Any:
            with guard:
                faults.maybe_fail(site)
                return fn()

        try:
            with obs.span(f"{self.runner.metric}.stage.{name}", **tags):
                return resilience.call_with_retry(
                    attempt, self.runner.retry, label=site
                )
        finally:
            self.timings[name] = time.perf_counter() - t0


class StageRunner:
    """Resilience envelope and batch loop shared by every chain.

    Subclasses implement ``_execute(path, ...)``: build a
    :class:`Stages`, run each stage body through it, and return a result
    whose ``ok`` is true and whose ``rdf`` the batch loop writes to the
    store.  ``_execute`` itself never writes to the store.
    """

    #: Fault-site prefix: stage ``x`` fires ``<site>.x``.
    site: str
    #: Metric prefix of the ``<metric>.stage.*`` spans and the
    #: ``<metric>.batch.*`` counters.
    metric: str

    def __init__(
        self,
        ingestor,
        retry: Optional[resilience.RetryPolicy] = None,
        deadline: Optional[float] = None,
    ):
        self.ingestor = ingestor
        # Every stage is retried under `retry` on transient failures, and
        # `deadline` (seconds per acquisition) is checked at each stage
        # boundary.
        self.retry = retry or resilience.DEFAULT_RETRY
        self.deadline = deadline

    def run(self, path: str, **options: Any) -> Any:
        """Process one acquisition: a one-path :meth:`_run_batch` that
        raises the acquisition's original exception."""
        (result,) = self._run_batch([path], **options)
        if not result.ok:
            raise result.error
        return result

    def _run_batch(
        self,
        paths: Sequence[str],
        **options: Any,
    ) -> List[Any]:
        """Run ``_execute`` over every path with one store write.

        Acquisitions run one after another on the calling thread; their
        locked stages hold the database lock, so batches that callers
        run on their own threads against one database serialise there.
        The survivors' triples go to the store in path order as one
        :meth:`~repro.strabon.StrabonStore.load_graph` after the last
        acquisition.  Results come back in ``paths`` order; a failing
        acquisition occupies its slot as a :class:`ChainFailure` and
        contributes no RDF.
        """
        paths = list(paths)

        def guarded(path: str) -> Any:
            try:
                return self._execute(path, **options)
            except Exception as exc:  # noqa: BLE001 — isolated per acquisition
                obs.counter(f"{self.metric}.errors").inc()
                return ChainFailure(path, exc)

        with obs.span(f"{self.metric}.run_batch", acquisitions=len(paths)):
            results = [guarded(p) for p in paths]
            self.ingestor.store.load_graph(t for r in results if r.ok for t in r.rdf)
            ok = sum(1 for r in results if r.ok)
            obs.counter(f"{self.metric}.batch.ok").inc(ok)
            obs.counter(f"{self.metric}.batch.failed").inc(len(results) - ok)
        return results
