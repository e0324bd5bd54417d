"""The job-failure policy: one pure state machine, driven by every runner.

A variant job can fail three ways — its backend raises, it overruns its
soft deadline, or the worker executing it dies — and what happens next is
one decision made here, not per runner: retry after a capped exponential
backoff while the budget lasts, then (``failure_policy="degrade"``) offer
the job to the runner's fallback, then raise the typed
:mod:`repro.errors` exception carrying the job's fragment, backend and
attempt count.

The module is *pure*: it keeps counters, appends
:class:`~repro.errors.FaultEvent` records to the list it was given and
returns or raises a decision.  It never sleeps, spawns, locks or reads a
clock — carrying a decision out (sleep and resubmit, rebuild a pool,
redispatch to another worker, run on the coordinator's own CPU) is the
mechanics each runner keeps:

* the evaluator's serial loop and pool scheduler
  (:mod:`repro.core.evaluator`), whose fallback is the next-cheapest
  capable backend;
* the service coordinator (:mod:`repro.service.coordinator`), whose
  fallback is coordinator-local execution;
* the worker-side retry loop (:mod:`repro.service.worker`), which
  applies the :meth:`FaultPolicy.retry_only` view — a worker can see a
  raised exception but not its own death or a deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import (
    BackendExecutionError,
    FaultEvent,
    JobTimeoutError,
    WorkerCrashError,
)

__all__ = ["FaultPolicy", "JobLifecycle"]


@dataclass(frozen=True)
class FaultPolicy:
    """The failure-policy fields of an
    :class:`~repro.core.config.ExecutionConfig`, as one picklable value
    (it rides in every service job frame).  Field meanings are documented
    there; this view adds no option of its own.
    """

    failure_policy: str = "raise"
    max_retries: int = 3
    retry_backoff: float = 0.05
    retry_backoff_cap: float = 2.0
    max_job_crashes: int = 3

    def __post_init__(self):
        if self.failure_policy not in ("raise", "retry", "degrade"):
            raise ValueError(
                "failure_policy must be 'raise', 'retry' or 'degrade', "
                f"got {self.failure_policy!r}"
            )

    @classmethod
    def of(cls, execution) -> "FaultPolicy":
        """The policy view of an ``ExecutionConfig``."""
        return cls(
            failure_policy=execution.failure_policy,
            max_retries=execution.max_retries,
            retry_backoff=execution.retry_backoff,
            retry_backoff_cap=execution.retry_backoff_cap,
            max_job_crashes=execution.max_job_crashes,
        )

    def retry_only(self) -> "FaultPolicy":
        """The view for a runner that can only see raised exceptions.

        Same retry budget and backoff, but no fallback of its own: once
        the budget is spent the typed error goes back to whoever
        dispatched the job, who owns the rest of the policy.
        """
        if self.failure_policy == "degrade":
            return replace(self, failure_policy="retry")
        return self

    def backoff(self, n: int) -> float:
        """Delay before resubmitting after the ``n``-th consecutive fault."""
        if self.retry_backoff <= 0:
            return 0.0
        return min(self.retry_backoff_cap, self.retry_backoff * 2.0 ** (n - 1))


class JobLifecycle:
    """Fault bookkeeping and policy decisions for one variant job.

    ``failures`` counts raised exceptions and soft-timeouts, ``crashes``
    worker deaths with the job in flight — both on the job's *current*
    target, reset by :meth:`fell_back`.  ``attempt`` counts every failed
    attempt since the job was built and never resets; the runner copies
    it to ``job.attempt`` before each (re)submission, so a chaos schedule
    bounded by ``fail_attempts`` converges wherever the job lands.

    Every ``on_*`` method is called by the runner after one failed
    attempt and answers with one of three decisions:

    * a ``float`` — resubmit the job after that many seconds;
    * ``None`` — ``fall_back(lifecycle, reason)`` accepted the job (only
      offered under ``failure_policy="degrade"`` once the budget is
      spent); the callable has already arranged where it runs next and
      called :meth:`fell_back`;
    * a raised :class:`~repro.errors.ReproError` subclass — the job, and
      with it the batch, is over.

    ``events`` is the list survived faults are appended to: the
    evaluator's ``FaultReport.events`` locally, a per-job list in the
    coordinator.
    """

    __slots__ = ("job", "policy", "events", "failures", "crashes", "attempt")

    def __init__(self, job, policy: FaultPolicy, events: list):
        self.job = job
        self.policy = policy
        self.events = events
        self.failures = 0
        self.crashes = 0
        self.attempt = job.attempt

    def record(self, kind: str, detail: str = "") -> None:
        """Append one fault event located at this job's last attempt."""
        self.events.append(
            FaultEvent(
                kind=kind,
                fragment_index=self.job.fragment_index,
                backend=self.job.backend.name,
                attempt=self.job.attempt,
                detail=detail,
            )
        )

    def _context(self) -> dict:
        """Which job failed, for the typed errors."""
        return {
            "fragment_index": self.job.fragment_index,
            "backend": self.job.backend.name,
            "attempts": self.failures + self.crashes,
        }

    def _offered(self, fall_back, reason: str) -> bool:
        return (
            self.policy.failure_policy == "degrade"
            and fall_back is not None
            and fall_back(self, reason)
        )

    def on_error(self, exc: BaseException, fall_back=None) -> float | None:
        """The job's backend raised ``exc``."""
        self.failures += 1
        self.attempt += 1
        if self.policy.failure_policy == "raise":
            raise BackendExecutionError(
                f"backend raised while simulating a variant: {exc!r}",
                **self._context(),
            ) from exc
        detail = f"{type(exc).__name__}: {exc}"
        if self.failures <= self.policy.max_retries:
            self.record("retry", detail)
            return self.policy.backoff(self.failures)
        if self._offered(fall_back, detail):
            return None
        raise BackendExecutionError(
            f"retries exhausted: {exc!r}", **self._context()
        ) from exc

    def on_timeout(self, fall_back=None) -> float | None:
        """The job overran its soft deadline (``job.timeout``)."""
        timeout = self.job.timeout
        self.failures += 1
        self.attempt += 1
        if self.policy.failure_policy == "raise":
            raise JobTimeoutError(
                "variant exceeded its soft deadline",
                timeout=timeout,
                **self._context(),
            )
        if self.failures <= self.policy.max_retries:
            self.record("timeout", f"soft deadline {timeout:.3g}s exceeded")
            return self.policy.backoff(self.failures)
        if self._offered(fall_back, "repeated soft-timeouts"):
            return None
        raise JobTimeoutError(
            "soft deadline exceeded and retries exhausted",
            timeout=timeout,
            **self._context(),
        )

    def on_crash(self, detail: str, fall_back=None) -> float | None:
        """A worker died with the job in flight.

        Attribution is heuristic (a broken pool or a lost worker takes
        every in-flight job with it), so a job is quarantined as poison
        only after ``max_job_crashes`` crashes.
        """
        self.crashes += 1
        self.attempt += 1
        if self.policy.failure_policy == "raise":
            raise WorkerCrashError(
                f"worker crashed with this job in flight ({detail})",
                **self._context(),
            )
        self.record("crash", detail)
        if self.crashes <= self.policy.max_job_crashes:
            return self.policy.backoff(self.crashes)
        self.record(
            "quarantine", f"{self.crashes} crashes with this job in flight"
        )
        if self._offered(fall_back, f"{self.crashes} worker crashes"):
            return None
        raise WorkerCrashError(
            f"job quarantined after {self.crashes} worker crashes ({detail})",
            **self._context(),
        )

    def absorb(self, events) -> None:
        """Fold in the retries another runner already carried out for
        this job: the ``"retry"`` events of a ``retry_only()`` loop, one
        per failed attempt."""
        self.failures += len(events)
        self.attempt += len(events)
        self.events.extend(events)

    def fell_back(self, detail: str) -> None:
        """The job moved to a fallback target: record it, fresh budget."""
        self.record("fallback", detail)
        self.failures = 0
        self.crashes = 0
