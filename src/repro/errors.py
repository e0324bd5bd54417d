"""The error taxonomy and fault accounting of the execution engine.

Before this module, a failing fragment job surfaced as whatever anonymous
exception the worker pool re-raised — no fragment, no backend, no attempt
count, no way to tell a transient fault from a poisoned job.  The typed
hierarchy here attaches that context:

* :class:`ReproError` — base class of every engine-raised failure;
* :class:`BackendExecutionError` — a backend raised while simulating a
  variant (after any configured retries were exhausted);
* :class:`JobTimeoutError` — a variant exceeded its soft deadline (derived
  from the calibrated cost model, see
  :class:`~repro.core.config.ExecutionConfig`) too many times;
* :class:`WorkerCrashError` — a worker process died (segfault, OOM kill,
  ``BrokenProcessPool``) with this job in flight too many times, so the
  job was quarantined as poison;
* :class:`ReconstructionMemoryError` — an outcome table or accumulator
  the request needs would not fit; raised before anything is allocated.

Alongside the exceptions, :class:`FaultReport` is the ledger of every
fault the engine *survived*: retries, timeouts, worker crashes, pool
rebuilds, backend fallbacks and quarantines.  A
run that completes returns its report as ``SuperSimResult.faults``, so
"it worked" and "it worked after three retries and a pool rebuild" are
distinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: recognised FaultEvent kinds (also the FaultReport counter names)
FAULT_KINDS = (
    "retry",
    "timeout",
    "crash",
    "pool_rebuild",
    "fallback",
    "quarantine",
    "replan",
    # service-resilience kinds (coordinator/peer-level faults)
    "peer_error",
    "heartbeat_miss",
    "reconnect",
    "recovery",
)


class ReproError(Exception):
    """Base class for every failure the execution engine raises.

    Subclasses attach job context as attributes (``fragment_index``,
    ``backend``, ``attempts``) so callers — and the fault report — can
    say *which* piece of work failed, not just that something did.
    """

    def __init__(
        self,
        message: str,
        *,
        fragment_index: int | None = None,
        backend: str | None = None,
        attempts: int | None = None,
    ):
        parts = [message]
        context = []
        if fragment_index is not None:
            context.append(f"fragment={fragment_index}")
        if backend is not None:
            context.append(f"backend={backend!r}")
        if attempts is not None:
            context.append(f"attempts={attempts}")
        if context:
            parts.append(f"[{', '.join(context)}]")
        super().__init__(" ".join(parts))
        self.fragment_index = fragment_index
        self.backend = backend
        self.attempts = attempts


class BackendExecutionError(ReproError):
    """A backend raised while simulating a fragment variant.

    Raised after the configured retry budget (and, under
    ``failure_policy="degrade"``, every capability-admitted fallback
    backend) is exhausted.  ``__cause__`` carries the last underlying
    backend exception.
    """


class JobTimeoutError(ReproError):
    """A fragment variant exceeded its soft deadline too many times.

    The deadline derives from the calibrated cost model
    (``Backend.estimate_cost`` x ``cost_scales`` x
    ``ExecutionConfig.timeout_safety``) or from an explicit
    ``ExecutionConfig.job_timeout``.
    """

    def __init__(self, message: str, *, timeout: float | None = None, **context):
        if timeout is not None:
            message = f"{message} (soft timeout {timeout:.3g}s)"
        super().__init__(message, **context)
        self.timeout = timeout


class WorkerCrashError(ReproError):
    """A job was in flight across too many worker crashes: quarantined.

    The engine cannot always attribute a crash (a ``BrokenProcessPool``
    kills every in-flight future at once), so a job is only declared
    poison after ``ExecutionConfig.max_job_crashes`` crashes with it in
    flight — innocent bystanders of one crash are simply resubmitted.
    The distributed service maps a remote worker disconnect onto the same
    semantics: jobs in flight on a lost worker are charged one crash and
    redistributed, and only a job that outlives ``max_job_crashes``
    worker losses raises this.
    """


class ReconstructionMemoryError(ReproError, MemoryError):
    """Refused up front: an outcome enumeration or accumulator would not fit.

    Raised *before* allocation, naming the width and the escape hatches,
    instead of letting ``np.zeros(2**total_bits)`` die with an opaque
    ``MemoryError`` (or freeze the machine in swap).  Subclasses
    :class:`MemoryError`, so ``except MemoryError`` handlers keep working.
    """


class ServiceError(ReproError):
    """Base class for failures raised by the distributed execution service
    (:mod:`repro.service`): protocol violations, lost coordinator
    connections, requests failing server-side without a more specific
    engine error to forward."""


class ConnectionLostError(ServiceError, ConnectionError):
    """The connection to the coordinator dropped and could not be restored.

    Raised by :class:`~repro.service.client.ServiceClient` and the worker
    loop once their jittered-exponential-backoff reconnect budget is
    exhausted (or reconnection is disabled).  Subclasses both
    :class:`ServiceError` and :class:`ConnectionError`, so transport-level
    ``except ConnectionError`` handlers keep working.
    """


class QuotaExceededError(ServiceError):
    """The coordinator's admission control rejected a request (429-style).

    ``retry_after`` is the coordinator's hint, in seconds, for when the
    tenant's token bucket will hold enough cost units to admit this
    request; ``estimate`` carries the
    :class:`~repro.core.plan.CostEstimate` the request was priced with
    (when the coordinator included its quote in the rejection).
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after: float | None = None,
        estimate=None,
        **context,
    ):
        if retry_after is not None:
            message = f"{message} (retry after ~{retry_after:.3g}s)"
        super().__init__(message, **context)
        self.retry_after = retry_after
        self.estimate = estimate


@dataclass(frozen=True)
class FaultEvent:
    """One fault the engine observed (and usually survived).

    ``kind`` is one of :data:`FAULT_KINDS`; ``fragment_index`` /
    ``backend`` / ``attempt`` locate the job where that makes sense, and
    ``detail`` is a human-readable description (typically the repr of the
    underlying exception, or what the engine fell back to).
    """

    kind: str
    fragment_index: int | None = None
    backend: str | None = None
    attempt: int | None = None
    detail: str = ""

    def __repr__(self) -> str:
        where = []
        if self.fragment_index is not None:
            where.append(f"fragment {self.fragment_index}")
        if self.backend is not None:
            where.append(self.backend)
        loc = f" @ {', '.join(where)}" if where else ""
        return f"<{self.kind}{loc}: {self.detail}>"


@dataclass
class FaultReport:
    """The ledger of faults a run survived (``SuperSimResult.faults``).

    Truthiness reflects whether anything at all went wrong — a clean run
    reports ``bool(result.faults) is False`` — and the per-kind counters
    (``retries``, ``timeouts``, ``crashes``, ``pool_rebuilds``,
    ``fallbacks``, ``quarantined``, ``replans``)
    summarise the event list.
    """

    events: list[FaultEvent] = field(default_factory=list)

    def record(
        self,
        kind: str,
        *,
        fragment_index: int | None = None,
        backend: str | None = None,
        attempt: int | None = None,
        detail: str = "",
    ) -> FaultEvent:
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} (expected one of {FAULT_KINDS})"
            )
        event = FaultEvent(
            kind=kind,
            fragment_index=fragment_index,
            backend=backend,
            attempt=attempt,
            detail=detail,
        )
        self.events.append(event)
        return event

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def of_kind(self, kind: str) -> list[FaultEvent]:
        return [e for e in self.events if e.kind == kind]

    @property
    def retries(self) -> int:
        return self.count("retry")

    @property
    def timeouts(self) -> int:
        return self.count("timeout")

    @property
    def crashes(self) -> int:
        return self.count("crash")

    @property
    def pool_rebuilds(self) -> int:
        return self.count("pool_rebuild")

    @property
    def fallbacks(self) -> int:
        return self.count("fallback")

    @property
    def quarantined(self) -> int:
        return self.count("quarantine")

    @property
    def replans(self) -> int:
        return self.count("replan")

    def extend(self, other: "FaultReport") -> None:
        """Fold another report's events into this one (batch layers)."""
        self.events.extend(other.events)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __iter__(self):
        return iter(self.events)

    def summary(self) -> dict[str, int]:
        """Non-zero per-kind counts, e.g. ``{"retry": 3, "pool_rebuild": 1}``."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def __repr__(self) -> str:
        if not self.events:
            return "FaultReport(clean)"
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.summary().items()))
        return f"FaultReport({inner})"
