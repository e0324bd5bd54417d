"""Typed configuration objects for the plan→execute pipeline.

The original ``SuperSim`` constructor grew ~10 loose keyword arguments
spanning three unrelated concerns.  These frozen dataclasses name the
concerns explicitly and travel together through the pipeline:

* :class:`CutConfig` — how the circuit is split (cut placement strategy,
  the ``4^k`` reconstruction guard);
* :class:`SamplingConfig` — how non-Clifford and noisy fragment variants
  are evaluated (exact vs shots, tomography projection, noise, seeding);
* :class:`ExecutionConfig` — where and how the work runs (forced backend,
  router, variant cache, worker pool, reconstruction pruning) and what
  happens when it fails (failure policy, retry budget, soft timeouts,
  crash quarantine);
* :class:`ReconstructionConfig` — how fragment tensors recombine into the
  output distribution (dense vs windowed vs recursive dynamic-definition,
  the qubit window size and top-k beam of the bounded-memory engines).

They are the one settings surface of the pipeline: ``SuperSim`` takes
them, hands ``sampling`` and ``execution`` to the
:class:`~repro.core.evaluator.FragmentEvaluator` it builds per run, and
each field is read where it is used — no layer restates a default or a
check.  The apps layer takes a backend or a ``SuperSim``, never a config.

All four are immutable; derive variations with :func:`dataclasses.replace`
(re-exported as each config's ``replace`` method)::

    from dataclasses import replace

    base = SamplingConfig(shots=4000, seed=7)
    projected = replace(base, tomography=True)
    sim = SuperSim(sampling=projected)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.core.cutter import CutStrategy


class _Replaceable:
    """Mixin: ``config.replace(field=value)`` -> new frozen instance."""

    def replace(self, **changes):
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class CutConfig(_Replaceable):
    """How a circuit is split into fragments (paper §V-A).

    Parameters
    ----------
    strategy:
        Cut placement strategy (:class:`~repro.core.cutter.CutStrategy`).
    max_cuts:
        Refuse circuits needing more cuts — ``4^k`` reconstruction terms
        grow out of reach quickly.
    """

    strategy: CutStrategy = CutStrategy.ISOLATE
    max_cuts: int = 12

    def __post_init__(self):
        if isinstance(self.strategy, str):  # accept "isolate" / "greedy_merge"
            object.__setattr__(self, "strategy", CutStrategy(self.strategy))
        if self.max_cuts < 0:
            raise ValueError("max_cuts must be non-negative")


@dataclass(frozen=True)
class SamplingConfig(_Replaceable):
    """How fragment variants are evaluated statistically (§V-B, §IX).

    A noiseless Clifford fragment is always evaluated exactly: its
    stabilizer simulation yields the exact outcome distribution, so shots
    could only add noise to it (the paper's §IX gives Clifford fragments
    few shots and snaps their expectations to {-1, 0, +1}; here nothing is
    left to snap).  ``shots`` therefore reaches only non-Clifford fragments
    and, under a noise model, the Pauli-frame sampled Clifford ones.

    Parameters
    ----------
    shots:
        ``None`` for exact fragment evaluation; an integer to sample each
        non-Clifford or noisy variant with that many shots.
    tomography:
        Apply the physicality (PSD) projection to sampled fragment models
        (exact ones are physical already and are left alone).
    noise:
        A :class:`repro.stabilizer.NoiseModel` applied to Clifford
        fragments via Pauli-frame sampling (requires finite ``shots``).
    seed:
        Root seed (int or :class:`numpy.random.Generator`) for sampled
        evaluation; per-variant seeds derive from it and the variant
        fingerprint, so seeded runs are bit-for-bit reproducible.
    """

    shots: int | None = None
    tomography: bool = False
    noise: Any = None
    seed: Any = None

    def __post_init__(self):
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be positive or None")
        if self.noise is not None and self.shots is None:
            raise ValueError("noisy fragment evaluation requires finite shots")

    @property
    def exact(self) -> bool:
        return self.shots is None


@dataclass(frozen=True)
class ExecutionConfig(_Replaceable):
    """Where and how fragment jobs execute.

    Parameters
    ----------
    backend:
        Force a backend for every fragment it can handle — a registered
        name or a :class:`~repro.backends.base.Backend` instance; the
        router picks for the fragments it cannot.
    router:
        A custom :class:`~repro.backends.router.BackendRouter`; the
        default scores every built-in backend's cost model.
    cache:
        Variant caching across runs: ``True`` (default) builds a private
        :class:`~repro.backends.cache.VariantCache`, or pass a shared
        instance, or ``False``/``None`` to disable.
    pool:
        Worker pool kind: ``"thread"``, ``"process"``, or ``None`` to
        follow the backends' capability hints.
    parallel:
        Worker count for parallel variant evaluation.
    prune_zeros:
        Section IX zero-term accounting: count the Pauli assignments with
        a (near-)zero fragment factor into ``stats.terms_skipped``, and
        drop reconstructed outcomes at or below ``1e-12``.  The
        contraction still sums every term.
    failure_policy:
        What the engine does when a fragment job fails.  ``"raise"``
        (default) fails fast with a contextful
        :class:`~repro.errors.BackendExecutionError`; ``"retry"``
        retries each job up to ``max_retries`` times with capped
        exponential backoff (retried jobs reuse their
        fingerprint-derived seed, so seeded results stay bit-identical
        to a failure-free run) and raises only after exhaustion;
        ``"degrade"`` additionally falls back along the router's
        capability-admitted cost ordering to the next backend that can
        run the fragment, recording every fallback in
        ``SuperSimResult.faults``.
    max_retries:
        Per-job retry budget (per backend) under ``"retry"`` /
        ``"degrade"``.
    retry_backoff:
        Base backoff in seconds before the first retry; doubles per
        attempt, capped at ``retry_backoff_cap``.
    retry_backoff_cap:
        Upper bound on the per-retry backoff sleep.
    job_timeout:
        Explicit soft deadline in seconds for every fragment job.  When
        ``None``, a deadline is derived per job from the calibrated cost
        model — ``scored_cost x timeout_safety``, floored at
        ``min_job_timeout`` — whenever the router carries measured
        ``cost_scales`` (an uncalibrated router derives no deadline:
        its cost units are not seconds).  A job past its deadline is
        cancelled (process pools rebuild to kill the hung worker) and
        retried; it counts against ``max_retries`` and raises
        :class:`~repro.errors.JobTimeoutError` on exhaustion.
    timeout_safety:
        Safety factor between the calibrated cost prediction and the
        derived soft deadline.
    min_job_timeout:
        Floor for derived deadlines, so cheap jobs are not cancelled on
        scheduler jitter.
    max_job_crashes:
        Quarantine a job as poison (:class:`~repro.errors.WorkerCrashError`)
        after being in flight across this many worker crashes.
    chaos:
        Testing hook: a :class:`~repro.testing.chaos.ChaosSchedule`
        consulted before every job attempt to deterministically inject
        exceptions, delays and worker crashes.  ``None`` (default) in
        production.
    """

    backend: Any = None
    router: Any = None
    cache: Any = True
    pool: str | None = None
    parallel: int = 1
    prune_zeros: bool = True
    failure_policy: str = "raise"
    max_retries: int = 3
    retry_backoff: float = 0.05
    retry_backoff_cap: float = 2.0
    job_timeout: float | None = None
    timeout_safety: float = 25.0
    min_job_timeout: float = 5.0
    max_job_crashes: int = 3
    chaos: Any = None

    def __post_init__(self):
        if self.pool not in (None, "thread", "process"):
            raise ValueError(
                f"pool must be 'thread', 'process' or None, got {self.pool!r}"
            )
        if self.parallel < 1:
            raise ValueError("parallel must be at least 1")
        if self.failure_policy not in ("raise", "retry", "degrade"):
            raise ValueError(
                "failure_policy must be 'raise', 'retry' or 'degrade', "
                f"got {self.failure_policy!r}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff < 0 or self.retry_backoff_cap < 0:
            raise ValueError("retry backoff values must be non-negative")
        if self.job_timeout is not None and not self.job_timeout > 0:
            raise ValueError("job_timeout must be positive or None")
        if not self.timeout_safety > 0:
            raise ValueError("timeout_safety must be positive")
        if self.min_job_timeout < 0:
            raise ValueError("min_job_timeout must be non-negative")
        if self.max_job_crashes < 1:
            raise ValueError("max_job_crashes must be at least 1")


@dataclass(frozen=True)
class ReconstructionConfig(_Replaceable):
    """How fragment tensors recombine into the output distribution.

    Parameters
    ----------
    mode:
        ``"full"`` — the dense ``2**width`` contraction (exact, fails on
        wide outputs); ``"windowed"`` — reconstruct only the exact
        marginal over ``window`` (default: the first ``qubit_limit`` kept
        qubits); ``"recursive"`` — CutQC-style dynamic definition: a
        calibrated top-k distribution at ``O(4^k · 2**qubit_limit)``
        memory, any width, and far less when the fragments holding the
        window are Clifford (read on their supports at every level);
        ``"auto"`` (default) — ``"full"`` while the output fits
        ``max_dense_bits``, ``"recursive"`` beyond.
    qubit_limit:
        Window width of the bounded-memory engines — the hard memory
        knob: no dense object larger than ``2**qubit_limit`` entries is
        allocated in windowed/recursive modes.  In recursive mode only a
        non-Clifford fragment holding unpinned window qubits has a dense
        tensor; a Clifford fragment's lives on its support.
    top_k:
        Bins refined per recursion level (and the maximum support of a
        recursive result).
    window:
        Explicit qubit window for ``mode="windowed"`` (original qubit
        indices, output bit order).
    max_dense_bits:
        Output-width guard: dense reconstruction beyond this raises
        :class:`~repro.errors.ReconstructionMemoryError`,
        and ``mode="auto"`` switches to recursive above it.
    """

    mode: str = "auto"
    qubit_limit: int = 16
    top_k: int = 64
    window: tuple[int, ...] | None = None
    max_dense_bits: int = 26

    def __post_init__(self):
        if self.mode not in ("auto", "full", "windowed", "recursive"):
            raise ValueError(
                "mode must be 'auto', 'full', 'windowed' or 'recursive', "
                f"got {self.mode!r}"
            )
        if not 1 <= self.qubit_limit <= 26:
            raise ValueError("qubit_limit must be between 1 and 26")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if self.max_dense_bits < 1:
            raise ValueError("max_dense_bits must be at least 1")
        if self.window is not None:
            object.__setattr__(self, "window", tuple(self.window))
