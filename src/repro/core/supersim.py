"""The SuperSim facade: a staged plan→execute pipeline (paper §V).

The paper's workflow is inherently staged — cut placement, fragment
variant evaluation, tomography, reconstruction — and the API mirrors it.
``plan()`` makes every decision without simulating anything; the returned
:class:`~repro.core.plan.ExecutionPlan` can be inspected, cost-estimated,
overridden, and finally executed::

    from repro.core import SuperSim

    sim = SuperSim()
    plan = sim.plan(circuit)          # cut + route, no simulation
    plan.estimate()                   # predicted cost, dry run
    plan = plan.with_backend(1, "mps")  # pin fragment 1 to MPS
    result = plan.execute()           # evaluate -> tomography -> reconstruct
    result.distribution               # reconstructed output distribution
    result.timings                    # per-stage wall-clock breakdown

``run(circuit)`` is simply ``plan(circuit).execute()`` — the one-shot path
stays one line.  Configuration travels in three typed objects instead of
loose kwargs (:class:`~repro.core.config.CutConfig`,
:class:`~repro.core.config.SamplingConfig`,
:class:`~repro.core.config.ExecutionConfig`)::

    sim = SuperSim(
        sampling=SamplingConfig(shots=4000, seed=7),
        execution=ExecutionConfig(backend="mps", failure_policy="retry"),
    )

Parameter sweeps — the dominant VQE/QAOA workload (§VII) — batch through
:meth:`SuperSim.sweep` / :meth:`SuperSim.run_many`: planning artifacts
(cut locations) and the content-addressed variant cache are shared
across all points, and results stream back as each point
completes, so only the fragments that actually changed between points are
re-simulated.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro import kernels as _kernels
from repro.analysis.distributions import Distribution
from repro.backends.base import CircuitFeatures
from repro.backends.cache import VariantCache, resolve_cache
from repro.circuits.circuit import Circuit
from repro.core.config import (
    CutConfig,
    ExecutionConfig,
    ReconstructionConfig,
    SamplingConfig,
)
from repro.core.cutter import plan_cuts
from repro.core.evaluator import FragmentEvaluator, router_for
from repro.core.fragments import Cut, CutCircuit
from repro.errors import FaultReport
from repro.core.plan import CostEstimate, ExecutionPlan, FragmentPlan, SweepResult
from repro.core.reconstruction import (
    ReconstructionStats,
    SupportTensor,
    check_dense_width,
    estimate_reconstruction_cost,
    output_sites,
    reconstruct_distribution,
    reconstruct_dynamic,
    reconstruct_windows,
    window_layout,
)
from repro.core.tomography import (
    build_conditioned_fragment_tensor,
    build_conditioned_window_tensors,
    build_fragment_tensor,
    build_window_tensors,
)

#: the four pipeline stages always present in SuperSimResult.timings
STAGES = ("cut", "evaluate", "tomography", "reconstruct")


@dataclass
class SuperSimResult:
    """Reconstructed output plus diagnostics.

    ``timings`` always carries all four stage keys (``cut``, ``evaluate``,
    ``tomography``, ``reconstruct`` — 0.0 for stages that did no work,
    e.g. tomography on a fully-cached run) plus the variant-cache counters
    of this run (``cache_hits`` / ``cache_misses``) and one
    ``kernel.<name>`` entry per :mod:`repro.kernels` kernel that ran
    during execution (seconds spent inside that kernel, across all
    stages).  ``backend_usage`` counts the jobs
    actually *simulated* per backend name this run — one per variant, one
    per noiseless Clifford fragment (cache hits and within-run duplicates
    excluded, so a fully cached run reports an empty mapping).  ``stats`` is the
    :class:`~repro.core.reconstruction.ReconstructionStats` of the
    recombination — in particular ``stats.peak_window_entries``, the
    largest accumulator a contraction allocated (the product of its
    fragment tensors' support sizes).

    ``faults`` is the run's :class:`~repro.errors.FaultReport` — every
    fault the engine survived on the way to this result (retries,
    soft-timeouts, worker crashes, degrade-mode backend fallbacks).  A
    clean run has ``bool(result.faults) is False``; faults never change
    the numbers, only how much work it took to get them.
    """

    distribution: Distribution
    cut_circuit: CutCircuit
    stats: ReconstructionStats
    timings: dict[str, float] = field(default_factory=dict)
    raw_distribution: Distribution | None = None
    backend_usage: dict[str, int] = field(default_factory=dict)
    faults: FaultReport = field(default_factory=FaultReport)

    def __post_init__(self):
        for stage in STAGES:
            self.timings.setdefault(stage, 0.0)

    @property
    def cache_hits(self) -> int:
        return int(self.timings.get("cache_hits", 0))

    @property
    def cache_misses(self) -> int:
        return int(self.timings.get("cache_misses", 0))

    @property
    def num_cuts(self) -> int:
        return self.cut_circuit.num_cuts

    @property
    def num_fragments(self) -> int:
        return len(self.cut_circuit.fragments)

    @property
    def num_variants(self) -> int:
        return sum(f.num_variants for f in self.cut_circuit.fragments)

    # -- reconstruction-engine diagnostics (see ReconstructionStats) ---------

    @property
    def reconstruction_mode(self) -> str:
        """Which engine reconstructed: ``full``, ``windowed`` or ``recursive``."""
        return self.stats.mode

    @property
    def reconstruction_windows(self) -> int:
        """Window contractions run (1 for full/windowed, per-bin for recursive)."""
        return self.stats.windows

    @property
    def reconstruction_refinements(self) -> int:
        """Recursive bin refinements beyond the coarse top window."""
        return self.stats.refinements

    @property
    def covered_probability(self) -> float:
        """Total mass of the returned outcomes (< 1.0 when top-k truncated)."""
        return self.stats.covered_probability


def _kept_locals(cc: CutCircuit, qubits) -> list[list[int]]:
    """Per fragment: its local circuit-output qubits among ``qubits``."""
    qubits = set(qubits)
    return [
        [lq for oq, lq in fragment.circuit_outputs if oq in qubits]
        for fragment in cc.fragments
    ]


def _check_qubits(qubits: list, n_qubits: int, what: str) -> None:
    """Refuse a qubit list before anything is cut or evaluated: it must
    hold distinct integer qubits of the circuit."""
    for q in qubits:
        if isinstance(q, bool) or not isinstance(q, numbers.Integral):
            raise ValueError(f"{what}: qubit {q!r} is not an integer")
        if not 0 <= q < n_qubits:
            raise ValueError(
                f"{what}: qubit {q} is not in the {n_qubits}-qubit circuit"
            )
    if len(set(qubits)) != len(qubits):
        repeated = next(q for q in qubits if qubits.count(q) > 1)
        raise ValueError(f"{what}: qubit {repeated} repeats")


def _check_windows(windows: list[list], n_qubits: int) -> None:
    """:func:`_check_qubits` of each marginal window, which must also be
    non-empty."""
    for window in windows:
        if not window:
            raise ValueError("empty marginal window")
        _check_qubits(window, n_qubits, f"marginal window {window}")


def _call_factory(factory, params):
    """Apply one sweep grid point to a circuit factory."""
    if isinstance(params, dict):
        return factory(**params)
    if isinstance(params, tuple):
        return factory(*params)
    return factory(params)


class SuperSim:
    """Clifford-based circuit cutting simulator.

    Parameters
    ----------
    cut:
        A :class:`~repro.core.config.CutConfig` — cut placement strategy
        and the ``4^k`` reconstruction guard.
    sampling:
        A :class:`~repro.core.config.SamplingConfig` — exact vs sampled
        evaluation of the non-Clifford fragments, tomography projection,
        noise, seeding.
    execution:
        An :class:`~repro.core.config.ExecutionConfig` — forced backend,
        router, variant cache, failure policy, reconstruction pruning.
    reconstruction:
        A :class:`~repro.core.config.ReconstructionConfig` — how fragment
        tensors recombine: dense (``"full"``), exact small marginals
        (``"windowed"``), or bounded-memory recursive dynamic definition
        (``"recursive"``).  The default ``"auto"`` runs dense while the
        output width fits ``max_dense_bits`` and switches to recursive
        beyond, so wide circuits return top-k answers instead of dying in
        a ``2**width`` allocation.
    """

    name = "supersim"

    def __init__(
        self,
        cut: CutConfig | None = None,
        sampling: SamplingConfig | None = None,
        execution: ExecutionConfig | None = None,
        reconstruction: ReconstructionConfig | None = None,
    ):
        configs = []
        for value, expected in (
            (cut, CutConfig),
            (sampling, SamplingConfig),
            (execution, ExecutionConfig),
            (reconstruction, ReconstructionConfig),
        ):
            if value is None:
                value = expected()
            elif not isinstance(value, expected):
                # e.g. a positional SuperSim(4000) landing on ``cut``: fail
                # here, not deep inside run() with an AttributeError
                raise TypeError(
                    f"expected a {expected.__name__} instance, got {value!r}"
                )
            configs.append(value)
        self.cut_config, self.sampling, self.execution, self.reconstruction = configs
        self.variant_cache: VariantCache | None = resolve_cache(self.execution.cache)
        self._shared_router = None
        #: override for where deduplicated variant jobs execute — the
        #: service coordinator injects its dispatcher here (see
        #: FragmentEvaluator.evaluate_all's job_runner contract)
        self._job_runner = None
        #: resources adopted for deterministic shutdown via close()
        self._owned_resources: list = []

    # -- pipeline pieces ------------------------------------------------------

    def cut(self, circuit: Circuit, cuts: list[Cut] | None = None) -> CutCircuit:
        """The cut stage alone: find (or validate) cuts and split."""
        return plan_cuts(circuit, self.cut_config, cuts)

    def _router(self):
        """The router every evaluator of this sim shares, built once
        (:func:`~repro.core.evaluator.router_for`) instead of once per
        plan/estimate/execute call."""
        if self._shared_router is None:
            self._shared_router = router_for(self.execution)
        return self._shared_router

    def _evaluator(self, assignments=None) -> FragmentEvaluator:
        return FragmentEvaluator(
            self.sampling,
            self.execution.replace(router=self._router()),
            cache=self.variant_cache,
            assignments=assignments,
        )

    # -- plan stage -----------------------------------------------------------

    def plan(
        self,
        circuit: Circuit,
        keep_qubits: list[int] | None = None,
        cuts: list[Cut] | None = None,
    ) -> ExecutionPlan:
        """Stage 1: cut the circuit and route fragments — no simulation.

        The returned :class:`~repro.core.plan.ExecutionPlan` records the
        cut circuit, each fragment's enumerated variant count, the backend
        the router assigned it, and the evaluation mode; inspect it, price
        it with ``estimate()``, override it with ``with_cuts(...)`` /
        ``with_backend(...)``, then ``execute()``.

        An explicit ``keep_qubits`` and a windowed run's window are
        checked here, before anything is cut (:func:`_check_qubits`).
        """
        if keep_qubits is None:
            keep_qubits = list(circuit.measured_qubits)
        else:
            keep_qubits = list(keep_qubits)
            what = f"keep_qubits {keep_qubits}"
            _check_qubits(keep_qubits, circuit.n_qubits, what)
        mode = self._resolve_reconstruction_mode(keep_qubits)
        if mode == "recursive" and not keep_qubits:
            raise ValueError("recursive reconstruction needs a kept qubit")
        if mode == "windowed":
            window = self._window(keep_qubits)
            _check_windows([window], circuit.n_qubits)
            unknown = [q for q in window if q not in keep_qubits]
            if unknown:
                raise ValueError(f"window qubits {unknown} are not in keep_qubits")
        start = time.perf_counter()
        cc = self.cut(circuit, cuts)
        evaluator = self._evaluator()
        backends = [evaluator._backend_for(f) for f in cc.fragments]
        modes = [evaluator.mode(f) for f in cc.fragments]
        planning_seconds = time.perf_counter() - start
        return ExecutionPlan(
            circuit=circuit,
            cut_circuit=cc,
            keep_qubits=tuple(keep_qubits),
            backend_names=tuple(b.name for b in backends),
            fragment_modes=tuple(modes),
            planning_seconds=planning_seconds,
            _sim=self,
            _backends=tuple(backends),
        )

    def _estimate_plan(self, plan: ExecutionPlan) -> CostEstimate:
        """Dry-run pricing of a plan (see :meth:`ExecutionPlan.estimate`)."""
        assignments = {
            f.index: b for f, b in zip(plan.cut_circuit.fragments, plan._backends)
        }
        evaluator = self._evaluator(assignments=assignments)
        router = evaluator.router
        fragment_plans = []
        total = 0.0
        for fragment, backend, mode in zip(
            plan.cut_circuit.fragments, plan._backends, plan.fragment_modes
        ):
            features = CircuitFeatures.from_circuit(fragment.circuit)
            per_variant = router.scored_cost(
                backend, features, mode="exact" if mode == "exact" else "sampled"
            )
            cost = per_variant * fragment.num_variants
            total += cost
            fragment_plans.append(
                FragmentPlan(
                    index=fragment.index,
                    n_qubits=fragment.n_qubits,
                    num_variants=fragment.num_variants,
                    backend=backend.name,
                    mode=mode,
                    is_clifford=fragment.is_clifford,
                    cost=cost,
                )
            )
        stats = evaluator.dry_run(plan.cut_circuit.fragments)
        rc = self.reconstruction
        reconstruction_cost = estimate_reconstruction_cost(
            plan.num_cuts,
            len(plan.keep_qubits),
            qubit_limit=rc.qubit_limit,
            top_k=rc.top_k,
            mode=rc.mode,
        )
        return CostEstimate(
            fragments=tuple(fragment_plans),
            total_cost=total + reconstruction_cost,
            num_variants=stats["jobs"],
            unique_variants=stats["unique_jobs"],
            cached_variants=stats["cached_jobs"],
            num_cuts=plan.num_cuts,
            reconstruction_terms=plan.cut_circuit.reconstruction_terms,
            calibrated=bool(router.cost_scales),
            reconstruction_cost=reconstruction_cost,
        )

    # -- execute stage ---------------------------------------------------------

    def _projects(self, evaluator: FragmentEvaluator, fragment) -> bool:
        """Is the fragment's tensor projected onto physical models?  Only
        sampled data is (``tomography=True``): an exact tensor is physical
        already, and clipping its eigenvalues would only add rounding."""
        return self.sampling.tomography and evaluator.mode(fragment) != "exact"

    def _resolve_reconstruction_mode(self, keep_qubits) -> str:
        """The engine ``execute()`` will run for this output width."""
        mode = self.reconstruction.mode
        if mode == "auto":
            wide = len(keep_qubits) > self.reconstruction.max_dense_bits
            return "recursive" if wide else "full"
        return mode

    def _window(self, keep_qubits) -> list:
        """The qubits a windowed run reconstructs: ``window``, or the first
        ``qubit_limit`` kept qubits."""
        window = self.reconstruction.window
        if window is None:
            window = keep_qubits[: self.reconstruction.qubit_limit]
        return list(window)

    def _dynamic_tensor_builder(self, cc: CutCircuit, fragment_data, evaluator):
        """The per-level tensor callback of
        :func:`~repro.core.reconstruction.reconstruct_dynamic`.

        ``build(window, fixed_qubits, fixed_rows)`` yields ``(tensors,
        kept_locals)`` once per frontier bin (row of ``fixed_rows``), built
        from the already-evaluated fragment data — never over all kept
        bits at once, so tomography memory follows the window, not the
        circuit width.  A Clifford fragment, and any fragment holding some
        of the fixed qubits, has its tensors on their supports, its data
        conditioned once for the whole level — a Clifford fragment's Pauli
        map with one elimination (:func:`build_conditioned_window_tensors`);
        with nothing of it pinned that is one tensor, repeated for every
        bin.  Any other fragment has a single dense tensor for the level
        (:func:`build_fragment_tensor`, which alone applies the physicality
        projection to sampled data).  Only a tensor that can come back at a
        later level is kept across levels — that of a fragment with no kept
        or fixed qubits yet, ``4**(qi+qo)`` numbers.
        """
        max_dense_bits = self.reconstruction.max_dense_bits
        untouched: dict[int, np.ndarray | SupportTensor] = {}

        def unpinned(fragment, data, kept):
            if data.pauli_map is not None:
                # no pins: one zero-width row
                rows = np.zeros((1, 0), dtype=bool)
                return next(
                    build_conditioned_window_tensors(
                        data, kept, [], rows, max_dense_bits=max_dense_bits
                    )
                )
            return build_fragment_tensor(
                data,
                kept,
                project=self._projects(evaluator, fragment),
                max_dense_bits=max_dense_bits,
            )

        def build(window, fixed_qubits, fixed_rows):
            column = {q: j for j, q in enumerate(fixed_qubits)}
            streams = []
            kept_locals = _kept_locals(cc, window)
            for fragment, data, kept in zip(cc.fragments, fragment_data, kept_locals):
                pinned = [
                    (lq, column[oq])
                    for oq, lq in fragment.circuit_outputs
                    if oq in column
                ]
                if pinned:
                    stream = build_conditioned_window_tensors(
                        data,
                        kept,
                        [lq for lq, _ in pinned],
                        fixed_rows[:, [j for _, j in pinned]],
                        max_dense_bits=max_dense_bits,
                    )
                else:
                    tensor = None if kept else untouched.get(fragment.index)
                    if tensor is None:
                        tensor = unpinned(fragment, data, kept)
                        if not kept:
                            untouched[fragment.index] = tensor
                    stream = itertools.repeat(tensor)
                streams.append(stream)
            for _ in range(len(fixed_rows)):
                yield [next(stream) for stream in streams], kept_locals

        return build

    def _execute_plan(self, plan: ExecutionPlan) -> SuperSimResult:
        """Stages 2–4: evaluate variants, build tensors, reconstruct.

        The reconstruction engine follows ``self.reconstruction`` (see
        :class:`~repro.core.config.ReconstructionConfig`): dense full
        reconstruction under ``max_dense_bits``, the windowed exact
        marginal, or the recursive dynamic-definition driver for wide
        outputs.  In recursive mode tomography happens per window/bin
        inside the reconstruct stage (conditioned tensors cannot be built
        up front), so ``timings["tomography"]`` reads 0.0 there.
        """
        cc = plan.cut_circuit
        timings: dict[str, float] = {"cut": plan.planning_seconds}
        kernel_snapshot = _kernels.counters_snapshot()
        assignments = {f.index: b for f, b in zip(cc.fragments, plan._backends)}

        start = time.perf_counter()
        evaluator = self._evaluator(assignments=assignments)
        fragment_data = evaluator.evaluate_all(
            cc.fragments, job_runner=self._job_runner
        )
        timings["evaluate"] = time.perf_counter() - start
        timings["cache_hits"] = float(evaluator.last_stats.get("cache_hits", 0))
        timings["cache_misses"] = float(evaluator.last_stats.get("cache_misses", 0))

        rc = self.reconstruction
        mode = self._resolve_reconstruction_mode(plan.keep_qubits)

        if mode == "recursive":
            timings["tomography"] = 0.0
            start = time.perf_counter()
            builder = self._dynamic_tensor_builder(cc, fragment_data, evaluator)
            raw, stats = reconstruct_dynamic(
                cc,
                builder,
                list(plan.keep_qubits),
                qubit_limit=rc.qubit_limit,
                top_k=rc.top_k,
                prune_zeros=self.execution.prune_zeros,
            )
            timings["reconstruct"] = time.perf_counter() - start
            # calibrated top-k: drop negative quasi-probability noise but
            # do NOT renormalise — the missing mass is real information
            # (stats.covered_probability reports it)
            positive = raw.values_array > 0
            cleaned = Distribution.from_arrays(
                raw.n_bits,
                raw.keys_array[positive],
                raw.values_array[positive],
                assume_sorted=True,
            )
        else:
            if mode == "windowed":
                target_qubits = self._window(plan.keep_qubits)
            else:
                # guard BEFORE tomography: on wide circuits the per-fragment
                # dense tensors (2**kept_bits per variant) blow up first,
                # long before the final accumulator would
                check_dense_width(len(plan.keep_qubits), rc.max_dense_bits)
                target_qubits = list(plan.keep_qubits)

            start = time.perf_counter()
            kept_locals = _kept_locals(cc, target_qubits)
            tensors = [
                build_fragment_tensor(
                    data,
                    kept,
                    project=self._projects(evaluator, data.fragment),
                    max_dense_bits=rc.max_dense_bits,
                )
                for data, kept in zip(fragment_data, kept_locals)
            ]
            timings["tomography"] = time.perf_counter() - start

            start = time.perf_counter()
            raw, stats = reconstruct_distribution(
                cc,
                tensors,
                kept_locals,
                target_qubits,
                prune_zeros=self.execution.prune_zeros,
                max_dense_bits=rc.max_dense_bits,
            )
            if mode == "windowed":
                stats.mode = "windowed"
            timings["reconstruct"] = time.perf_counter() - start
            cleaned = raw.clipped() if len(raw) else raw

        for name, secs in _kernels.timings_since(kernel_snapshot).items():
            timings[f"kernel.{name}"] = secs
        faults = FaultReport()
        faults.extend(evaluator.faults)
        return SuperSimResult(
            distribution=cleaned,
            cut_circuit=cc,
            stats=stats,
            timings=timings,
            raw_distribution=raw,
            backend_usage=dict(evaluator.last_stats.get("backends", {})),
            faults=faults,
        )

    # -- main entry points --------------------------------------------------------

    def run(
        self,
        circuit: Circuit,
        keep_qubits: list[int] | None = None,
        cuts: list[Cut] | None = None,
    ) -> SuperSimResult:
        """``plan(circuit).execute()`` — cut, evaluate and reconstruct the
        distribution over ``keep_qubits`` (default: the measured qubits)."""
        return self.plan(circuit, keep_qubits=keep_qubits, cuts=cuts).execute()

    # -- batch layer ----------------------------------------------------------

    def sweep(
        self,
        circuit_factory,
        param_grid,
        keep_qubits: list[int] | None = None,
        reuse_cuts: bool = True,
        checkpoint=None,
    ):
        """Stream results of ``circuit_factory`` over a parameter grid.

        The paper's dominant workload (§VII): VQE/QAOA sweeps re-run one
        circuit shape under many parameter points.  Each grid point is
        planned and executed with everything shareable shared — the
        variant cache (identical fragments, in particular the wide
        Clifford bulk, are simulated once across the whole sweep) and,
        with ``reuse_cuts=True`` (default), the cut locations
        found for the first point (falling back to a fresh search if they
        do not transfer).

        ``circuit_factory`` is called once per grid point — with ``**p``
        for dict points, ``*p`` for tuple points, else ``factory(p)`` —
        and must return a :class:`~repro.circuits.circuit.Circuit`.
        Yields :class:`~repro.core.plan.SweepResult` records as each point
        completes.  Exact-mode sweep distributions are bit-identical to
        independent ``run()`` calls unconditionally.  Seeded sampled-mode
        sweeps reproduce independent seeded runs bit-for-bit *when the
        reused plan matches what an independent run would plan* — the
        normal case, since per-variant seeds derive from the root seed and
        variant fingerprints, never from batch order; the exception is a
        grid whose points change which gates are Clifford (e.g. a
        parameterised gate hitting — or leaving — an exactly-Clifford
        angle), where the adopted cut set keeps the plan and the sampled
        estimator consistent across the sweep but differs from what an
        independent run would plan at those points.  Pass
        ``reuse_cuts=False`` to re-plan every point and recover
        unconditional equivalence.

        A point whose shared cut set does not transfer is re-planned from
        scratch — no longer silently: its :class:`SweepResult` carries a
        ``degradation`` note and the result's fault report a ``replan``
        event.  Under ``failure_policy="retry"`` / ``"degrade"`` a point
        that still fails after the engine's own fault tolerance yields
        ``SweepResult(result=None, error=exc)`` instead of killing the
        sweep (``"raise"``, the default, propagates as before).

        ``checkpoint`` names a JSON-lines file recording completed point
        indices: each successful point appends one line, and a re-run with
        the same file skips those points (yielding ``skipped=True``
        records) — resuming an interrupted sweep re-simulates only what
        never finished.  Results themselves are not persisted; re-running
        a completed point is what the checkpoint avoids.
        """
        import json
        from pathlib import Path

        from repro.backends.router import NoCapableBackendError

        completed: set[int] = set()
        checkpoint_path = None
        if checkpoint is not None:
            checkpoint_path = Path(checkpoint)
            if checkpoint_path.exists():
                for line in checkpoint_path.read_text().splitlines():
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        completed.add(int(json.loads(line)["index"]))
                    except (ValueError, KeyError, TypeError):
                        warnings.warn(
                            f"ignoring malformed checkpoint line in "
                            f"{checkpoint_path}: {line!r}",
                            RuntimeWarning,
                            stacklevel=2,
                        )

        tolerate = self.execution.failure_policy != "raise"
        shared_cuts: list[Cut] | None = None
        for index, params in enumerate(param_grid):
            if index in completed:
                yield SweepResult(
                    index=index, params=params, result=None, skipped=True
                )
                continue
            degradation: str | None = None
            try:
                circuit = _call_factory(circuit_factory, params)
                plan = None
                if reuse_cuts and shared_cuts:
                    try:
                        plan = self.plan(
                            circuit, keep_qubits=keep_qubits, cuts=shared_cuts
                        )
                    except (ValueError, NoCapableBackendError) as exc:
                        # cuts do not transfer: search afresh, and say so
                        degradation = (
                            "shared cut set did not transfer "
                            f"({type(exc).__name__}: {exc}); re-planned "
                            "from scratch"
                        )
                if plan is None:
                    plan = self.plan(circuit, keep_qubits=keep_qubits)
                    if not shared_cuts and plan.cut_circuit.cuts:
                        # adopt the first *non-empty* cut set: an
                        # all-Clifford grid point finds no cuts, and an
                        # empty set must not pin later points to uncut
                        # whole-circuit evaluation
                        shared_cuts = list(plan.cut_circuit.cuts)
                result = plan.execute()
            except Exception as exc:
                if not tolerate:
                    raise
                yield SweepResult(
                    index=index, params=params, result=None, error=exc
                )
                continue
            if degradation is not None:
                result.faults.record("replan", detail=degradation)
            if checkpoint_path is not None:
                with checkpoint_path.open("a") as fh:
                    fh.write(json.dumps({"index": index}) + "\n")
            yield SweepResult(
                index=index,
                params=params,
                result=result,
                degradation=degradation,
            )

    def run_many(
        self,
        circuits,
        keep_qubits: list[int] | None = None,
    ):
        """Execute many circuits, sharing the variant cache.

        Yields one :class:`SuperSimResult` per circuit, in order, as each
        completes.  Unlike :meth:`sweep`, no structural similarity is
        assumed — each circuit gets its own cut search — but identical
        fragment variants across circuits still deduplicate through the
        shared cache.

        Under ``failure_policy="retry"`` / ``"degrade"`` a circuit that
        still fails after the engine's own fault tolerance yields ``None``
        in its slot (with a warning naming the error) instead of aborting
        the batch; the default ``"raise"`` policy propagates immediately.
        """
        tolerate = self.execution.failure_policy != "raise"
        for index, circuit in enumerate(circuits):
            try:
                yield self.plan(circuit, keep_qubits=keep_qubits).execute()
            except Exception as exc:
                if not tolerate:
                    raise
                warnings.warn(
                    f"run_many circuit {index} failed after fault "
                    f"tolerance ({type(exc).__name__}: {exc}); yielding "
                    "None for this slot",
                    RuntimeWarning,
                    stacklevel=2,
                )
                yield None

    # -- lifecycle ------------------------------------------------------------

    def adopt_resource(self, resource) -> None:
        """Register a resource for deterministic shutdown via :meth:`close`.

        Anything with a ``close()`` or ``shutdown()`` method qualifies —
        a :class:`~repro.service.client.ServiceClient`, say.  Resources
        close in reverse adoption order; adoption is idempotent per object.
        """
        if not any(r is resource for r in self._owned_resources):
            self._owned_resources.append(resource)

    def close(self) -> None:
        """Close the adopted resources (service client connections),
        deterministically.  Idempotent; the engine remains usable
        afterwards.
        """
        while self._owned_resources:
            resource = self._owned_resources.pop()
            closer = getattr(resource, "close", None) or getattr(
                resource, "shutdown", None
            )
            if closer is not None:
                closer()

    def __enter__(self) -> "SuperSim":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def probabilities(self, circuit: Circuit) -> Distribution:
        """Reconstructed distribution over the circuit's measured qubits."""
        return self.run(circuit).distribution

    def sparse_probabilities(
        self,
        circuit: Circuit,
        keep_qubits: list[int] | None = None,
        max_support: int = 1_000_000,
    ) -> Distribution:
        """Full-distribution reconstruction for sparse outputs at any width.

        Avoids the dense ``2^n`` accumulator: every fragment tensor is built
        on its support (:func:`build_conditioned_fragment_tensor` with
        nothing pinned) and the contraction runs over the product of the
        supports, so cost scales with the actual support of the output
        distribution (e.g. the repetition-code benchmark at 41 qubits)
        rather than with ``2^n``.  A product above ``max_support`` raises
        ``ValueError`` before anything is contracted (dense outputs should
        use ``marginal_probabilities`` or recursive mode instead).  An
        explicit ``keep_qubits`` is checked before anything is cut
        (:func:`_check_qubits`).
        """
        if keep_qubits is None:
            keep_qubits = list(circuit.measured_qubits)
        else:
            keep_qubits = list(keep_qubits)
            _check_qubits(keep_qubits, circuit.n_qubits, f"keep_qubits {keep_qubits}")
        cc = self.cut(circuit)
        fragment_data = self._evaluator().evaluate_all(
            cc.fragments, job_runner=self._job_runner
        )
        kept_locals = _kept_locals(cc, keep_qubits)
        tensors = [
            build_conditioned_fragment_tensor(data, kept, {}, max_dense_bits=None)
            for data, kept in zip(fragment_data, kept_locals)
        ]
        if math.prod(len(tensor.support) for tensor in tensors) > max_support:
            raise ValueError(
                "sparse reconstruction support exceeded max_support; "
                "use marginal reconstruction for dense outputs"
            )
        dist, _stats = reconstruct_distribution(
            cc,
            tensors,
            kept_locals,
            keep_qubits,
            prune_zeros=self.execution.prune_zeros,
            max_dense_bits=None,
        )
        return dist.clipped() if len(dist) else dist

    def marginal_probabilities(
        self,
        circuit: Circuit,
        windows,
        cuts: list[Cut] | None = None,
    ) -> list[Distribution]:
        """Marginals over several qubit windows, one evaluation pass.

        ``windows`` is an iterable of qubit-index sequences (each defines
        the bit order of its marginal; a qubit appears at most once in a
        window).  Fragments are evaluated once and each fragment's tensors
        for all windows are built in one pass over its variants, or one
        elimination of its Pauli map per window width
        (:func:`~repro.core.tomography.build_window_tensors`).  The
        windows are then contracted in batches, one contraction per window
        *shape* (:func:`~repro.core.reconstruction.reconstruct_windows`),
        so no object larger than ``4^k · 2**len(window)`` per window is
        built at *any* circuit width.  The marginals are exact in exact
        mode and estimates from the sampled non-Clifford variants
        otherwise (Clifford fragments are exact in every mode).  This is
        the primitive QAOA edge scoring and per-qubit readout ride on.
        """
        windows = [list(w) for w in windows]
        _check_windows(windows, circuit.n_qubits)
        cc = self.cut(circuit, cuts)
        evaluator = self._evaluator()
        fragment_data = evaluator.evaluate_all(
            cc.fragments, job_runner=self._job_runner
        )
        max_dense_bits = self.reconstruction.max_dense_bits
        sites = output_sites(cc)
        layouts = [window_layout(sites, len(cc.fragments), w) for w in windows]
        tensors = [
            build_window_tensors(
                data,
                [kept_locals[f] for kept_locals, _order in layouts],
                project=self._projects(evaluator, data.fragment),
                max_dense_bits=max_dense_bits,
            )
            for f, data in enumerate(fragment_data)
        ]
        marginals = reconstruct_windows(
            cc,
            tensors,
            layouts,
            prune_zeros=self.execution.prune_zeros,
            max_dense_bits=max_dense_bits,
        )
        return [dist.clipped() if len(dist) else dist for dist in marginals]

    def single_qubit_marginals(self, circuit: Circuit) -> np.ndarray:
        """Per-qubit marginals at any width (the 300-qubit mode).

        Fragments are evaluated once and all the single-qubit windows are
        reconstructed in a few batched contractions
        (:meth:`marginal_probabilities`), so no ``2^n`` object is ever
        built.  Exact in exact mode; with ``shots`` set, estimates from
        the sampled non-Clifford variants.
        """
        qubits = list(circuit.measured_qubits)
        out = np.zeros((len(qubits), 2))
        marginals = self.marginal_probabilities(circuit, [[q] for q in qubits])
        for row, dist in enumerate(marginals):
            out[row, 0] = dist[0]
            out[row, 1] = dist[1]
        return out

    def expectation(self, circuit: Circuit, pauli) -> float:
        """``<P>`` of the circuit's output state at any width.

        Basis rotations reduce the Pauli to a Z-parity on its support, and
        the reconstruction keeps only those qubits, so wide near-Clifford
        circuits stay cheap (this is the primitive behind near-CAFQA VQE
        scoring).
        """
        from repro.apps.vqe import pauli_expectation

        return pauli_expectation(circuit, pauli, self)

    def probability_of(self, circuit: Circuit, outcome_bits) -> float:
        """Strong simulation: the probability of one bitstring.

        Each fragment's tensor is built at the fixed outcome only — every
        kept qubit pinned, an empty window: for a Clifford fragment one
        point query of its Pauli map, one GF(2) elimination — so the
        cost is one ``4^k`` contraction of scalars at *any* circuit width:
        the paper's §V-C claim that single-bitstring probabilities come
        "to machine precision without added computational overheads".
        """
        qubits = list(circuit.measured_qubits)
        outcome_bits = list(outcome_bits)
        if len(outcome_bits) != len(qubits):
            raise ValueError("bitstring length does not match measured qubits")
        # an integer 0 or 1 (bools and numpy integers too) or a '0'/'1'
        # character: int() would truncate 0.9 to a silent 0
        if not all(
            (isinstance(b, numbers.Integral) and b in (0, 1)) or b in ("0", "1")
            for b in outcome_bits
        ):
            raise ValueError(f"outcome bits must be 0 or 1, got {outcome_bits!r}")
        outcome_bits = [int(b) for b in outcome_bits]
        bit_of = dict(zip(qubits, outcome_bits))
        cc = self.cut(circuit)
        fragment_data = self._evaluator().evaluate_all(
            cc.fragments, job_runner=self._job_runner
        )
        tensors = [
            build_conditioned_fragment_tensor(
                data,
                [],
                {
                    lq: bit_of[oq]
                    for oq, lq in data.fragment.circuit_outputs
                    if oq in bit_of
                },
            )
            for data in fragment_data
        ]
        # nothing is pruned: the one entry is the answer, however small
        point, _stats = reconstruct_distribution(
            cc, tensors, [[] for _ in tensors], [], prune_zeros=False
        )
        return point[0]
