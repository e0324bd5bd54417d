"""Fragment evaluation: route every variant to the cheapest backend (§V-B).

The original dispatch — Clifford fragments to the stabilizer simulator,
everything else to statevector — is now one particular outcome of
capability-based routing: a :class:`~repro.backends.router.BackendRouter`
scores every registered backend's cost model against each fragment's
features (width, Clifford-ness, T-count, entangling depth) and picks the
cheapest capable one.  This is the heart of SuperSim's speed — the wide
fragments are Clifford and cheap, the non-Clifford fragments are narrow
and cheap — and it now extends to the paper's §XI backends (MPS, extended
stabilizer, CH form) without code changes here.

Evaluation is *batched*: ``evaluate_all`` flattens the work of every
fragment into one job list — one job per variant, except that a noiseless
Clifford fragment is one job for all its variants (one backward walk of
its body, :meth:`Backend.pauli_map`) —
deduplicates it through a content-addressed
:class:`~repro.backends.cache.VariantCache` (identical variant circuits and
fragments — common in parameter sweeps and across symmetric fragments —
are simulated once), and runs the surviving jobs one after another.
The jobs are independent (§X), so they parallelise trivially; the one
parallel executor is the distributed service
(:mod:`repro.service`), which hands its worker fleet the same jobs
through ``evaluate_all``'s ``job_runner``.

Per-job seeds are derived from the evaluator's root seed *and* the variant
fingerprint, never from submission order, so sampled results are
reproducible bit-for-bit, local or service.

Execution is fault tolerant.  *What happens* when a job's backend raises,
overruns its soft deadline (derived from the calibrated cost model) or
loses its worker is decided by one :class:`~repro.core.lifecycle.JobLifecycle`
per job — retry with capped backoff, quarantine, degrade-mode fallback,
typed error.  This module keeps only the *mechanics* of carrying those
decisions out locally: the job loop sleeps and re-runs, a late result is
kept (a running job cannot be interrupted), and the local fallback is the
next-cheapest capable backend in the router's ranking.  A retried or
fallen-back job reuses its fingerprint-derived seed, so a run that
survived faults is bit-for-bit identical to a clean one; the survived
faults are tallied in the evaluator's :class:`~repro.errors.FaultReport`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.distributions import (
    Distribution,
    pack_bit_cols,
    pack_bit_rows,
    pack_keys,
    pack_shots,
    unpack_shots,
)
from repro.backends.base import Backend, CircuitFeatures
from repro.backends.cache import VariantCache, circuit_fingerprint, resolve_cache
from repro.backends.registry import default_backend_pool, get_backend
from repro.backends.router import BackendRouter
from repro.core.config import ExecutionConfig, SamplingConfig
from repro.core.fragments import Fragment
from repro.core.lifecycle import FaultPolicy, JobLifecycle
from repro.core.variants import all_variants, variant_circuit
from repro.errors import FaultReport
from repro.stabilizer.tableau import PauliMap


class VariantData:
    """Results of one variant: outcome statistics over all fragment qubits.

    ``joint(cols)`` returns the (exact or empirical) distribution over the
    selected bit columns, in the order given.
    """

    def joint(self, cols: list[int]) -> Distribution:
        raise NotImplementedError

    def joint_tables(self, windows: list, tail: list[int]) -> np.ndarray:
        """``P(window = x, tail = m)`` for several equal-width windows.

        Shape ``(len(windows), 2**width, 2**len(tail))``: one dense table
        per window over its own columns (rows) and the ``tail`` columns
        every window shares (the fragment's measured cut qubits).  This
        default asks :meth:`joint` once per window — dense data's way, and
        the oracle of the override: sampled data histograms every window
        in one pass over its shots.
        """
        width = len(windows[0])
        shape = (2**width, 2 ** len(tail))
        tables = np.zeros((len(windows),) + shape)
        for table, cols in zip(tables, windows):
            dist = self.joint(list(cols) + tail)
            table.reshape(-1)[dist.keys_array.astype(np.intp)] = dist.values_array
        return tables

    def conditioned_tables(
        self, keep: list[int], fixed: list[int], fixed_rows: np.ndarray, tail: list[int]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """``P(keep = x, fixed = row, tail = m)`` for every row of ``fixed_rows``.

        The conditioned twin of :meth:`joint_tables`: one table per row of
        the ``(bins, len(fixed))`` bit matrix, sparse because a bin's
        support is small whatever the window width — a ``(keys, probs)``
        pair with ``keys = x << len(tail) | m`` (unique, in no particular
        order; ``uint64`` up to 62 bits, chunked rows beyond — the layouts
        of :func:`~repro.analysis.distributions.pack_keys`): one joint over
        all the columns, cut up by the fixed bits, which lead its sorted
        keys.
        """
        dist = self.joint(list(fixed) + list(keep) + list(tail))
        bits = dist.bit_matrix()
        fixed_keys = pack_bit_rows(bits[:, : len(fixed)])
        keys = pack_keys(bits[:, len(fixed) :])
        wanted = pack_bit_rows(fixed_rows)
        starts = np.searchsorted(fixed_keys, wanted, side="left")
        stops = np.searchsorted(fixed_keys, wanted, side="right")
        probs = dist.values_array
        return [(keys[a:b], probs[a:b]) for a, b in zip(starts, stops)]


class DenseVariantData(VariantData):
    """Exact result held as a full distribution (small fragments)."""

    def __init__(self, distribution: Distribution):
        self.distribution = distribution

    def joint(self, cols: list[int]) -> Distribution:
        return self.distribution.marginal(cols)


class SampledVariantData(VariantData):
    """Empirical result from finite shots, held as shot words: a noisy
    Clifford variant's Pauli-frame samples (:meth:`from_bits`).

    ``words[i, w]`` (``uint64``) packs bit ``i`` of 64 shots: bit ``s & 63``
    of word ``s >> 6`` belongs to shot ``s``, bits past ``shots`` are zero
    (:func:`~repro.analysis.distributions.pack_shots`).  That is the layout
    the cache and the wire carry — an eighth of a bool
    matrix.  Single-bit histograms are popcounts on the words; everything
    else unpacks only the columns it asks for.
    """

    def __init__(self, words: np.ndarray, shots: int):
        self.words = words
        self.shots = int(shots)

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "SampledVariantData":
        """From a ``(shots, m)`` bool matrix (the noisy Pauli-frame path)."""
        return cls(pack_shots(bits), len(bits))

    @property
    def bits(self) -> np.ndarray:
        """The ``(shots, m)`` bool matrix, unpacked on every access."""
        bits_t = unpack_shots(self.words, self.shots)
        return np.ascontiguousarray(bits_t.T).view(bool)

    def _cols(self, cols: list[int]) -> np.ndarray:
        """Bit-major ``(len(cols), shots)`` bytes of the selected columns."""
        return unpack_shots(self.words[list(cols)], self.shots)

    def joint(self, cols: list[int]) -> Distribution:
        return Distribution.from_bit_cols(self._cols(cols))

    def joint_tables(self, windows: list, tail: list[int]) -> np.ndarray:
        # one pass over the shots for all windows: integer histograms,
        # divided by the shot count once (as ``joint`` does per window)
        width = len(windows[0])
        if width == 1:
            # a single-bit window is the number of ones in its column:
            # popcount every column at once, under the mask of the shots
            # that show each value of the tail key
            masks = self._tail_masks(tail)
            column_words = self.words[[w[0] for w in windows]]
            ones = np.bitwise_count(column_words[:, None] & masks).sum(axis=2)
            totals = np.bitwise_count(masks).sum(axis=1)
            counts = np.stack([totals - ones, ones], axis=1)
        else:
            tail_key = pack_bit_cols(self._cols(tail)).astype(np.intp)
            counts = np.empty(
                (len(windows), 2**width, 2 ** len(tail)), dtype=np.intp
            )
            for table, cols in zip(counts, windows):
                key = pack_bit_cols(self._cols(cols)).astype(np.intp)
                table[...] = np.bincount(
                    (key << len(tail)) | tail_key, minlength=table.size
                ).reshape(table.shape)
        return counts / self.shots

    def _tail_masks(self, tail: list[int]) -> np.ndarray:
        """``(2**len(tail), n_words)`` words flagging the shots whose
        ``tail`` columns spell each key (first column most significant)."""
        masks = pack_shots(np.ones((self.shots, 1), dtype=bool))
        for col in tail:
            ones = masks & self.words[col]
            masks = np.stack([masks ^ ones, ones], axis=1).reshape(-1, ones.shape[1])
        return masks


class FragmentData:
    """All results of one fragment: one :class:`VariantData` per variant
    (``results``), or — a noiseless Clifford fragment read by an affine
    backend — the :class:`~repro.stabilizer.tableau.PauliMap` of its body
    (``pauli_map``, ``results`` empty), from which the tomography reads
    every variant's share at once."""

    def __init__(self, fragment: Fragment, results, pauli_map: PauliMap | None = None):
        self.fragment = fragment
        self.results: dict[tuple[tuple[int, ...], tuple[int, ...]], VariantData] = (
            results
        )
        self.pauli_map = pauli_map

    def variant(self, preps, bases) -> VariantData:
        return self.results[(tuple(preps), tuple(bases))]

    @property
    def num_variants(self) -> int:
        return self.fragment.num_variants

    def conditioned_tables(self, keep, fixed, fixed_rows, tail) -> list[tuple]:
        """Every variant's ``P(keep = x, fixed = row, tail = m)``, per row of
        ``fixed_rows``: one ``(owner, keys, probs)`` triple per row, the
        variants' sparse tables (:meth:`VariantData.conditioned_tables`)
        concatenated in :func:`all_variants` order, ``owner`` the position
        of each entry's variant.
        """
        variants = [self.variant(*key) for key in all_variants(self.fragment)]
        tables = [v.conditioned_tables(keep, fixed, fixed_rows, tail) for v in variants]
        return [
            (
                np.arange(len(variants)).repeat([len(keys) for keys, _ in bin_tables]),
                *map(np.concatenate, zip(*bin_tables)),
            )
            for bin_tables in zip(*tables)
        ]


class _Job:
    """One deduplicated unit of simulation work: one variant ``circuit``,
    or — ``fragment`` set, ``circuit`` ``None`` — every variant of a
    noiseless Clifford fragment.

    ``fragment_index`` / ``features`` carry the context the
    fault-tolerance layer needs (error attribution, degrade-mode fallback
    routing); ``timeout`` is the job's soft deadline in seconds
    (``None`` = none); ``attempt`` counts known prior failures and is set
    by the runner before every (re)submission; ``chaos`` is the
    optional deterministic fault-injection schedule and ``in_process``
    tells the chaos harness whether a crash may be a real ``os._exit``.
    """

    __slots__ = (
        "key",
        "backend",
        "circuit",
        "shots",
        "seed",
        "noise",
        "fragment_index",
        "features",
        "fragment",
        "timeout",
        "attempt",
        "chaos",
        "in_process",
    )

    def __init__(
        self,
        key,
        backend,
        circuit=None,
        shots=None,
        seed=None,
        noise=None,
        fragment_index=None,
        features=None,
        fragment=None,
        timeout=None,
        chaos=None,
    ):
        self.key = key
        self.backend = backend
        self.circuit = circuit
        self.shots = shots
        self.seed = seed
        self.noise = noise
        self.fragment_index = fragment_index
        self.features = features
        self.fragment = fragment
        self.timeout = timeout
        self.attempt = 0
        self.chaos = chaos
        self.in_process = False

    @property
    def fingerprint(self) -> str:
        return self.key[0]


def _execute_job(job: _Job):
    """Simulate one job (module-level, so service workers run it too): a
    :class:`VariantData`, or a fragment job's
    :class:`~repro.stabilizer.tableau.PauliMap` — or, from a backend
    without an affine readout, its variants' data in :func:`all_variants`
    order."""
    if job.chaos is not None:
        from repro.testing.chaos import perform_action

        action = job.chaos.action_for(
            job.fingerprint, job.attempt, backend=job.backend.name
        )
        if action is not None:
            perform_action(action, in_process_worker=job.in_process)
    fragment = job.fragment
    if fragment is not None:
        if job.backend.capabilities.affine:
            return job.backend.pauli_map(fragment.circuit, *fragment.cut_wires)
        # a forced or fallen-back backend without an affine readout
        circuits = (variant_circuit(fragment, *spec) for spec in all_variants(fragment))
        return tuple(DenseVariantData(job.backend.probabilities(c)) for c in circuits)
    if job.shots is None:
        return DenseVariantData(job.backend.probabilities(job.circuit))
    rng = np.random.default_rng(np.random.SeedSequence(job.seed))
    if job.noise is not None:
        return SampledVariantData.from_bits(
            job.backend.sample_noisy_bits(job.circuit, job.noise, job.shots, rng)
        )
    return DenseVariantData(job.backend.sample(job.circuit, job.shots, rng))


def _is_simulated_crash(exc: BaseException) -> bool:
    """Is this the chaos harness's stand-in for a worker crash?"""
    try:
        from repro.testing.chaos import SimulatedWorkerCrash
    except Exception:  # pragma: no cover - testing package always ships
        return False
    return isinstance(exc, SimulatedWorkerCrash)


def router_for(execution: ExecutionConfig) -> BackendRouter:
    """``execution.router``, or a router over the default backend pool."""
    if execution.router is not None:
        return execution.router
    return BackendRouter(default_backend_pool())


class FragmentEvaluator:
    """Evaluates fragments through the backend router and batch engine.

    Every setting comes from the two typed configs (their fields are
    documented there) and is read where it is used:

    * ``sampling`` (:class:`~repro.core.config.SamplingConfig`) — exact
      evaluation (``shots=None``, the mode of the paper's accuracy claims)
      or shots per non-Clifford variant, the root seed, and ``noise``
      (§IV-A): Clifford fragments are then Pauli-frame sampled through a
      noise-capable backend, while non-Clifford fragments stay noiseless —
      they carry the coherent part of the error model as explicit gates.
      A noiseless Clifford fragment is exact whatever ``shots`` says
      (:meth:`mode` decides, for every layer that asks);
    * ``execution`` (:class:`~repro.core.config.ExecutionConfig`) — the
      router (default: every built-in backend, cheapest capable one wins),
      a forced ``backend``, which wins for every fragment it can handle,
      the failure policy and the soft deadlines.

    ``cache`` stands in for ``execution.cache`` with a resolved
    :class:`~repro.backends.cache.VariantCache` (``SuperSim`` passes its
    long-lived one, which carries results between ``run()`` calls);
    ``assignments`` pins fragment indices to backends (a plan's routing,
    which wins over forcing and routing).
    """

    def __init__(
        self,
        sampling: SamplingConfig | None = None,
        execution: ExecutionConfig | None = None,
        *,
        cache: VariantCache | None = None,
        assignments: dict[int, Backend] | None = None,
    ):
        self.sampling = sampling = sampling or SamplingConfig()
        self.execution = execution = execution or ExecutionConfig()
        self.cache = cache if cache is not None else resolve_cache(execution.cache)
        # a Generator seed is used as is
        self.rng = np.random.default_rng(sampling.seed)
        self.router = router_for(execution)
        backend = execution.backend
        self.forced = get_backend(backend) if backend is not None else None
        self.policy = FaultPolicy.of(execution)
        self.assignments = dict(assignments) if assignments else {}
        #: faults survived across this evaluator's evaluate_all calls
        self.faults = FaultReport()
        self._last_degraded: set[tuple] = set()  # fallen-back job keys
        self._tried: dict[tuple, set[str]] = {}  # job key -> backend names
        self.last_stats: dict = {}

    # the constructor's earlier name, still called by the benchmark ledger
    from_configs = classmethod(lambda cls, *args, **kwargs: cls(*args, **kwargs))

    # -- routing --------------------------------------------------------------

    def mode(self, fragment: Fragment) -> str:
        """How a fragment's variants are evaluated: ``"exact"``,
        ``"sampled"`` or ``"noisy"``.

        The one place that decides it: planning, routing, soft deadlines,
        job keys and the tomography projection all ask here.  A Clifford
        fragment is Pauli-frame sampled under a noise model and exact
        otherwise, whatever ``shots`` says — its stabilizer simulation *is*
        the exact distribution, which shots would only blur.  A
        non-Clifford fragment is sampled when ``shots`` is set.
        """
        if fragment.is_clifford:
            return "exact" if self.sampling.noise is None else "noisy"
        return "exact" if self.sampling.exact else "sampled"

    def _backend_for(self, fragment: Fragment) -> Backend:
        """The backend that evaluates a fragment in its :meth:`mode`.

        All variants of a fragment share width and Clifford-ness (variants
        add only single-qubit Clifford preparation/basis ops), so routing
        is per fragment, not per variant.  A plan-level assignment
        (validated at planning time) wins; then the forced backend, where
        it can handle the fragment; then the router.  Noisy fragments
        (Pauli-frame sampling) need a noise-capable backend either way.
        """
        assigned = self.assignments.get(fragment.index)
        if assigned is not None:
            return assigned
        features = CircuitFeatures.from_circuit(fragment.circuit)
        mode = self.mode(fragment)
        exact, noisy = mode == "exact", mode == "noisy"
        if self.forced is not None and self.forced.can_handle(
            features, exact=exact, noisy=noisy
        ):
            return self.forced
        return self.router.select(features, exact=exact, noisy=noisy)

    def _job_timeout(
        self, backend: Backend, fragment: Fragment, features: CircuitFeatures
    ) -> float | None:
        """Soft deadline for one variant, in seconds (``None`` = none).

        An explicit ``job_timeout`` wins.  Otherwise a deadline is derived
        from the calibrated cost model — scored cost is (roughly) predicted
        seconds once ``cost_scales`` are measured — times the
        ``timeout_safety`` factor, floored at ``min_job_timeout``.  Without
        a calibration entry for this backend the model's units are
        arbitrary and no deadline can honestly be derived.
        """
        execution = self.execution
        if execution.job_timeout is not None:
            return execution.job_timeout
        if backend.name not in self.router.cost_scales:
            return None
        mode = "exact" if self.mode(fragment) == "exact" else "sampled"
        try:
            cost = float(self.router.scored_cost(backend, features, mode))
        except Exception:
            return None
        return max(execution.min_job_timeout, cost * execution.timeout_safety)

    # -- batch engine ---------------------------------------------------------

    def _build_jobs(self, fragments: list[Fragment], root_seed: int):
        """Flatten fragment x variant work into deduplicated jobs.

        Returns ``(assignments, unique_jobs)``: ``assignments`` holds one
        ``(fragment index, (preps, bases), key)`` per variant job and one
        ``(fragment index, None, key)`` per fragment job, and
        ``unique_jobs`` one job per distinct key.  A noiseless Clifford
        fragment (:meth:`mode` exact) is one job keyed by its
        :func:`fragment_fingerprint`, with the sum of its variants' soft
        deadlines.  A variant job's key is the
        variant circuit's content fingerprint plus the fragment's mode
        (exact, or shot count plus seed, plus the noise model's content
        fingerprint).  Both carry the backend's configuration token, so a
        hit is guaranteed to describe an identical simulation.
        """
        from repro.backends.cache import fragment_fingerprint, noise_fingerprint

        sampling = self.sampling
        assignments: list[tuple[int, tuple | None, tuple]] = []
        unique: dict[tuple, _Job] = {}
        noise_key = noise_fingerprint(sampling.noise)
        for index, fragment in enumerate(fragments):
            mode = self.mode(fragment)
            backend = self._backend_for(fragment)
            features = CircuitFeatures.from_circuit(fragment.circuit)
            timeout = self._job_timeout(backend, fragment, features)
            backend_key = backend.cache_token()
            context = dict(
                fragment_index=index, features=features, chaos=self.execution.chaos
            )
            if mode == "exact" and fragment.is_clifford:
                fp = fragment_fingerprint(fragment.circuit, *fragment.cut_wires)
                key = (fp, backend_key, None, "exact")
                assignments.append((index, None, key))
                if key not in unique:
                    if timeout is not None:  # the sum of its variants'
                        timeout *= fragment.num_variants
                    unique[key] = _Job(
                        key, backend, fragment=fragment, timeout=timeout, **context
                    )
                continue
            shots = None if mode == "exact" else sampling.shots
            noise = sampling.noise if mode == "noisy" else None
            noisy_key = noise_key if mode == "noisy" else None
            for preps, bases in all_variants(fragment):
                circuit = variant_circuit(fragment, preps, bases)
                fp = circuit_fingerprint(circuit)
                seed = (root_seed, int(fp[:16], 16))
                if shots is None:
                    evaluation: tuple = ("exact",)
                else:
                    # sampled results depend on the per-job seed, so key it
                    evaluation = ("shots", shots, seed)
                key = (fp, backend_key, noisy_key) + evaluation
                assignments.append((index, (preps, bases), key))
                if key not in unique:
                    unique[key] = _Job(
                        key, backend, circuit, shots, seed, noise,
                        timeout=timeout, **context
                    )
        return assignments, unique

    def _fall_back(self, lifecycle: JobLifecycle, reason: str) -> bool:
        """Degrade-mode fallback: move the job to the cheapest capable
        backend it has not tried yet."""
        job = lifecycle.job
        tried = self._tried.setdefault(job.key, {job.backend.name})
        try:
            ranked = self.router.ranked(
                job.features,
                exact=job.shots is None,
                noisy=job.noise is not None,
            )
        except Exception:
            return False
        cand = next((b for b in ranked if b.name not in tried), None)
        if cand is None:
            return False
        lifecycle.fell_back(f"{job.backend.name} -> {cand.name} after {reason}")
        tried.add(cand.name)
        job.backend = cand
        # the value will come from a different backend than the cache key
        # names: usable for this run, but never stored cross-run
        self._last_degraded.add(job.key)
        return True

    def _run_jobs(self, jobs: list[_Job]) -> dict[tuple, VariantData]:
        """Run the jobs one after another, each until its lifecycle settles it.

        A failed attempt is handed to the job's
        :class:`~repro.core.lifecycle.JobLifecycle`, whose answer is
        carried out here: sleep out the backoff and run again, or run on
        the backend :meth:`_fall_back` moved the job to.  A running job
        cannot be interrupted, so one that overran its soft deadline keeps
        its result and records a ``timeout`` fault.
        """
        self._last_degraded, self._tried = set(), {}
        results: dict[tuple, VariantData] = {}
        for job in jobs:
            lifecycle = JobLifecycle(job, self.policy, self.faults.events)
            while job.key not in results:
                job.attempt = lifecycle.attempt
                start = time.monotonic()
                try:
                    results[job.key] = _execute_job(job)
                except Exception as exc:
                    if _is_simulated_crash(exc):
                        detail = f"{type(exc).__name__}: {exc}"
                        delay = lifecycle.on_crash(detail, self._fall_back)
                    else:
                        delay = lifecycle.on_error(exc, self._fall_back)
                    if delay:
                        time.sleep(delay)
                    continue
                elapsed = time.monotonic() - start
                if job.timeout is not None and elapsed > job.timeout:
                    lifecycle.record(
                        "timeout",
                        f"completed late: {elapsed:.3g}s > "
                        f"{job.timeout:.3g}s soft deadline",
                    )
        return results

    def dry_run(self, fragments: list[Fragment]) -> dict:
        """Plan the job batch without simulating anything.

        Returns the same shape of stats ``evaluate_all`` would record —
        variant and unique job counts, per-backend job usage, and (in
        exact mode, where cache keys are seed-free) how many unique jobs
        the cache would satisfy.  Sampled-mode keys include the root seed,
        which is only drawn at execution time, so cache hits are reported
        as ``None`` there.
        """
        fragments = list(fragments)
        _assignments, unique = self._build_jobs(fragments, root_seed=0)
        usage: dict[str, int] = {}
        for job in unique.values():
            usage[job.backend.name] = usage.get(job.backend.name, 0) + 1
        cached: int | None = None
        if self.sampling.exact and self.cache is not None:
            cached = sum(1 for key in unique if key in self.cache)
        return {
            "jobs": sum(fragment.num_variants for fragment in fragments),
            "unique_jobs": len(unique),
            "cached_jobs": cached,
            "backends": usage,
        }

    def evaluate_all(
        self, fragments: list[Fragment], job_runner=None
    ) -> list[FragmentData]:
        """Evaluate every variant of every fragment as one batch of jobs.

        The jobs of all fragments are flattened together, so a runner's
        parallelism is not bounded by any single fragment's variant count,
        and the cache deduplicates identical jobs both within and across
        calls.
        ``last_stats`` counts variants (``jobs``) and jobs (``unique_jobs``,
        hits and misses, and per backend name the jobs it simulated).

        ``job_runner`` overrides *where* the deduplicated jobs execute:
        called as ``job_runner(jobs, faults) -> {key: value}`` (what
        :func:`_execute_job` returns), it
        must return a value for every job (raising on unrecoverable
        failure) and record any survived faults on ``faults``.  The
        distributed service injects its coordinator dispatch here;
        everything else — seeding, cache consult/fill, fragment assembly —
        is identical, which is what makes service runs bit-for-bit equal
        to local ones.
        """
        root_seed = int(self.rng.integers(2**63))
        assignments, unique = self._build_jobs(list(fragments), root_seed)
        cached: dict[tuple, VariantData] = {}
        if self.cache is not None:
            for key in list(unique):
                value = self.cache.get(key)
                if value is not None:
                    cached[key] = value
                    del unique[key]
        hits = len(cached)
        usage: dict[str, int] = {}
        for job in unique.values():
            usage[job.backend.name] = usage.get(job.backend.name, 0) + 1
        self.last_stats = {
            "jobs": sum(fragment.num_variants for fragment in fragments),
            "unique_jobs": len(unique) + hits,
            "cache_hits": hits,
            "cache_misses": len(unique),
            "backends": usage,
        }
        if job_runner is not None:
            computed = dict(job_runner(list(unique.values()), self.faults))
            self._last_degraded = set()
        else:
            computed = self._run_jobs(list(unique.values()))
        if self.cache is not None:
            for key, value in computed.items():
                if key in self._last_degraded:
                    # computed by a fallback backend: valid for this run,
                    # but the key names the original backend's token, so a
                    # cross-run cache hit would lie about its provenance
                    continue
                self.cache.put(key, value)
        self.last_stats["faults"] = self.faults
        computed.update(cached)
        per_fragment: list[dict] = [{} for _ in fragments]
        maps: dict[int, PauliMap] = {}
        for index, spec, key in assignments:
            value = computed[key]
            if spec is not None:
                per_fragment[index][spec] = value
            elif isinstance(value, PauliMap):
                maps[index] = value
            else:
                per_fragment[index].update(zip(all_variants(fragments[index]), value))
        return [
            FragmentData(fragment, results, maps.get(index))
            for index, (fragment, results) in enumerate(zip(fragments, per_fragment))
        ]

    def evaluate(self, fragment: Fragment) -> FragmentData:
        return self.evaluate_all([fragment])[0]
