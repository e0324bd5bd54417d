"""Chaos suite: the fault-tolerant engine under deterministic fault injection.

The engine's headline invariant — seeded results bit-for-bit identical,
local or service — must hold *under* injected faults, not just without
them.  Every test here drives the local job loop's fault paths
(retry/backoff, late results past a soft deadline, simulated worker
crashes and quarantine, degrade-mode backend fallback, per-point sweep
survival) with a seeded :class:`ChaosSchedule` and asserts both the
numbers (identical to a fault-free run) and the accounting
(``result.faults`` explains every injected fault).  Real worker deaths
and redispatch are the service's, tested in ``tests/test_service.py``.
"""

import multiprocessing
import threading

import pytest

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.core import (
    BackendExecutionError,
    ExecutionConfig,
    ReconstructionConfig,
    SamplingConfig,
    SuperSim,
    WorkerCrashError,
)
from repro.core import evaluator as evaluator_module
from repro.errors import FaultReport
from repro.testing import ChaosBackend, ChaosSchedule, InjectedFault


def rotated_chain(t: float, n: int = 8) -> Circuit:
    c = Circuit(n)
    for i in range(n):
        c.append(gates.H, i)
    for i in range(n - 1):
        c.append(gates.CX, i, i + 1)
    c.append(gates.ZPow(t), n // 2)
    c.measure_all()
    return c


def wide_chain(n: int) -> Circuit:
    """GHZ chain with one XPow(1/4): 4-outcome support at any width."""
    circuit = Circuit(n).append(gates.H, 0)
    for q in range(n - 1):
        circuit.append(gates.CX, q, q + 1)
    circuit.append(gates.XPow(0.25), n // 2)
    return circuit


class TestChaosSchedule:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ChaosSchedule(exception_rate=1.5)
        with pytest.raises(ValueError):
            ChaosSchedule(exception_rate=0.6, delay_rate=0.3, crash_rate=0.3)
        with pytest.raises(ValueError):
            ChaosSchedule(delay_seconds=-1.0)

    def test_schedule_is_deterministic_and_converges(self):
        sch = ChaosSchedule(seed=3, exception_rate=0.5, fail_attempts=2)
        fp = "ab" * 32
        assert sch.action_for(fp, 0) == sch.action_for(fp, 0)
        # injections stop at fail_attempts, so retries always converge
        assert sch.action_for(fp, 2) is None

    def test_only_backends_restricts_injection(self):
        sch = ChaosSchedule(seed=0, exception_rate=1.0, only_backends=("mps",))
        fp = "cd" * 32
        assert sch.action_for(fp, 0, backend="mps") is not None
        assert sch.action_for(fp, 0, backend="stabilizer") is None

    def test_perform_action_raises_injected_fault(self):
        from repro.testing.chaos import perform_action

        with pytest.raises(InjectedFault):
            perform_action(("raise", "boom"))


class TestExecutionConfigValidation:
    def test_bad_failure_policy_rejected(self):
        with pytest.raises(ValueError):
            ExecutionConfig(failure_policy="panic")

    def test_bad_timeouts_rejected(self):
        with pytest.raises(ValueError):
            ExecutionConfig(job_timeout=0.0)
        with pytest.raises(ValueError):
            ExecutionConfig(max_job_crashes=0)


class TestRetryDeterminism:
    """failure_policy="retry": every fault survived, results untouched."""

    def _clean(self, **sampling):
        return SuperSim(sampling=SamplingConfig(**sampling)).run(rotated_chain(0.3))

    def test_retries_account_for_every_injected_fault(self):
        clean = self._clean(shots=400, seed=11)
        chaos = ChaosSchedule(seed=5, exception_rate=1.0, fail_attempts=1)
        sim = SuperSim(
            sampling=SamplingConfig(shots=400, seed=11),
            execution=ExecutionConfig(
                failure_policy="retry", chaos=chaos, retry_backoff=0.0
            ),
        )
        result = sim.run(rotated_chain(0.3))
        assert result.distribution.probs == clean.distribution.probs
        # every executed job faulted exactly once on its first attempt
        assert result.faults.retries == result.cache_misses > 0
        assert result.faults.summary() == {"retry": result.cache_misses}

    def test_mixed_faults_leave_the_answer_bit_identical(self):
        clean = self._clean(shots=400, seed=11)
        chaos = ChaosSchedule(
            seed=5,
            exception_rate=0.5,
            delay_rate=0.2,
            delay_seconds=0.02,
            fail_attempts=1,
        )
        sim = SuperSim(
            sampling=SamplingConfig(shots=400, seed=11),
            execution=ExecutionConfig(
                failure_policy="retry", chaos=chaos, retry_backoff=0.0
            ),
        )
        result = sim.run(rotated_chain(0.3))
        assert result.distribution.probs == clean.distribution.probs
        # a delay without a deadline is no fault; every raise is a retry
        assert set(result.faults.summary()) <= {"retry"}

    def test_61q_recursive_run_identical_under_faults(self):
        # the paper-scale acceptance case: a 61-qubit recursive
        # reconstruction, bit-for-bit identical with faults injected on
        # every executed variant
        circuit = wide_chain(61)
        rc = ReconstructionConfig(qubit_limit=16, top_k=16)
        clean = SuperSim(reconstruction=rc).run(circuit)
        chaos = ChaosSchedule(seed=7, exception_rate=1.0, fail_attempts=1)
        sim = SuperSim(
            reconstruction=rc,
            execution=ExecutionConfig(
                failure_policy="retry", chaos=chaos, retry_backoff=0.0
            ),
        )
        result = sim.run(circuit)
        assert result.distribution.probs == clean.distribution.probs
        assert result.covered_probability == clean.covered_probability
        assert result.faults.retries == result.cache_misses > 0


class TestTimeouts:
    def test_serial_records_accepted_late_results(self):
        chaos = ChaosSchedule(
            seed=5, delay_rate=1.0, delay_seconds=0.05, fail_attempts=1
        )
        sim = SuperSim(
            sampling=SamplingConfig(shots=50, seed=3),
            execution=ExecutionConfig(
                failure_policy="retry", chaos=chaos, job_timeout=0.01
            ),
        )
        result = sim.run(rotated_chain(0.3))
        # serial execution cannot cancel: the late result is kept, the
        # deadline miss is still on the ledger
        assert result.faults.timeouts > 0
        assert all(
            "late" in e.detail for e in result.faults.of_kind("timeout")
        )


    def test_a_late_result_is_kept_under_the_raise_policy(self):
        # a local run cannot cancel a job, so a missed deadline is never
        # an error there: the result stands and the miss is on the ledger
        sampling = SamplingConfig(shots=50, seed=3)
        clean = SuperSim(sampling=sampling).run(rotated_chain(0.3))
        chaos = ChaosSchedule(
            seed=5, delay_rate=1.0, delay_seconds=0.05, fail_attempts=1
        )
        sim = SuperSim(
            sampling=sampling,
            execution=ExecutionConfig(chaos=chaos, job_timeout=0.01),
        )
        result = sim.run(rotated_chain(0.3))
        assert result.distribution.probs == clean.distribution.probs
        assert result.faults.summary() == {"timeout": result.cache_misses}

    def test_a_late_result_is_cached(self):
        chaos = ChaosSchedule(
            seed=5, delay_rate=1.0, delay_seconds=0.05, fail_attempts=1
        )
        sim = SuperSim(
            sampling=SamplingConfig(shots=50, seed=3),
            execution=ExecutionConfig(chaos=chaos, job_timeout=0.01),
        )
        first = sim.run(rotated_chain(0.3))
        second = sim.run(rotated_chain(0.3))
        assert first.faults.timeouts == first.cache_misses > 0
        assert second.cache_hits == first.cache_misses
        assert second.cache_misses == 0 and not second.faults
        assert second.distribution.probs == first.distribution.probs


class TestWorkerCrashes:
    def test_simulated_crashes_are_rerun_to_the_same_answer(self):
        clean = SuperSim(sampling=SamplingConfig(shots=400, seed=11)).run(
            rotated_chain(0.3)
        )
        # three of the five jobs crash on their first attempt, the
        # Clifford fragment's one among them
        chaos = ChaosSchedule(seed=3, crash_rate=0.4, fail_attempts=1)
        sim = SuperSim(
            sampling=SamplingConfig(shots=400, seed=11),
            execution=ExecutionConfig(
                failure_policy="retry", chaos=chaos, retry_backoff=0.0
            ),
        )
        result = sim.run(rotated_chain(0.3))
        assert result.distribution.probs == clean.distribution.probs
        assert result.faults.summary() == {"crash": 3}

    def test_poison_job_is_quarantined(self):
        # a job that crashes on *every* attempt is poison: after
        # max_job_crashes crashes it must be quarantined, not retried
        # forever
        chaos = ChaosSchedule(seed=5, crash_rate=1.0, fail_attempts=10**9)
        sim = SuperSim(
            sampling=SamplingConfig(shots=50, seed=3),
            execution=ExecutionConfig(
                failure_policy="retry",
                chaos=chaos,
                retry_backoff=0.0,
                max_job_crashes=2,
            ),
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            sim.run(rotated_chain(0.3))
        assert "quarantined" in str(excinfo.value)
        assert excinfo.value.fragment_index is not None
        assert excinfo.value.backend is not None

    def test_a_crash_fails_fast_under_the_raise_policy(self):
        chaos = ChaosSchedule(seed=3, crash_rate=1.0, fail_attempts=1)
        sim = SuperSim(
            sampling=SamplingConfig(shots=50, seed=3),
            execution=ExecutionConfig(chaos=chaos),
        )
        with pytest.raises(WorkerCrashError, match="in flight") as excinfo:
            sim.run(rotated_chain(0.3))
        assert excinfo.value.fragment_index is not None
        assert excinfo.value.attempts == 1

    def test_a_quarantined_job_falls_back_under_degrade(self):
        from repro.backends import BackendRouter, get_backend

        # an mps backend that crashes its worker on every call: each job
        # is quarantined after its second crash and moves to statevector
        crashing_mps = ChaosBackend(
            get_backend("mps"),
            ChaosSchedule(seed=1, crash_rate=1.0, fail_attempts=10**9),
        )
        router = BackendRouter([crashing_mps, get_backend("statevector")])
        sampling = SamplingConfig(shots=400, seed=11)
        clean = SuperSim(
            sampling=sampling, execution=ExecutionConfig(backend="statevector")
        ).run(rotated_chain(0.3))
        sim = SuperSim(
            sampling=sampling,
            execution=ExecutionConfig(
                failure_policy="degrade",
                backend=crashing_mps,
                router=router,
                max_job_crashes=1,
                retry_backoff=0.0,
            ),
        )
        result = sim.run(rotated_chain(0.3))
        assert result.distribution.probs == clean.distribution.probs
        jobs = result.cache_misses
        assert result.faults.summary() == {
            "crash": 2 * jobs,
            "quarantine": jobs,
            "fallback": jobs,
        }
        assert all(
            "mps -> statevector after 2 worker crashes" in e.detail
            for e in result.faults.of_kind("fallback")
        )


class TestRaisePolicy:
    def test_fail_fast_with_job_context(self):
        chaos = ChaosSchedule(seed=5, exception_rate=1.0)
        sim = SuperSim(
            sampling=SamplingConfig(shots=50, seed=3),
            execution=ExecutionConfig(chaos=chaos),  # failure_policy="raise"
        )
        with pytest.raises(BackendExecutionError) as excinfo:
            sim.run(rotated_chain(0.3))
        err = excinfo.value
        assert err.fragment_index is not None
        assert err.backend is not None
        assert isinstance(err.__cause__, InjectedFault)


class TestDegrade:
    def test_mps_falls_back_to_statevector(self):
        from repro.backends import BackendRouter, get_backend

        # a persistently-down mps backend forced onto every fragment it
        # admits; the only other capable backend in the pool is
        # statevector, so degrade mode must land every variant there
        dead_mps = ChaosBackend(
            get_backend("mps"),
            ChaosSchedule(seed=1, exception_rate=1.0, fail_attempts=10**9),
        )
        router = BackendRouter([dead_mps, get_backend("statevector")])
        # the baseline runs the *fallback* backend directly: sampled
        # results are a function of (circuit, backend, shots, seed), so a
        # degrade run that lands on statevector must reproduce a clean
        # statevector run bit-for-bit
        clean = SuperSim(
            sampling=SamplingConfig(shots=400, seed=11),
            execution=ExecutionConfig(backend="statevector"),
        ).run(rotated_chain(0.3))
        sim = SuperSim(
            sampling=SamplingConfig(shots=400, seed=11),
            execution=ExecutionConfig(
                failure_policy="degrade",
                backend=dead_mps,
                router=router,
                max_retries=1,
                retry_backoff=0.0,
            ),
        )
        result = sim.run(rotated_chain(0.3))
        assert result.distribution.probs == clean.distribution.probs
        fallbacks = result.faults.of_kind("fallback")
        assert fallbacks
        assert all("mps -> statevector" in e.detail for e in fallbacks)

    def test_a_clifford_fragment_falls_back_variant_by_variant(self, monkeypatch):
        """A stabilizer that is down: the one job of the Clifford fragment
        falls back once, to the next capable backend, which runs the
        fragment's variants one at a time; the answer is still exact."""
        from repro.analysis import total_variation_distance
        from repro.backends import BackendRouter, get_backend
        from repro.core import evaluator as evaluator_module
        from repro.statevector import StatevectorSimulator

        dead_stabilizer = ChaosBackend(
            get_backend("stabilizer"),
            ChaosSchedule(seed=1, exception_rate=1.0, fail_attempts=10**9),
        )
        statevector = get_backend("statevector")
        router = BackendRouter([dead_stabilizer, statevector])
        circuit = rotated_chain(0.3)
        spelled_out = []
        variant_circuit = evaluator_module.variant_circuit

        def counting(fragment, preps, bases):
            spelled_out.append(fragment.index)
            return variant_circuit(fragment, preps, bases)

        monkeypatch.setattr(evaluator_module, "variant_circuit", counting)
        sim = SuperSim(
            execution=ExecutionConfig(
                failure_policy="degrade",
                router=router,
                max_retries=1,
                retry_backoff=0.0,
            ),
        )
        plan = sim.plan(circuit)
        assert plan.backend_names.count("stabilizer") == 1
        clifford = plan.backend_names.index("stabilizer")
        variants = plan.cut_circuit.fragments[clifford].num_variants
        result = plan.execute()
        exact = StatevectorSimulator().probabilities(circuit)
        assert total_variation_distance(result.distribution, exact) <= 1e-12
        (fallback,) = result.faults.of_kind("fallback")
        assert fallback.fragment_index == clifford
        assert "stabilizer -> statevector" in fallback.detail
        # routed: the fragment job, and the four variants of the T fragment
        assert result.backend_usage == {"stabilizer": 1, "statevector": 4}
        # never spelled out to key the job, then one by one by the fallback
        assert spelled_out.count(clifford) == variants
        assert result.faults.retries == 1

    def test_fallen_back_clifford_data_conditions_variant_by_variant(self, monkeypatch):
        """The same fallen-back fragment holds statevector data, so a
        recursive run and a point query condition it variant by variant
        (``FragmentData.conditioned_tables``) — and agree with a clean run,
        whose Clifford fragment is conditioned off its Pauli map."""
        from repro.analysis import total_variation_distance
        from repro.backends import BackendRouter, get_backend
        from repro.core import evaluator as evaluator_module
        from repro.core import tomography

        dead_stabilizer = ChaosBackend(
            get_backend("stabilizer"),
            ChaosSchedule(seed=1, exception_rate=1.0, fail_attempts=10**9),
        )
        router = BackendRouter([dead_stabilizer, get_backend("statevector")])
        batches = []
        solve = tomography._solve_map

        def counting(pauli_map, windows):
            batches.append(len(windows))
            return solve(pauli_map, windows)

        monkeypatch.setattr(tomography, "_solve_map", counting)
        held = []  # (fragment index, data types) of every conditioning
        conditioned_tables = evaluator_module.FragmentData.conditioned_tables

        def recording(data, *args):
            kinds = {type(variant).__name__ for variant in data.results.values()}
            held.append((data.fragment.index, kinds))
            return conditioned_tables(data, *args)

        monkeypatch.setattr(
            evaluator_module.FragmentData, "conditioned_tables", recording
        )
        circuit = rotated_chain(0.3)
        recursive = ReconstructionConfig(mode="recursive", qubit_limit=3, top_k=256)
        clean = SuperSim(reconstruction=recursive)
        degraded = SuperSim(
            reconstruction=recursive,
            execution=ExecutionConfig(
                failure_policy="degrade",
                router=router,
                max_retries=1,
                retry_backoff=0.0,
            ),
        )
        clifford = degraded.plan(circuit).backend_names.index("stabilizer")
        result = degraded.run(circuit)
        assert result.faults.of_kind("fallback") and not batches
        assert (clifford, {"DenseVariantData"}) in held
        want = clean.run(circuit)
        assert batches  # the clean run conditions its Clifford fragment's map
        assert result.reconstruction_mode == want.reconstruction_mode == "recursive"
        assert total_variation_distance(result.distribution, want.distribution) <= 1e-12
        for outcome in (0, 0b10110011, 0b11111111, 0b01010101):
            bits = [(outcome >> (7 - q)) & 1 for q in range(8)]
            del batches[:]
            point = degraded.probability_of(circuit, bits)
            assert not batches
            assert abs(point - clean.probability_of(circuit, bits)) <= 1e-12
            assert batches

    def test_degraded_results_stay_out_of_the_cache(self):
        from repro.backends import BackendRouter, get_backend

        dead_mps = ChaosBackend(
            get_backend("mps"),
            ChaosSchedule(seed=1, exception_rate=1.0, fail_attempts=10**9),
        )
        router = BackendRouter([dead_mps, get_backend("statevector")])
        sim = SuperSim(
            sampling=SamplingConfig(shots=400, seed=11),
            execution=ExecutionConfig(
                failure_policy="degrade",
                backend=dead_mps,
                router=router,
                max_retries=0,
                retry_backoff=0.0,
            ),
        )
        first = sim.run(rotated_chain(0.3))
        assert first.faults.fallbacks > 0
        # a fallback-computed value must not satisfy the original
        # backend's cache key on the next run
        second = sim.run(rotated_chain(0.3))
        assert second.cache_hits == 0
        assert second.faults.fallbacks > 0

    def test_degrade_exhausted_still_raises(self):
        from repro.backends import BackendRouter, get_backend

        dead_mps = ChaosBackend(
            get_backend("mps"),
            ChaosSchedule(seed=1, exception_rate=1.0, fail_attempts=10**9),
        )
        # no fallback candidates at all: degrade must surface the error
        router = BackendRouter([dead_mps])
        sim = SuperSim(
            sampling=SamplingConfig(shots=50, seed=3),
            execution=ExecutionConfig(
                failure_policy="degrade",
                backend=dead_mps,
                router=router,
                max_retries=0,
                retry_backoff=0.0,
            ),
        )
        with pytest.raises(BackendExecutionError):
            sim.run(rotated_chain(0.3))


class TestLocalJobLoop:
    """The one local runner, ``FragmentEvaluator._run_jobs``: each job
    inline, in batch order, until its lifecycle settles it."""

    def _recording(self, monkeypatch):
        executed = []
        execute = evaluator_module._execute_job

        def recording(job):
            executed.append(job.key)
            return execute(job)

        monkeypatch.setattr(evaluator_module, "_execute_job", recording)
        return executed

    def _sleeps(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(evaluator_module.time, "sleep", sleeps.append)
        return sleeps

    def test_a_clean_batch_runs_each_job_once_in_order(self, monkeypatch):
        executed = self._recording(monkeypatch)
        evaluator = evaluator_module.FragmentEvaluator(SamplingConfig(shots=50, seed=3))
        fragments = SuperSim().plan(rotated_chain(0.3)).cut_circuit.fragments
        _, jobs = evaluator._build_jobs(fragments, 0)
        evaluator.evaluate_all(fragments)
        assert len(executed) == len(jobs) > 1
        assert len(set(executed)) == len(executed)
        # batch order: the order of the fragments, then of their variants
        # (a job's fingerprint, unlike its seed, is the same at any root)
        assert [key[0] for key in executed] == [key[0] for key in jobs]

    def test_backoffs_are_slept_as_the_policy_says(self, monkeypatch):
        sleeps = self._sleeps(monkeypatch)
        chaos = ChaosSchedule(seed=5, exception_rate=1.0, fail_attempts=2)
        sim = SuperSim(
            sampling=SamplingConfig(shots=50, seed=3),
            execution=ExecutionConfig(
                failure_policy="retry",
                chaos=chaos,
                retry_backoff=0.25,
                retry_backoff_cap=0.375,
            ),
        )
        result = sim.run(rotated_chain(0.3))
        # every job fails twice, then runs clean: base, then 2x capped
        assert sleeps == [0.25, 0.375] * result.cache_misses
        assert result.faults.retries == 2 * result.cache_misses

    def test_a_zero_backoff_never_sleeps(self, monkeypatch):
        sleeps = self._sleeps(monkeypatch)
        chaos = ChaosSchedule(seed=5, exception_rate=1.0, fail_attempts=3)
        sim = SuperSim(
            sampling=SamplingConfig(shots=50, seed=3),
            execution=ExecutionConfig(
                failure_policy="retry", chaos=chaos, retry_backoff=0.0
            ),
        )
        result = sim.run(rotated_chain(0.3))
        assert result.faults.retries == 3 * result.cache_misses > 0
        assert sleeps == []

    def test_a_local_run_starts_no_thread_or_process(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the local job loop started a worker")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(multiprocessing.Process, "start", refuse)
        chaos = ChaosSchedule(seed=3, crash_rate=0.4, exception_rate=0.3)
        sim = SuperSim(
            sampling=SamplingConfig(shots=200, seed=11),
            execution=ExecutionConfig(
                failure_policy="retry", chaos=chaos, retry_backoff=0.0
            ),
        )
        result = sim.run(rotated_chain(0.3))
        assert result.faults.crashes and result.faults.retries
        list(sim.sweep(rotated_chain, [0.1, 0.2]))

    def test_a_job_runner_replaces_the_local_loop(self, monkeypatch):
        executed = self._recording(monkeypatch)
        evaluator = evaluator_module.FragmentEvaluator(SamplingConfig(shots=50, seed=3))
        fragments = SuperSim().plan(rotated_chain(0.3)).cut_circuit.fragments
        handed = []

        def runner(jobs, faults):
            assert faults is evaluator.faults
            handed.extend(jobs)
            return {job.key: evaluator_module._execute_job(job) for job in jobs}

        data = evaluator.evaluate_all(fragments, job_runner=runner)
        assert len(data) == len(fragments)
        # the runner ran every job; the local loop ran none of its own
        assert len(executed) == len(handed) == evaluator.last_stats["cache_misses"]

    def test_the_fault_ledger_knows_no_pool(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultReport().record("pool_rebuild")
        assert not hasattr(FaultReport(), "pool_rebuilds")


class TestSweepSurvival:
    GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]

    def test_8_point_sweep_identical_under_faults(self):
        sampling = SamplingConfig(shots=300, seed=11)
        clean = list(SuperSim(sampling=sampling).sweep(rotated_chain, self.GRID))
        chaos = ChaosSchedule(seed=5, exception_rate=1.0, fail_attempts=1)
        chaotic = list(
            SuperSim(
                sampling=sampling,
                execution=ExecutionConfig(
                    failure_policy="retry", chaos=chaos, retry_backoff=0.0
                ),
            ).sweep(rotated_chain, self.GRID)
        )
        assert len(chaotic) == len(clean) == 8
        for a, b in zip(clean, chaotic):
            assert a.distribution.probs == b.distribution.probs
            # every executed (non-cached) job of this point faulted once
            assert b.result.faults.retries == b.result.cache_misses

    def test_failed_point_yields_error_and_sweep_continues(self):
        def factory(t):
            if t == 0.2:
                raise ValueError("bad grid point")
            return rotated_chain(t)

        sim = SuperSim(
            sampling=SamplingConfig(shots=100, seed=3),
            execution=ExecutionConfig(failure_policy="retry"),
        )
        points = list(sim.sweep(factory, [0.1, 0.2, 0.3]))
        assert [p.ok for p in points] == [True, False, True]
        assert isinstance(points[1].error, ValueError)
        assert points[1].result is None

    def test_failed_point_raises_under_default_policy(self):
        def factory(t):
            if t == 0.2:
                raise ValueError("bad grid point")
            return rotated_chain(t)

        sim = SuperSim(sampling=SamplingConfig(shots=100, seed=3))
        with pytest.raises(ValueError):
            list(sim.sweep(factory, [0.1, 0.2, 0.3]))

    def test_checkpoint_resume_skips_completed_points(self, tmp_path):
        sampling = SamplingConfig(shots=200, seed=11)
        reference = list(SuperSim(sampling=sampling).sweep(rotated_chain, self.GRID))
        ckpt = tmp_path / "sweep.ckpt"

        first = SuperSim(sampling=sampling)
        partial = []
        for point in first.sweep(rotated_chain, self.GRID, checkpoint=str(ckpt)):
            partial.append(point)
            if len(partial) == 3:
                break  # interrupted mid-sweep

        resumed = list(
            SuperSim(sampling=sampling).sweep(
                rotated_chain, self.GRID, checkpoint=str(ckpt)
            )
        )
        assert [p.skipped for p in resumed] == [True] * 3 + [False] * 5
        for ref, point in zip(reference[3:], resumed[3:]):
            assert point.distribution.probs == ref.distribution.probs

    def test_run_many_survives_failures(self):
        circuits = [rotated_chain(0.1), "not a circuit", rotated_chain(0.3)]
        sim = SuperSim(
            sampling=SamplingConfig(shots=100, seed=3),
            execution=ExecutionConfig(failure_policy="retry"),
        )
        with pytest.warns(RuntimeWarning, match="run_many circuit 1"):
            results = list(sim.run_many(circuits))
        assert results[1] is None
        assert results[0] is not None and results[2] is not None
