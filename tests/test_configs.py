"""Typed configs: :class:`CutConfig` / :class:`SamplingConfig` /
:class:`ExecutionConfig` are the configuration surface — validated,
immutable, and read field by field by ``SuperSim`` and the evaluator.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.analysis import hellinger_fidelity
from repro.backends import BackendRouter
from repro.backends.cache import VariantCache
from repro.circuits import inject_t_gates, random_clifford_circuit
from repro.core import (
    CutConfig,
    CutStrategy,
    ExecutionConfig,
    SamplingConfig,
    SuperSim,
    cut_circuit,
    find_cuts,
)
from repro.core.evaluator import FragmentEvaluator
from repro.core.lifecycle import FaultPolicy
from repro.statevector import StatevectorSimulator

SV = StatevectorSimulator()


def near_clifford(seed=0, n=4):
    rng = np.random.default_rng(seed)
    return inject_t_gates(random_clifford_circuit(n, 4, rng), 1, rng)


class TestConfigObjects:
    def test_configs_are_frozen(self):
        for config in (CutConfig(), SamplingConfig(), ExecutionConfig()):
            with pytest.raises(dataclasses.FrozenInstanceError):
                config.anything = 1

    def test_replace_helper(self):
        base = SamplingConfig(shots=100)
        derived = base.replace(shots=200, tomography=True)
        assert base.shots == 100 and derived.shots == 200
        assert derived.tomography is True and base.tomography is False

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(shots=0)
        with pytest.raises(ValueError):
            SamplingConfig(noise=object())  # noise needs finite shots
        with pytest.raises(ValueError):
            ExecutionConfig(pool="fibers")
        with pytest.raises(ValueError):
            ExecutionConfig(parallel=0)
        with pytest.raises(ValueError):
            CutConfig(max_cuts=-1)

    def test_supersim_rejects_non_config_arguments(self):
        # a stale positional call (the pre-pipeline signature was
        # SuperSim(shots, ...)) must fail at construction with a clear
        # message, not deep inside run() with an AttributeError
        with pytest.raises(TypeError, match="CutConfig"):
            SuperSim(4000)
        with pytest.raises(TypeError, match="SamplingConfig"):
            SuperSim(sampling=4000)
        with pytest.raises(TypeError, match="shots"):
            SuperSim(shots=4000)  # the flat-kwarg shim is gone

    def test_cut_config_accepts_strategy_string(self):
        assert CutConfig(strategy="greedy_merge").strategy is CutStrategy.GREEDY_MERGE

    def test_sampling_exact_flag(self):
        assert SamplingConfig().exact
        assert not SamplingConfig(shots=10).exact


def fragments_of(circuit):
    return cut_circuit(circuit, find_cuts(circuit)).fragments


class TestEvaluatorReadsConfigs:
    def test_settings_come_from_the_configs(self):
        fragments = fragments_of(near_clifford(23))
        sampling = SamplingConfig(shots=64, seed=0)
        execution = ExecutionConfig(
            parallel=2, failure_policy="retry", max_retries=5, retry_backoff=0.0
        )
        evaluator = FragmentEvaluator(sampling, execution)
        assert evaluator.sampling is sampling and evaluator.execution is execution
        assert evaluator.policy == FaultPolicy.of(execution)
        # execution.cache=True: a private cache; False: none
        assert isinstance(evaluator.cache, VariantCache)
        assert FragmentEvaluator(execution=ExecutionConfig(cache=False)).cache is None
        data = evaluator.evaluate_all(fragments)
        assert len(data) == len(fragments)
        assert evaluator.last_stats["workers"] == 2

    def test_from_configs_is_the_constructor(self):
        cache = VariantCache()
        sampling, execution = SamplingConfig(shots=8, seed=1), ExecutionConfig()
        evaluator = FragmentEvaluator.from_configs(sampling, execution, cache=cache)
        assert isinstance(evaluator, FragmentEvaluator)
        assert evaluator.cache is cache and evaluator.sampling is sampling

    def test_the_constructor_takes_two_configs_and_three_objects(self):
        params = list(inspect.signature(FragmentEvaluator).parameters)
        assert params == ["sampling", "execution", "cache", "assignments", "executor"]
        with pytest.raises(TypeError):
            FragmentEvaluator(shots=100)  # the flat-keyword constructor is gone

    def test_job_deadlines_follow_the_calibrated_cost(self):
        """``timeout = max(min_job_timeout, scored_cost * timeout_safety)``
        for a calibrated backend, none for an uncalibrated one, and an
        explicit ``job_timeout`` wins over both."""
        fragments = fragments_of(near_clifford(23))
        router = BackendRouter(cost_scales={"stabilizer": 0.01})
        seen = set()
        for floor in (0.0, 1e6):
            execution = ExecutionConfig(
                router=router, timeout_safety=7.0, min_job_timeout=floor
            )
            _, jobs = FragmentEvaluator(execution=execution)._build_jobs(fragments, 0)
            for job in jobs.values():
                seen.add(job.backend.name)
                if job.backend.name == "stabilizer":
                    # one job per Clifford fragment: its variants' deadlines
                    cost = router.scored_cost(job.backend, job.features, "exact")
                    variants = job.fragment.num_variants
                    assert job.timeout == max(floor, cost * 7.0) * variants
                else:
                    assert job.timeout is None
            explicit = FragmentEvaluator(execution=execution.replace(job_timeout=3.0))
            _, jobs = explicit._build_jobs(fragments, 0)
            assert {
                job.timeout / (job.fragment.num_variants if job.fragment else 1)
                for job in jobs.values()
            } == {3.0}
        assert seen == {"stabilizer", "statevector"}


    def test_sampled_mode_prices_clifford_deadlines_as_exact(self):
        """Statevector prices exact readout above sampling: a Clifford
        fragment, exact in every mode, gets the exact deadline."""
        fragments = fragments_of(near_clifford(23))
        router = BackendRouter(cost_scales={"statevector": 0.01})
        execution = ExecutionConfig(
            backend="statevector",
            router=router,
            timeout_safety=7.0,
            min_job_timeout=0.0,
        )
        sampling = SamplingConfig(shots=100, seed=0)
        _, jobs = FragmentEvaluator(sampling, execution)._build_jobs(fragments, 0)
        assert {job.fragment is not None for job in jobs.values()} == {True, False}
        for job in jobs.values():
            # a Clifford fragment is one job: the deadlines of its variants
            clifford = job.fragment is not None
            variants = job.fragment.num_variants if clifford else 1
            mode = "exact" if clifford else "sampled"
            cost = router.scored_cost(job.backend, job.features, mode)
            assert job.timeout == cost * 7.0 * variants
            other_mode = "sampled" if clifford else "exact"
            other = router.scored_cost(job.backend, job.features, other_mode)
            assert job.timeout != other * 7.0 * variants


class TestConfigThreading:
    def test_find_cuts_accepts_cut_config(self):
        c = near_clifford(25)
        by_enum = find_cuts(c, CutStrategy.ISOLATE)
        by_config = find_cuts(c, CutConfig(strategy=CutStrategy.ISOLATE))
        by_string = find_cuts(c, "isolate")
        assert by_enum == by_config == by_string

    def test_supersim_full_config_run(self):
        c = near_clifford(27)
        expected = SV.probabilities(c)
        sim = SuperSim(
            cut=CutConfig(strategy=CutStrategy.GREEDY_MERGE),
            sampling=SamplingConfig(),
            execution=ExecutionConfig(parallel=2, pool="thread"),
        )
        assert hellinger_fidelity(expected, sim.run(c).distribution) > 1 - 1e-9


class TestAppsTakeWhatTheyUse:
    def test_as_scorer_coercions(self):
        from repro.apps.vqe import as_scorer
        from repro.backends.base import Backend

        assert isinstance(as_scorer("statevector"), Backend)
        sim = SuperSim()
        assert as_scorer(sim) is sim

    def test_energy_through_a_configured_supersim(self):
        from repro.apps.vqe import energy, transverse_field_ising
        from repro.circuits import ghz_circuit

        h = transverse_field_ising(3)
        c = ghz_circuit(3)
        configured = SuperSim(execution=ExecutionConfig(backend="statevector"))
        assert np.isclose(energy(c, h, configured), energy(c, h, "statevector"))
        assert np.isclose(energy(c, h, SuperSim()), energy(c, h), atol=1e-9)

    def test_qec_takes_shots_rng_and_a_backend(self):
        from repro.apps.qec import logical_phase_error_rate
        from repro.backends import get_backend

        default = logical_phase_error_rate(3, 0.05, rng=0)
        assert default == logical_phase_error_rate(3, 0.05, shots=2000, rng=0)
        by_name = logical_phase_error_rate(3, 0.05, 800, 0, backend="stabilizer")
        by_instance = logical_phase_error_rate(
            3, 0.05, 800, 0, backend=get_backend("stabilizer")
        )
        assert by_name == by_instance

    def test_qec_takes_no_config(self):
        # it samples one circuit directly: no pipeline setting would apply
        from repro.apps.qec import logical_phase_error_rate

        with pytest.raises(TypeError):
            logical_phase_error_rate(3, 0.05, sampling=SamplingConfig(shots=800))
        with pytest.raises(KeyError, match="unknown backend"):
            logical_phase_error_rate(
                3, 0.05, backend=ExecutionConfig(backend="stabilizer")
            )

    def test_qaoa_expected_cut_from_correlations(self):
        from repro.apps.qaoa import (
            clifford_qaoa_circuit,
            expected_cut,
            expected_cut_from_correlations,
            sk_model,
        )

        n = 4
        couplings = sk_model(n, rng=0)
        circuit = clifford_qaoa_circuit(n, couplings)
        circuit.measure_all()
        reference = expected_cut(couplings, SV.probabilities(circuit))
        via_supersim = expected_cut_from_correlations(
            couplings, circuit, SuperSim()
        )
        via_default = expected_cut_from_correlations(couplings, circuit)
        assert np.isclose(via_supersim, reference, atol=1e-8)
        assert np.isclose(via_default, reference, atol=1e-8)
