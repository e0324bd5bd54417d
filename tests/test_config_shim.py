"""Typed configs: :class:`CutConfig` / :class:`SamplingConfig` /
:class:`ExecutionConfig` are the configuration surface — validated,
immutable, and threaded through the evaluator and the apps layer.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis import hellinger_fidelity
from repro.circuits import Circuit, gates, inject_t_gates, random_clifford_circuit
from repro.core import (
    CutConfig,
    CutStrategy,
    ExecutionConfig,
    SamplingConfig,
    SuperSim,
)
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
        derived = base.replace(shots=200, snap_clifford=True)
        assert base.shots == 100 and derived.shots == 200
        assert derived.snap_clifford is True

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


class TestConfigThreading:
    def test_evaluator_from_configs(self):
        from repro.core import cut_circuit, find_cuts
        from repro.core.evaluator import FragmentEvaluator

        c = near_clifford(23)
        fragments = cut_circuit(c, find_cuts(c)).fragments
        evaluator = FragmentEvaluator.from_configs(
            SamplingConfig(shots=64, seed=0), ExecutionConfig(parallel=2)
        )
        assert evaluator.shots == 64
        assert evaluator.parallel == 2
        data = evaluator.evaluate_all(fragments)
        assert len(data) == len(fragments)

    def test_find_cuts_accepts_cut_config(self):
        from repro.core import find_cuts

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


class TestAppsAcceptConfigs:
    def test_vqe_energy_accepts_execution_config(self):
        from repro.apps.vqe import energy, transverse_field_ising
        from repro.circuits import ghz_circuit

        h = transverse_field_ising(3)
        c = ghz_circuit(3)
        via_config = energy(c, h, (ExecutionConfig(), SamplingConfig()))
        via_supersim = energy(c, h, SuperSim())
        assert np.isclose(via_config, via_supersim, atol=1e-9)

    def test_vqe_as_scorer_coercions(self):
        from repro.apps.vqe import as_scorer
        from repro.backends.base import Backend

        assert isinstance(as_scorer("statevector"), Backend)
        assert isinstance(as_scorer(ExecutionConfig()), SuperSim)
        assert isinstance(as_scorer(SamplingConfig(shots=10, seed=0)), SuperSim)
        sim = SuperSim()
        assert as_scorer(sim) is sim

    def test_qec_accepts_sampling_config(self):
        from repro.apps.qec import logical_phase_error_rate

        loose = logical_phase_error_rate(3, 0.05, shots=800, rng=0)
        typed = logical_phase_error_rate(
            3, 0.05, sampling=SamplingConfig(shots=800, seed=0)
        )
        assert loose == typed
        via_exec = logical_phase_error_rate(
            3,
            0.05,
            backend=ExecutionConfig(backend="stabilizer"),
            sampling=SamplingConfig(shots=800, seed=0),
        )
        assert via_exec == typed

    def test_qec_rejects_mixed_sampling_and_loose_kwargs(self):
        from repro.apps.qec import logical_phase_error_rate

        with pytest.raises(TypeError, match="not both"):
            logical_phase_error_rate(
                3, 0.05, shots=500, sampling=SamplingConfig(shots=800)
            )

    def test_qec_rejects_execution_config_with_unused_fields(self):
        # this entry point samples directly (no router/pool/cache), so a
        # config carrying those fields must fail loudly, not silently
        from repro.apps.qec import logical_phase_error_rate

        with pytest.raises(TypeError, match="only consumes"):
            logical_phase_error_rate(
                3, 0.05, backend=ExecutionConfig(backend="stabilizer", parallel=8)
            )

    def test_as_scorer_rejects_bad_config_tuples(self):
        from repro.apps.vqe import as_scorer

        with pytest.raises(TypeError, match="at most one"):
            as_scorer((ExecutionConfig(), ExecutionConfig()))
        # an empty tuple is not a config spec and passes through untouched
        assert as_scorer(()) == ()

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
