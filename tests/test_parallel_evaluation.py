"""Tests for parallel fragment evaluation (paper §X)."""

import numpy as np
import pytest

from repro.analysis import hellinger_fidelity
from repro.circuits import inject_t_gates, random_clifford_circuit
from repro.core import ExecutionConfig, SamplingConfig, SuperSim
from repro.core.cutter import cut_circuit, find_cuts
from repro.core.evaluator import FragmentEvaluator
from repro.statevector import StatevectorSimulator

SV = StatevectorSimulator()


def workload(seed=0):
    rng = np.random.default_rng(seed)
    return inject_t_gates(random_clifford_circuit(5, 4, rng), 1, rng)


class TestParallelEvaluator:
    def test_parallel_exact_matches_serial(self):
        circuit = workload()
        cc = cut_circuit(circuit, find_cuts(circuit))
        serial = FragmentEvaluator(execution=ExecutionConfig(parallel=1))
        threaded = FragmentEvaluator(execution=ExecutionConfig(parallel=4))
        for fragment in cc.fragments:
            a = serial.evaluate(fragment)
            b = threaded.evaluate(fragment)
            assert set(a.results) == set(b.results)
            cols = list(range(fragment.n_qubits))
            for key in a.results:
                da = a.results[key].joint(cols)
                db = b.results[key].joint(cols)
                assert hellinger_fidelity(da, db) > 1 - 1e-12

    def test_parallel_supersim_matches_statevector(self):
        circuit = workload(3)
        sim = SuperSim(execution=ExecutionConfig(parallel=4))
        expected = SV.probabilities(circuit)
        got = sim.run(circuit).distribution
        assert hellinger_fidelity(expected, got) > 1 - 1e-9

    def test_parallel_sampled_runs(self):
        circuit = workload(5)
        sim = SuperSim(
            sampling=SamplingConfig(shots=2000, seed=1),
            execution=ExecutionConfig(parallel=3),
        )
        expected = SV.probabilities(circuit)
        got = sim.run(circuit).distribution
        assert hellinger_fidelity(expected, got) > 0.9

    def test_parallel_floor(self):
        # the config refuses what the evaluator used to clamp silently
        with pytest.raises(ValueError, match="parallel"):
            ExecutionConfig(parallel=0)
        with pytest.raises(ValueError, match="max_retries"):
            ExecutionConfig(max_retries=-1)
        evaluator = FragmentEvaluator(execution=ExecutionConfig(parallel=1))
        assert evaluator.execution.parallel == 1
