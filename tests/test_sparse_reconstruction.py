"""Tests for sparse reconstruction: fragment tensors on their supports."""

import numpy as np
import pytest

from repro.analysis import hellinger_fidelity
from repro.apps.qec import near_clifford_phase_code
from repro.circuits import Circuit, gates, inject_t_gates, random_clifford_circuit
from repro.core import SamplingConfig, SuperSim
from repro.statevector import StatevectorSimulator

SV = StatevectorSimulator()
EXACT = SuperSim()


class TestSparseMatchesDense:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_near_clifford(self, seed):
        rng = np.random.default_rng(seed)
        c = inject_t_gates(random_clifford_circuit(4, 4, rng), 1, rng)
        dense = EXACT.run(c).distribution
        sparse = EXACT.sparse_probabilities(c)
        assert hellinger_fidelity(dense, sparse) > 1 - 1e-9

    def test_matches_statevector(self):
        rng = np.random.default_rng(100)
        c = inject_t_gates(random_clifford_circuit(5, 4, rng), 1, rng)
        expected = SV.probabilities(c)
        sparse = EXACT.sparse_probabilities(c)
        assert hellinger_fidelity(expected, sparse) > 1 - 1e-9

    def test_measured_subset(self):
        c = Circuit(3).append(gates.H, 0).append(gates.CX, 0, 1)
        c.append(gates.T, 1).append(gates.CX, 1, 2).measure([0, 2])
        expected = SV.probabilities(c)
        sparse = EXACT.sparse_probabilities(c)
        assert hellinger_fidelity(expected, sparse) > 1 - 1e-9


class TestSparseAtScale:
    def test_repetition_code_at_41_qubits(self):
        """Far beyond any dense 2^n object: distance-21 phase code."""
        circuit = near_clifford_phase_code(21, num_t=1, rng=0)
        assert circuit.n_qubits == 41
        dist = EXACT.sparse_probabilities(circuit)
        assert np.isclose(dist.total(), 1.0, atol=1e-6)
        # noiseless code: the all-zero record dominates (T only adds phase
        # or a small rotation)
        assert dist[0] > 0.4

    def test_ghz_with_t_sparse(self):
        n = 30
        c = Circuit(n).append(gates.H, 0)
        for q in range(n - 1):
            c.append(gates.CX, q, q + 1)
        c.append(gates.T, n - 1)
        dist = EXACT.sparse_probabilities(c)
        assert len(dist) == 2
        assert np.isclose(dist[0], 0.5, atol=1e-9)
        assert np.isclose(dist[2**n - 1], 0.5, atol=1e-9)

    @pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
    @pytest.mark.parametrize("t_at", ["middle", "last"])
    @pytest.mark.parametrize("n", [70, 100])
    def test_ghz_with_t_past_one_key_word(self, n, t_at, sampled):
        """More than 62 kept bits: supports and outcomes in chunked keys."""
        c = Circuit(n).append(gates.H, 0)
        for q in range(n - 1):
            c.append(gates.CX, q, q + 1)
        c.append(gates.T, n // 2 if t_at == "middle" else n - 1)
        sim = SuperSim(sampling=SamplingConfig(shots=2000, seed=3)) if sampled else EXACT
        dist = sim.sparse_probabilities(c)
        assert dist.n_bits == n and dist.chunked
        # shot noise on the cut may leave a few light cross terms as well
        heaviest = sorted(dist, key=lambda kv: -kv[1])[:2]
        assert sorted(outcome for outcome, _p in heaviest) == [0, 2**n - 1]
        assert len(dist) == 2 or sampled
        assert dist.total() == pytest.approx(1.0, abs=1e-9)
        tolerance = 0.05 if sampled else 1e-9
        assert dist[0] == pytest.approx(0.5, abs=tolerance)
        assert dist[2**n - 1] == pytest.approx(0.5, abs=tolerance)

    def test_support_guard(self):
        rng = np.random.default_rng(3)
        c = inject_t_gates(random_clifford_circuit(24, 8, rng), 1, rng)
        with pytest.raises(ValueError):
            EXACT.sparse_probabilities(c, max_support=16)

    def test_sampled_sparse(self):
        circuit = near_clifford_phase_code(6, num_t=1, rng=1)
        sim = SuperSim(sampling=SamplingConfig(shots=3000, seed=2))
        dist = sim.sparse_probabilities(circuit)
        exact = EXACT.sparse_probabilities(circuit)
        assert hellinger_fidelity(exact, dist) > 0.9
