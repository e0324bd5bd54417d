"""End-to-end tests: cut + evaluate + reconstruct == uncut simulation.

This is the core correctness claim of the framework (paper §V): SuperSim
"does not rely on any approximations; its only source of inaccuracy is
statistical error from sampling".  In exact mode the reconstructed
distribution must match dense simulation to floating-point accuracy.
"""

import numpy as np
import pytest

from repro.analysis import hellinger_fidelity
from repro.circuits import (
    Circuit,
    gates,
    inject_t_gates,
    random_clifford_circuit,
    random_near_clifford_circuit,
)
from repro.core import (
    Cut,
    CutConfig,
    CutStrategy,
    ExecutionConfig,
    SamplingConfig,
    SuperSim,
)
from repro.statevector import StatevectorSimulator

SV = StatevectorSimulator()
EXACT = SuperSim()


def assert_matches_statevector(circuit, sim=EXACT, tol=1e-9):
    expected = SV.probabilities(circuit)
    result = sim.run(circuit)
    fidelity = hellinger_fidelity(expected, result.distribution)
    assert fidelity > 1 - tol, (fidelity, result.cut_circuit)
    return result


class TestExactReconstruction:
    def test_mid_wire_t(self):
        c = Circuit(3)
        c.append(gates.H, 0).append(gates.CX, 0, 1)
        c.append(gates.T, 1)
        c.append(gates.CX, 1, 2).append(gates.H, 2)
        result = assert_matches_statevector(c)
        assert result.num_cuts == 2
        assert result.num_fragments == 3

    def test_no_cut_clifford(self):
        c = random_clifford_circuit(4, 5, rng=0)
        result = assert_matches_statevector(c)
        assert result.num_cuts == 0

    def test_t_on_plus(self):
        c = Circuit(1).append(gates.H, 0).append(gates.T, 0)
        # T is trailing: one cut between H and T
        assert_matches_statevector(c)

    def test_t_then_h(self):
        # T first (no cut before), then Clifford tail (one cut after)
        c = Circuit(1).append(gates.T, 0).append(gates.H, 0)
        # |0> is a Z eigenstate so T acts trivially; use |+> input instead
        c2 = Circuit(2).append(gates.H, 0).append(gates.T, 0)
        c2.append(gates.H, 0).append(gates.CX, 0, 1)
        assert_matches_statevector(c)
        assert_matches_statevector(c2)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_near_clifford_one_t(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        c = inject_t_gates(random_clifford_circuit(n, int(rng.integers(2, 6)), rng),
                           1, rng)
        assert_matches_statevector(c)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_near_clifford_two_t(self, seed):
        rng = np.random.default_rng(100 + seed)
        c = random_near_clifford_circuit(4, 4, num_non_clifford=2, rng=rng)
        assert_matches_statevector(c)

    @pytest.mark.parametrize("seed", range(4))
    def test_non_t_rotations(self, seed):
        rng = np.random.default_rng(200 + seed)
        c = random_clifford_circuit(3, 3, rng)
        c.append(gates.ZPow(0.3), int(rng.integers(3)))
        assert_matches_statevector(c)

    def test_two_qubit_non_clifford_gate(self):
        c = Circuit(3)
        for q in range(3):
            c.append(gates.H, q)
        c.append(gates.ZZPow(0.25), 0, 1)
        c.append(gates.CX, 1, 2)
        assert_matches_statevector(c)

    def test_measured_subset(self):
        c = Circuit(3)
        c.append(gates.H, 0).append(gates.CX, 0, 1).append(gates.T, 1)
        c.append(gates.CX, 1, 2)
        c.measure([0, 2])
        expected = SV.probabilities(c)
        got = EXACT.run(c).distribution
        assert hellinger_fidelity(expected, got) > 1 - 1e-9

    def test_greedy_merge_strategy(self):
        c = Circuit(3)
        c.append(gates.H, 0).append(gates.CX, 0, 1)
        c.append(gates.T, 1)
        c.append(gates.CX, 1, 2).append(gates.H, 2)
        sim = SuperSim(cut=CutConfig(strategy=CutStrategy.GREEDY_MERGE))
        assert_matches_statevector(c, sim=sim)

    def test_user_cuts(self):
        c = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1).append(gates.H, 1)
        result = EXACT.run(c, cuts=[Cut(1, 1)])
        expected = SV.probabilities(c)
        assert hellinger_fidelity(expected, result.distribution) > 1 - 1e-9
        assert result.num_cuts == 1

    def test_max_cuts_guard(self):
        sim = SuperSim(cut=CutConfig(max_cuts=1))
        c = Circuit(2)
        c.append(gates.H, 0).append(gates.T, 0).append(gates.H, 0)
        c.append(gates.H, 1).append(gates.T, 1).append(gates.H, 1)
        with pytest.raises(ValueError):
            sim.run(c)


class TestWideCircuits:
    def test_ghz_with_t_at_40_qubits(self):
        """Beyond statevector reach: check marginals analytically."""
        n = 40
        c = Circuit(n).append(gates.H, 0)
        for q in range(n - 1):
            c.append(gates.CX, q, q + 1)
        c = inject_t_gates(c, 1, rng=5)
        marginals = EXACT.single_qubit_marginals(c)
        # GHZ marginals are 50/50 on every qubit, T only adds phase on a
        # Z-basis-diagonal location or rotates one qubit's reduced state,
        # which stays 50/50 for the diagonal T
        assert marginals.shape == (n, 2)
        assert np.all(marginals >= -1e-9)
        assert np.allclose(marginals.sum(axis=1), 1.0, atol=1e-9)

    def test_marginals_match_statevector_when_small(self):
        rng = np.random.default_rng(7)
        c = inject_t_gates(random_clifford_circuit(5, 4, rng), 1, rng)
        expected = SV.probabilities(c).single_bit_marginals()
        got = EXACT.single_qubit_marginals(c)
        assert np.allclose(got, expected, atol=1e-8)


class TestSampledMode:
    def test_sampled_reconstruction_close(self):
        rng = np.random.default_rng(11)
        c = inject_t_gates(random_clifford_circuit(4, 4, rng), 1, rng)
        sim = SuperSim(sampling=SamplingConfig(shots=4000, seed=1))
        expected = SV.probabilities(c)
        result = sim.run(c)
        assert hellinger_fidelity(expected, result.distribution) > 0.95

    def test_tomography_improves_or_matches(self):
        rng = np.random.default_rng(13)
        c = Circuit(3)
        c.append(gates.H, 0).append(gates.CX, 0, 1).append(gates.T, 1)
        c.append(gates.CX, 1, 2)
        expected = SV.probabilities(c)
        plain = SuperSim(sampling=SamplingConfig(shots=300, seed=2)).run(c).distribution
        refined = SuperSim(
            sampling=SamplingConfig(shots=300, seed=2, tomography=True)
        ).run(c).distribution
        f_plain = hellinger_fidelity(expected, plain)
        f_refined = hellinger_fidelity(expected, refined)
        assert f_refined > 0.9
        # refinement should not catastrophically hurt
        assert f_refined > f_plain - 0.05

    def test_clifford_fragments_take_no_shots(self):
        rng = np.random.default_rng(17)
        c = inject_t_gates(random_clifford_circuit(4, 3, rng), 1, rng)
        plan = SuperSim(sampling=SamplingConfig(shots=2000, seed=3)).plan(c)
        for fragment, mode in zip(plan.cut_circuit.fragments, plan.fragment_modes):
            assert mode == ("exact" if fragment.is_clifford else "sampled")
        expected = SV.probabilities(c)
        result = plan.execute()
        assert hellinger_fidelity(expected, result.distribution) > 0.9


class TestSectionNineOptimizations:
    def test_zero_terms_are_pruned(self):
        c = Circuit(3)
        c.append(gates.H, 0).append(gates.CX, 0, 1).append(gates.T, 1)
        c.append(gates.CX, 1, 2)
        result = EXACT.run(c)
        # stabilizer fragments have many zero Pauli expectations
        assert result.stats.terms_skipped > 0
        assert result.stats.terms_total == 4**result.num_cuts

    def test_pruning_does_not_change_answer(self):
        rng = np.random.default_rng(23)
        c = inject_t_gates(random_clifford_circuit(4, 4, rng), 1, rng)
        with_prune = SuperSim(execution=ExecutionConfig(prune_zeros=True)).run(c).distribution
        without = SuperSim(execution=ExecutionConfig(prune_zeros=False)).run(c).distribution
        assert hellinger_fidelity(with_prune, without) > 1 - 1e-9


class TestResultMetadata:
    def test_timings_present(self):
        c = Circuit(1).append(gates.H, 0)
        result = EXACT.run(c)
        fixed = {
            "cut",
            "evaluate",
            "tomography",
            "reconstruct",
            "cache_hits",
            "cache_misses",
        }
        assert fixed <= set(result.timings)
        extras = set(result.timings) - fixed
        # per-kernel attribution entries, one per kernel that ran
        assert all(key.startswith("kernel.") for key in extras)
        assert all(
            isinstance(v, float) and v >= 0.0 for v in result.timings.values()
        )

    def test_variant_count(self):
        c = Circuit(3)
        c.append(gates.H, 0).append(gates.CX, 0, 1).append(gates.T, 1)
        c.append(gates.CX, 1, 2).append(gates.H, 2)
        result = EXACT.run(c)
        # fragments: upstream (1 q-out): 3 variants; T (1 in, 1 out): 12;
        # downstream (1 q-in): 4
        assert result.num_variants == 19

    def test_probability_of(self):
        c = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        c.append(gates.T, 1)
        p = EXACT.probability_of(c, [0, 0])
        assert np.isclose(p, 0.5, atol=1e-9)


class TestExpectationAPI:
    def test_matches_statevector(self):
        from repro.paulis import PauliString

        rng = np.random.default_rng(31)
        c = inject_t_gates(random_clifford_circuit(4, 4, rng), 1, rng)
        for label in ("ZZII", "XIXI", "IYYI"):
            pauli = PauliString.from_label(label)
            assert np.isclose(
                EXACT.expectation(c, pauli), SV.expectation(c, pauli), atol=1e-8
            )

    def test_wide_circuit_expectation(self):
        from repro.circuits import ghz_circuit
        from repro.paulis import PauliString

        n = 50
        c = ghz_circuit(n)
        c.append(gates.T, n - 1)
        zz = PauliString.from_label("ZZ" + "I" * (n - 2))
        assert np.isclose(EXACT.expectation(c, zz), 1.0, atol=1e-9)
