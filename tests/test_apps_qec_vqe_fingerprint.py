"""Tests for the QEC, VQE/CAFQA, and fingerprinting applications."""

import numpy as np
import pytest

from repro.analysis import hellinger_fidelity
from repro.apps.fingerprint import (
    fingerprint_circuit,
    fingerprints_equal,
    incremental_update,
    near_clifford_fingerprint,
)
from repro.apps.hwea import HWEA
from repro.apps.qec import (
    decode_majority,
    logical_phase_error_rate,
    near_clifford_phase_code,
    phase_flip_repetition_code,
)
from repro.apps.vqe import (
    cafqa_search,
    energy,
    h2_hamiltonian,
    pauli_expectation,
    transverse_field_ising,
    Hamiltonian,
)
from repro.circuits import Circuit, gates
from repro.core import SuperSim
from repro.paulis import PauliString
from repro.stabilizer import StabilizerSimulator
from repro.statevector import StatevectorSimulator

SV = StatevectorSimulator()
STAB = StabilizerSimulator()


class TestRepetitionCode:
    def test_qubit_count(self):
        circuit = phase_flip_repetition_code(5)
        assert circuit.n_qubits == 9

    def test_is_clifford(self):
        assert phase_flip_repetition_code(4).is_clifford

    def test_distance_validation(self):
        with pytest.raises(ValueError):
            phase_flip_repetition_code(1)

    def test_noiseless_syndromes_trivial(self):
        """Without errors all ancillas read 0 and data reads |+> (X basis 0)."""
        circuit = phase_flip_repetition_code(3)
        dist = STAB.probabilities(circuit)
        assert dist[0] == 1.0

    def test_single_phase_flip_detected(self):
        d = 3
        circuit = Circuit(2 * d - 1)
        for q in range(d):
            circuit.append(gates.H, q)
        circuit.append(gates.Z, 1)  # inject a phase flip on data qubit 1
        base = phase_flip_repetition_code(d)
        # splice: prep + error + syndrome extraction of the base circuit
        circuit.extend(base.ops[d:])
        circuit.measure_all()
        dist = STAB.probabilities(circuit)
        (outcome,) = [k for k in dist.probs]
        bits = dist.bits(outcome)
        # both adjacent ancillas fire
        assert bits[d] == 1 and bits[d + 1] == 1

    def test_decoder_majority(self):
        assert decode_majority([0, 0, 0, 0, 0]) == 0
        assert decode_majority([1, 1, 0, 0, 0]) == 1  # d=3: two of three data

    def test_logical_error_rate_monotone(self):
        low = logical_phase_error_rate(3, 0.01, shots=4000, rng=0)
        high = logical_phase_error_rate(3, 0.2, shots=4000, rng=0)
        assert low < high

    def test_code_distance_helps_at_low_noise(self):
        p = 0.02
        d3 = logical_phase_error_rate(3, p, shots=20000, rng=1)
        d7 = logical_phase_error_rate(7, p, shots=20000, rng=1)
        assert d7 <= d3 + 0.01

    def test_near_clifford_instance(self):
        circuit = near_clifford_phase_code(3, num_t=1, rng=2)
        assert circuit.num_non_clifford == 1

    def test_supersim_matches_statevector(self):
        circuit = near_clifford_phase_code(3, num_t=1, rng=3)
        expected = SV.probabilities(circuit)
        got = SuperSim().run(circuit).distribution
        assert hellinger_fidelity(expected, got) > 1 - 1e-9


class TestHamiltonians:
    def test_tfim_terms(self):
        h = transverse_field_ising(3)
        assert len(h.terms) == 2 + 3

    def test_width_validation(self):
        with pytest.raises(ValueError):
            Hamiltonian(2, ((1.0, "XXX"),))

    def test_h2_ground_energy(self):
        """Exact diagonalisation of the textbook H2 Hamiltonian."""
        h = h2_hamiltonian()
        matrix = sum(c * p.to_matrix() for c, p in h.paulis())
        ground = float(np.linalg.eigvalsh(matrix)[0])
        assert np.isclose(ground, -1.8572750302023786, atol=1e-6)


class TestExpectations:
    def test_stabilizer_energy_fast_path(self):
        h = transverse_field_ising(3, j=1.0, h=0.0)
        circuit = Circuit(3)  # |000>: all ZZ terms +1
        assert np.isclose(energy(circuit, h), -2.0)

    def test_stabilizer_energy_is_every_term_at_once(self):
        """The fast path walks all terms together; each equals its own
        expectation, the identity term included."""
        circuit = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        h = h2_hamiltonian()
        one_by_one = sum(c * STAB.expectation(circuit, p) for c, p in h.paulis())
        assert energy(circuit, h) == pytest.approx(one_by_one, abs=0)
        assert np.isclose(energy(circuit, h, SV), one_by_one, atol=1e-9)

    def test_stabilizer_energy_of_an_empty_hamiltonian(self):
        assert energy(Circuit(2).append(gates.H, 0), Hamiltonian(2, ())) == 0.0

    def test_pauli_expectation_via_supersim(self):
        circuit = Circuit(2).append(gates.H, 0).append(gates.T, 0)
        circuit.append(gates.CX, 0, 1)
        pauli = PauliString.from_label("XX")
        expected = SV.expectation(circuit, pauli)
        got = pauli_expectation(circuit, pauli, SuperSim())
        assert np.isclose(got, expected, atol=1e-8)

    def test_pauli_expectation_identity(self):
        circuit = Circuit(1)
        assert pauli_expectation(circuit, PauliString.identity(1), SV) == 1.0

    @pytest.mark.parametrize("label", ["ZI", "IZ", "XX", "YY", "ZZ"])
    def test_expectation_backends_agree(self, label):
        circuit = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        pauli = PauliString.from_label(label)
        assert np.isclose(
            pauli_expectation(circuit, pauli, SV),
            STAB.expectation(circuit, pauli),
            atol=1e-9,
        )

    def test_energy_with_statevector_backend(self):
        h = h2_hamiltonian()
        circuit = Circuit(2)
        direct = sum(c * SV.expectation(circuit, p) for c, p in h.paulis())
        assert np.isclose(energy(circuit, h, SV), direct, atol=1e-9)


class TestCAFQA:
    def test_search_improves_h2(self):
        ansatz = HWEA(2, 1)
        h = h2_hamiltonian()
        rng = np.random.default_rng(0)
        start = rng.integers(0, 4, size=ansatz.num_parameters)
        e_start = energy(ansatz.clifford_circuit(start), h)
        steps, e_best = cafqa_search(ansatz, h, iterations=3, rng=1,
                                     initial_steps=start)
        assert e_best <= e_start + 1e-12
        # CAFQA on H2 reaches the Hartree-Fock-like Clifford minimum
        assert e_best < -1.0

    def test_search_returns_valid_steps(self):
        ansatz = HWEA(2, 1)
        steps, _ = cafqa_search(ansatz, h2_hamiltonian(), iterations=1, rng=2)
        assert steps.shape == (ansatz.num_parameters,)
        assert set(np.unique(steps)) <= {0, 1, 2, 3}

    def test_cafqa_energy_close_to_true_ground(self):
        """CAFQA gets within chemical-accuracy-ish distance for H2 (per [42])."""
        ansatz = HWEA(2, 2)
        _, e_best = cafqa_search(ansatz, h2_hamiltonian(), iterations=4, rng=3)
        assert e_best < -1.7


class TestFingerprinting:
    def test_equal_files_equal_fingerprints(self):
        a = fingerprint_circuit([1, 0, 1, 1], 4, seed=0)
        b = fingerprint_circuit([1, 0, 1, 1], 4, seed=0)
        assert fingerprints_equal(a, b)

    def test_different_files_differ(self):
        a = fingerprint_circuit([1, 0, 1, 1], 4, seed=0)
        b = fingerprint_circuit([1, 0, 0, 1], 4, seed=0)
        assert not fingerprints_equal(a, b)

    def test_incremental_matches_batch(self):
        batch = fingerprint_circuit([1, 0, 1], 4, seed=5)
        inc = fingerprint_circuit([1, 0], 4, seed=5)
        inc = incremental_update(inc, 1, seed=5)
        assert fingerprints_equal(batch, inc)

    def test_width_mismatch(self):
        a = fingerprint_circuit([1], 3, seed=0)
        b = fingerprint_circuit([1], 4, seed=0)
        assert not fingerprints_equal(a, b)

    def test_near_clifford_fingerprint_runs_on_supersim(self):
        circuit = near_clifford_fingerprint([1, 0], 3, num_t=1, seed=1)
        assert circuit.num_non_clifford == 1
        expected = SV.probabilities(circuit)
        got = SuperSim().run(circuit).distribution
        assert hellinger_fidelity(expected, got) > 1 - 1e-9

    def test_canonicalisation_invariant_to_generator_choice(self):
        # same state prepared by different circuits
        a = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        b = Circuit(2).append(gates.H, 1).append(gates.CX, 1, 0)
        assert fingerprints_equal(a, b)
