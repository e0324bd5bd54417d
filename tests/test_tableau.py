"""Tests for the Aaronson-Gottesman tableau simulator."""

import numpy as np
import pytest

from repro.analysis import Distribution, hellinger_fidelity
from repro.circuits import Circuit, gates, random_clifford_circuit
from repro.paulis import PauliString
from repro.errors import ReconstructionMemoryError
from repro.stabilizer import StabilizerSimulator
from repro.stabilizer._reference import ReferenceTableau
from repro.core.evaluator import FragmentData
from repro.core.fragments import Fragment
from repro.core.tomography import build_conditioned_fragment_tensor
from repro.stabilizer.tableau import PauliMap
from repro.statevector import StatevectorSimulator

STAB = StabilizerSimulator()
SV = StatevectorSimulator()


def _expectations(circuit, labels):
    return [STAB.expectation(circuit, PauliString.from_label(l)) for l in labels]


class TestGateAction:
    """Each gate's action, read as the expectations of the Paulis that
    stabilize the state it prepares."""

    def test_initial_stabilizers(self):
        assert _expectations(Circuit(2), ["ZI", "IZ", "XI", "IX"]) == [1, 1, 0, 0]

    def test_h_maps_z_to_x(self):
        assert _expectations(Circuit(1).append(gates.H, 0), ["X", "Z"]) == [1, 0]

    def test_s_on_plus_gives_y_stabilizer(self):
        circuit = Circuit(1).append(gates.H, 0).append(gates.S, 0)
        assert _expectations(circuit, ["Y", "X", "Z"]) == [1, 0, 0]

    def test_bell_stabilizers(self):
        circuit = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        assert _expectations(circuit, ["XX", "ZZ", "YY", "ZI"]) == [1, 1, -1, 0]

    def test_x_gate_flips_sign(self):
        assert _expectations(Circuit(1).append(gates.X, 0), ["Z"]) == [-1]

    def test_non_clifford_rejected(self):
        with pytest.raises(ValueError):
            STAB.affine_distribution(Circuit(1).append(gates.T, 0))

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            STAB.expectation(Circuit(3), PauliString.from_label("ZZ"))

    def test_non_hermitian_pauli(self):
        """``<iZ>`` would be ``i``: refused; ``<iX>`` on |0> is 0."""
        with pytest.raises(ValueError, match="non-Hermitian"):
            STAB.expectation(Circuit(1), PauliString.from_label("Z", phase=1))
        assert STAB.expectation(Circuit(1), PauliString.from_label("X", phase=1)) == 0


class TestAgainstStatevector:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_circuit_distribution(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        circuit = random_clifford_circuit(n, int(rng.integers(2, 8)), rng)
        exact = SV.probabilities(circuit)
        tableau_dist = STAB.probabilities(circuit)
        assert hellinger_fidelity(exact, tableau_dist) > 1 - 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_random_expectations(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 5))
        circuit = random_clifford_circuit(n, int(rng.integers(1, 7)), rng)
        for _ in range(8):
            label = "".join(rng.choice(list("IXYZ")) for _ in range(n))
            pauli = PauliString.from_label(label)
            expected = SV.expectation(circuit, pauli)
            got = STAB.expectation(circuit, pauli)
            assert got in (-1, 0, 1)
            assert np.isclose(got, expected, atol=1e-9), label

    @pytest.mark.parametrize("seed", range(6))
    def test_measured_subset(self, seed):
        rng = np.random.default_rng(200 + seed)
        circuit = random_clifford_circuit(4, 5, rng)
        keep = sorted(rng.choice(4, size=2, replace=False).tolist())
        circuit.measure(keep)
        exact = SV.probabilities(circuit)
        got = STAB.probabilities(circuit)
        assert hellinger_fidelity(exact, got) > 1 - 1e-9

    def test_all_stabilizer_expectations_are_plus_one(self):
        """The reference tableau's generators, phases included, read +1."""
        rng = np.random.default_rng(0)
        circuit = random_clifford_circuit(5, 6, rng)
        reference = ReferenceTableau(5)
        reference.apply_circuit(circuit)
        for stab in reference.stabilizers():
            assert STAB.expectation(circuit, stab) == 1


class TestMeasurement:
    """Z-basis readouts, off the affine outcome form."""

    def test_deterministic_zero(self):
        affine = STAB.affine_distribution(Circuit(1))
        assert affine.n_free == 0 and affine.b.tolist() == [False]

    def test_deterministic_one(self):
        circuit = Circuit(1)
        for gate in (gates.H, gates.S, gates.S, gates.H):  # = X up to phase
            circuit.append(gate, 0)
        affine = STAB.affine_distribution(circuit)
        assert affine.n_free == 0 and affine.b.tolist() == [True]

    def test_bell_correlations(self):
        circuit = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        bits = STAB.affine_distribution(circuit).sample_bits(200, rng=2)
        assert np.array_equal(bits[:, 0], bits[:, 1])
        assert 0 < bits[:, 0].sum() < 200

    def test_ghz_randomness(self):
        circuit = Circuit(3).append(gates.H, 0).append(gates.CX, 0, 1)
        circuit.append(gates.CX, 1, 2)
        bits = STAB.affine_distribution(circuit).sample_bits(30, rng=3)
        assert {tuple(row) for row in bits.astype(int).tolist()} == {
            (0, 0, 0),
            (1, 1, 1),
        }

    def test_nothing_measured(self):
        """No measured qubit: an empty form (the walk of no rows)."""
        affine = STAB.affine_distribution(Circuit(3).append(gates.H, 0).measure([]))
        assert affine.A.shape == (0, 0) and affine.b.shape == (0,)
        assert affine.to_distribution().n_bits == 0

    def test_too_many_free_bits_is_refused_before_enumerating(self, monkeypatch):
        """21 free bits past ``max_free=20``: the typed refusal, before a
        single key is enumerated."""
        from repro.stabilizer import tableau

        def enumerate_keys(*_args):
            raise AssertionError("enumerated past the limit")

        monkeypatch.setattr(tableau, "_affine_keys", enumerate_keys)
        circuit = Circuit(21)
        for q in range(21):
            circuit.append(gates.H, q)
        with pytest.raises(ReconstructionMemoryError, match="2\\^21 outcomes"):
            STAB.probabilities(circuit)


def _point_probability(circuit, bits) -> float:
    """P(outcome = bits): the point query of an uncut fragment's Pauli map
    (every bit pinned, nothing left open)."""
    n = circuit.n_qubits
    fragment = Fragment(index=0, circuit=circuit, circuit_outputs=[(q, q) for q in range(n)])
    data = FragmentData(fragment, {}, PauliMap(circuit, [], []))
    tensor = build_conditioned_fragment_tensor(data, [], dict(enumerate(bits)))
    return float(tensor.values.sum())


class TestAffineDistribution:
    def test_bell(self):
        circuit = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        affine = STAB.affine_distribution(circuit)
        assert affine.n_free == 1
        dist = affine.to_distribution()
        assert np.isclose(dist[0b00], 0.5)
        assert np.isclose(dist[0b11], 0.5)

    def test_probability_of(self):
        circuit = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        affine = STAB.affine_distribution(circuit)
        assert np.isclose(_point_probability(circuit, [0, 0]), 0.5)
        assert np.isclose(_point_probability(circuit, [1, 1]), 0.5)
        assert _point_probability(circuit, [0, 1]) == 0.0

    def test_marginals(self):
        circuit = Circuit(2).append(gates.H, 0)
        affine = STAB.affine_distribution(circuit)
        assert np.allclose(affine.marginal_distribution([0]).to_array(), [0.5, 0.5])
        assert np.allclose(affine.marginal_distribution([1]).to_array(), [1.0, 0.0])

    def test_sampling_matches_exact(self):
        rng = np.random.default_rng(4)
        circuit = random_clifford_circuit(4, 5, rng)
        exact = STAB.probabilities(circuit)
        sampled = STAB.sample(circuit, shots=20000, rng=rng)
        assert hellinger_fidelity(exact, sampled) > 0.99

    def test_deterministic_circuit(self):
        circuit = Circuit(2).append(gates.X, 1)
        affine = STAB.affine_distribution(circuit)
        assert affine.n_free == 0
        assert affine.to_distribution()[0b01] == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_probability_of_matches_statevector(self, seed):
        rng = np.random.default_rng(300 + seed)
        circuit = random_clifford_circuit(3, 5, rng)
        exact = SV.probabilities(circuit)
        affine = STAB.affine_distribution(circuit)
        for outcome in range(8):
            bits = [(outcome >> (2 - i)) & 1 for i in range(3)]
            got = _point_probability(circuit, bits)
            assert np.isclose(got, exact[outcome], atol=1e-9)


class TestLargeScale:
    def test_wide_ghz(self):
        n = 200
        circuit = Circuit(n).append(gates.H, 0)
        for q in range(n - 1):
            circuit.append(gates.CX, q, q + 1)
        affine = STAB.affine_distribution(circuit)
        bits = affine.sample_bits(50, rng=0)
        # every shot is all-zeros or all-ones
        assert np.all((bits.sum(axis=1) == 0) | (bits.sum(axis=1) == n))

    def test_wide_random_runs(self):
        circuit = random_clifford_circuit(120, 20, rng=7)
        affine = STAB.affine_distribution(circuit)
        bits = affine.sample_bits(10, rng=1)
        assert bits.shape == (10, 120)


class TestZeroRows:
    """A walk of no rows returns empty images, not a reshape error."""

    def test_heisenberg_images_of_no_rows(self):
        from repro.stabilizer.tableau import heisenberg_images

        circuit = random_clifford_circuit(70, 3, rng=0)
        empty = np.zeros((0, 2), dtype=np.uint64)
        x, z, sign = heisenberg_images(circuit, empty, empty)
        assert x.shape == z.shape == (0, 2) and sign.shape == (0,)

    def test_pauli_map_of_an_empty_body(self):
        images = PauliMap(Circuit(0), [], [])
        assert images.x.shape == images.z.shape == (0, 1)
        assert images.sign.shape == (0,)
        x, z = images.bits()
        assert x.shape == z.shape == (0, 0)
