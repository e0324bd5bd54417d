"""Tests for the Aaronson-Gottesman tableau simulator."""

import numpy as np
import pytest

from repro.analysis import Distribution, hellinger_fidelity
from repro.circuits import Circuit, gates, random_clifford_circuit
from repro.circuits.circuit import Operation
from repro.paulis import PauliString
from repro.stabilizer import StabilizerSimulator, Tableau
from repro.core.evaluator import FragmentData
from repro.core.fragments import Fragment
from repro.core.tomography import build_conditioned_fragment_tensor
from repro.stabilizer.tableau import PauliMap, _compile_ops, compile_clifford_layers
from repro.statevector import StatevectorSimulator

STAB = StabilizerSimulator()
SV = StatevectorSimulator()


class TestGateAction:
    def test_initial_stabilizers(self):
        t = Tableau(2)
        labels = [p.label() for p in t.stabilizers()]
        assert labels == ["ZI", "IZ"]

    def test_h_maps_z_to_x(self):
        t = Tableau(1)
        t.h(0)
        assert t.stabilizers()[0] == PauliString.from_label("X")

    def test_s_on_plus_gives_y_stabilizer(self):
        t = Tableau(1)
        t.h(0)
        t.s(0)
        assert t.stabilizers()[0] == PauliString.from_label("Y")

    def test_bell_stabilizers(self):
        t = Tableau(2)
        t.h(0)
        t.cx(0, 1)
        stabs = {p.label(): p.phase for p in t.stabilizers()}
        assert set(stabs) == {"XX", "ZZ"}
        assert all(phase == 0 for phase in stabs.values())

    def test_x_gate_flips_sign(self):
        t = Tableau(1)
        t.x_gate(0)
        assert t.stabilizers()[0].phase == 2  # -Z

    def test_non_clifford_rejected(self):
        with pytest.raises(ValueError):
            STAB.run(Circuit(1).append(gates.T, 0))

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            Tableau(2).apply_circuit(Circuit(3))

    def test_layers_of_a_narrower_circuit(self):
        """A program runs on the wires it names; a wire past the tableau is
        refused."""
        body = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1).append(gates.S, 1)
        layers = compile_clifford_layers(body)
        wide, expected = Tableau(3), Tableau(3)
        wide.h(2)
        expected.h(2)
        wide.apply_layers(layers)
        expected.apply_circuit(Circuit(3, body.ops))
        for got, want in ((wide.x, expected.x), (wide.z, expected.z)):
            assert np.array_equal(got, want)
        assert np.array_equal(wide.sign, expected.sign)
        with pytest.raises(ValueError, match="qubit 1 of a 1-qubit"):
            Tableau(1).apply_layers(layers)


    @pytest.mark.parametrize(
        "program",
        [
            [("H", -1)],
            [("H", 3)],
            [("S", 0), ("CX", 1, -1)],
            [("H", 1), ("CX", 3, 0)],
            [("X", -3)],
            _compile_ops([Operation(gates.SX, (-1,))]),
        ],
    )
    def test_a_qubit_outside_the_tableau_leaves_it_untouched(self, program):
        """Any qubit outside ``[0, n)`` is refused, negative ones too (a
        list or a numpy fancy index would wrap them onto the last wires),
        and the refusal comes before the tableau changes."""
        tableau = Tableau(3)
        tableau.h(0)
        tableau.cx(0, 2)
        tableau.s(1)
        before = tableau.copy()
        with pytest.raises(ValueError, match="of a 3-qubit tableau"):
            tableau.apply_layers(program)
        for got, want in (
            (tableau.x, before.x),
            (tableau.z, before.z),
            (tableau.sign, before.sign),
        ):
            assert np.array_equal(got, want)


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
        rng = np.random.default_rng(0)
        circuit = random_clifford_circuit(5, 6, rng)
        tableau = STAB.run(circuit)
        for stab in tableau.stabilizers():
            assert tableau.expectation(stab) == 1


class TestMeasurement:
    def test_deterministic_zero(self):
        t = Tableau(1)
        assert t.measure(0, rng=0) == 0

    def test_deterministic_one(self):
        t = Tableau(1)
        t.h(0)
        t.s(0)
        t.s(0)
        t.h(0)  # = X up to phase
        assert t.measure(0, rng=0) == 1

    def test_random_then_repeatable(self):
        rng = np.random.default_rng(1)
        t = Tableau(1)
        t.h(0)
        first = t.measure(0, rng)
        for _ in range(5):
            assert t.measure(0, rng) == first

    def test_bell_correlations(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            t = Tableau(2)
            t.h(0)
            t.cx(0, 1)
            a = t.measure(0, rng)
            b = t.measure(1, rng)
            assert a == b

    def test_ghz_randomness(self):
        rng = np.random.default_rng(3)
        outcomes = set()
        for _ in range(30):
            t = Tableau(3)
            t.h(0)
            t.cx(0, 1)
            t.cx(1, 2)
            bits = tuple(t.measure(q, rng) for q in range(3))
            outcomes.add(bits)
        assert outcomes == {(0, 0, 0), (1, 1, 1)}


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
