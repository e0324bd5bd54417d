"""Tests for the circuit IR."""

import numpy as np
import pytest

from repro.circuits import (
    Circuit,
    Operation,
    gates,
    inject_t_gates,
    random_clifford_circuit,
    random_near_clifford_circuit,
)
from repro.circuits.gates import Gate


class TestConstruction:
    def test_append_chain(self):
        c = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        assert len(c) == 2
        assert c.ops[1].qubits == (0, 1)

    def test_out_of_range(self):
        # through append, extend and the constructor; negative and >= n
        message = r"out of range for 2 qubits"
        for qubit in (-1, 2, 5):
            with pytest.raises(ValueError, match=message):
                Circuit(2).append(gates.H, qubit)
            with pytest.raises(ValueError, match=message):
                Circuit(2).append(gates.CX, 0, qubit)
            with pytest.raises(ValueError, match=message):
                Circuit(2).extend([Operation(gates.H, (qubit,))])
            with pytest.raises(ValueError, match=message):
                Circuit(2, [Operation(gates.CX, (qubit, 1))])

    def test_repeated_qubits(self):
        with pytest.raises(ValueError, match=r"repeated qubit in \(1, 1\)"):
            Circuit(2).append(gates.CX, 1, 1)
        ccz = Gate("CCZ", np.diag([1, 1, 1, 1, 1, 1, 1, -1]))
        assert Circuit(3).append(ccz, 2, 0, 1).ops[0].qubits == (2, 0, 1)
        for qubits in [(0, 1, 0), (0, 0, 1), (2, 1, 1)]:
            with pytest.raises(ValueError, match=r"repeated qubit in \("):
                Operation(ccz, qubits)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match=r"acts on 2 qubits, got \(0,\)"):
            Circuit(2).append(gates.CX, 0)
        with pytest.raises(ValueError, match=r"acts on 1 qubits, got \(0, 1\)"):
            Operation(gates.H, [0, 1])

    def test_numpy_integer_qubits_are_stored_as_int(self):
        c = Circuit(3).append(gates.CX, np.int64(2), np.int32(0))
        c.append(gates.H, np.uint8(1))
        assert c.ops[0].qubits == (2, 0)
        assert all(type(q) is int for op in c.ops for q in op.qubits)

    def test_a_zero_qubit_gate_appends(self):
        phase = Gate("PHASE", np.array([[1j]]))
        assert Circuit(1).append(phase).ops[0].qubits == ()

    def test_measure_defaults_to_all(self):
        c = Circuit(3)
        assert c.measured_qubits == (0, 1, 2)
        assert not c.has_explicit_measurements

    def test_measure_subset(self):
        c = Circuit(3).measure([2, 0])
        assert c.measured_qubits == (0, 2)
        assert c.has_explicit_measurements

    def test_bad_measurement(self):
        with pytest.raises(ValueError):
            Circuit(2).measure([3])


class TestQueries:
    def test_depth(self):
        c = Circuit(3)
        c.append(gates.H, 0).append(gates.H, 1).append(gates.CX, 0, 1)
        c.append(gates.H, 2)
        assert c.depth == 2

    def test_clifford_flags(self):
        c = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        assert c.is_clifford
        c.append(gates.T, 1)
        assert not c.is_clifford
        assert c.non_clifford_indices == [2]
        assert c.num_non_clifford == 1

    def test_gate_counts(self):
        c = Circuit(2).append(gates.H, 0).append(gates.H, 1).append(gates.CX, 0, 1)
        assert c.gate_counts() == {"H": 2, "CX": 1}


class TestUnitary:
    def test_bell_circuit(self):
        c = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        u = c.unitary()
        state = u[:, 0]
        expected = np.zeros(4, dtype=complex)
        expected[0b00] = expected[0b11] = 1 / np.sqrt(2)
        assert np.allclose(state, expected)

    def test_qubit_order_convention(self):
        # X on qubit 0 of 2 flips the most significant bit
        c = Circuit(2).append(gates.X, 0)
        u = c.unitary()
        state = u[:, 0]
        assert np.isclose(state[0b10], 1.0)

    def test_nonadjacent_gate(self):
        c = Circuit(3).append(gates.CX, 2, 0)
        u = c.unitary()
        # control = qubit 2 (LSB), target = qubit 0 (MSB)
        state = u[:, 0b001]
        assert np.isclose(state[0b101], 1.0)

    def test_matches_kron_composition(self):
        rng = np.random.default_rng(0)
        c = random_clifford_circuit(3, 4, rng)
        u = c.unitary()
        assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-9)


class TestTransformations:
    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(5)
        c = random_near_clifford_circuit(3, 3, 2, rng)
        ident = (c + c.inverse()).unitary()
        assert np.allclose(ident / ident[0, 0], np.eye(8), atol=1e-8)

    def test_map_qubits(self):
        c = Circuit(2).append(gates.CX, 0, 1).measure([1])
        mapped = c.map_qubits({0: 2, 1: 0}, 3)
        assert mapped.ops[0].qubits == (2, 0)
        assert mapped.measured_qubits == (0,)

    def test_add(self):
        a = Circuit(2).append(gates.H, 0)
        b = Circuit(2).append(gates.CX, 0, 1)
        c = a + b
        assert len(c) == 2

    def test_add_mismatch(self):
        with pytest.raises(ValueError):
            Circuit(2) + Circuit(3)

    def test_copy_independent(self):
        a = Circuit(2).append(gates.H, 0)
        b = a.copy()
        b.append(gates.H, 1)
        assert len(a) == 1 and len(b) == 2

    def test_slicing(self):
        c = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1).append(gates.H, 1)
        assert len(c[:2]) == 2
        assert isinstance(c[0], Operation)


class TestRandomGenerators:
    def test_random_clifford_is_clifford(self):
        c = random_clifford_circuit(6, 6, rng=1)
        assert c.is_clifford
        assert c.n_qubits == 6

    def test_inject_t(self):
        base = random_clifford_circuit(4, 4, rng=2)
        injected = inject_t_gates(base, 3, rng=3)
        assert injected.num_non_clifford == 3
        assert len(injected) == len(base) + 3
        # base circuit unchanged
        assert base.num_non_clifford == 0

    def test_near_clifford_count(self):
        c = random_near_clifford_circuit(5, 5, num_non_clifford=2, rng=4)
        assert c.num_non_clifford == 2

    def test_determinism(self):
        a = random_clifford_circuit(5, 5, rng=42)
        b = random_clifford_circuit(5, 5, rng=42)
        assert [op.gate.name for op in a] == [op.gate.name for op in b]
        assert [op.qubits for op in a] == [op.qubits for op in b]
