"""Tests for gate definitions, Clifford detection, and decompositions."""

import numpy as np
import pytest

from repro.circuits import Circuit, gates


def phase_equal(a: np.ndarray, b: np.ndarray, atol=1e-9) -> bool:
    """True when a == e^{i phi} b for some global phase phi."""
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < atol:
        return np.allclose(a, b, atol=atol)
    ratio = a[idx] / b[idx]
    if abs(abs(ratio) - 1) > 1e-7:
        return False
    return np.allclose(a, ratio * b, atol=atol)


CLIFFORD_GATES = [
    gates.I, gates.X, gates.Y, gates.Z, gates.H, gates.S, gates.SDG,
    gates.SX, gates.SXDG, gates.CX, gates.CY, gates.CZ, gates.SWAP,
]
NON_CLIFFORD_GATES = [gates.T, gates.TDG, gates.ZPow(0.25), gates.ZPow(0.1),
                      gates.XPow(0.3), gates.Rz(0.7), gates.ZZPow(0.25)]


class TestCliffordDetection:
    @pytest.mark.parametrize("gate", CLIFFORD_GATES, ids=lambda g: g.name)
    def test_named_cliffords(self, gate):
        # force the numeric check rather than trusting the constructor flag
        fresh = gates.Gate(gate.name, gate.matrix, gate.params)
        assert fresh.is_clifford

    @pytest.mark.parametrize("gate", NON_CLIFFORD_GATES, ids=repr)
    def test_non_cliffords(self, gate):
        fresh = gates.Gate(gate.name, gate.matrix, gate.params)
        assert not fresh.is_clifford

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 1.5, 2.0, -0.5])
    def test_zpow_clifford_points(self, t):
        assert gates.ZPow(t).is_clifford
        assert gates.XPow(t).is_clifford
        assert gates.YPow(t).is_clifford
        assert gates.ZZPow(t).is_clifford


class TestPowGateMemo:
    """``_pow_gate`` hands out one immutable gate per (family, exponent)."""

    @pytest.mark.parametrize("factory", [gates.ZPow, gates.XPow, gates.YPow,
                                         gates.ZZPow, gates.CZPow],
                             ids=lambda f: f.__name__)
    def test_same_exponent_same_object(self, factory):
        assert factory(0.5) is factory(0.5)
        assert factory(1) is factory(1.0)
        assert factory(0.3) is not factory(0.30000000000000004)
        assert factory(0.3) != factory(0.7)
        assert factory(0.3).params == (0.3,) and factory(0.7).params == (0.7,)

    def test_families_do_not_collide(self):
        assert gates.ZPow(0.5) is not gates.XPow(0.5)
        assert gates.ZPow(0.5).name == "ZP" and gates.XPow(0.5).name == "XP"

    def test_signed_zero_keeps_its_parameter_bytes(self):
        # 0.0 == -0.0, but the two fingerprint differently
        assert str(gates.ZPow(0.0).params[0]) == "0.0"
        assert str(gates.ZPow(-0.0).params[0]) == "-0.0"

    def test_signed_zeros_are_different_gates(self):
        """Gate identity is the name and the params' exact bits, as the
        fingerprint says: ``0.0 == -0.0`` as floats, not as gates, and an
        op on one is not an op on the other."""
        from repro.circuits.circuit import Operation

        plus, minus = gates.ZPow(0.0), gates.ZPow(-0.0)
        assert plus != minus and not plus == minus
        assert len({plus, minus}) == 2
        assert {plus: "+", minus: "-"}[gates.ZPow(-0.0)] == "-"
        fresh = gates.Gate("ZP", minus.matrix, (-0.0,))
        assert fresh == minus and hash(fresh) == hash(minus) and fresh != plus
        assert gates.Rz(-0.0) != gates.Rz(0.0) and gates.Rz(0.3) == gates.Rz(0.3)
        assert gates.ZPow(0.3) != gates.XPow(0.3)
        on_plus, on_minus = Operation(plus, (0,)), Operation(minus, (0,))
        assert on_plus != on_minus and len({on_plus, on_minus}) == 2
        assert Operation(fresh, (0,)) == on_minus
        assert {on_plus: 1, on_minus: 2}[Operation(fresh, (0,))] == 2

    def test_signed_zeros_keep_their_own_cached_steps(self):
        from repro.stabilizer.tableau import _gate_element, _gate_steps

        for gate in (gates.ZPow(0.0), gates.ZPow(-0.0), gates.XPow(-0.0)):
            assert _gate_element(gate) == 0  # the identity, spelled as nothing
        assert _gate_steps(gates.ZPow(0.0)) == _gate_steps(gates.ZPow(-0.0)) == ()
        assert _gate_steps(gates.XPow(-0.0)) == (("H", 0), ("H", 0))

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.5, 0.25, 0.1])
    def test_memoised_gate_equals_a_fresh_one(self, t):
        for factory in (gates.ZPow, gates.XPow, gates.YPow):
            memo = factory(t)
            fresh = gates.Gate(memo.name, memo.matrix, memo.params)
            assert memo.is_clifford == fresh.is_clifford
            assert not memo.matrix.flags.writeable


class TestMatrices:
    def test_zpow_quarter_is_t(self):
        assert np.allclose(gates.ZPow(0.25).matrix, gates.T.matrix)

    def test_zpow_half_is_s(self):
        assert np.allclose(gates.ZPow(0.5).matrix, gates.S.matrix)

    def test_xpow_one_is_x_up_to_phase(self):
        assert phase_equal(gates.XPow(1.0).matrix, gates.X.matrix)

    def test_ypow_one_is_y_up_to_phase(self):
        assert phase_equal(gates.YPow(1.0).matrix, gates.Y.matrix)

    def test_zzpow_diagonal(self):
        m = gates.ZZPow(0.5).matrix
        assert np.allclose(m, np.diag([1, 1j, 1j, 1]))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            gates.Gate("BAD", np.array([[1, 1], [0, 1]], dtype=complex))

    def test_sx_squares_to_x(self):
        assert phase_equal(gates.SX.matrix @ gates.SX.matrix, gates.X.matrix)


class TestDecompositions:
    @pytest.mark.parametrize("gate", CLIFFORD_GATES, ids=lambda g: g.name)
    def test_fixed_gates(self, gate):
        decomp = gate.stabilizer_decomposition()
        circuit = Circuit(gate.num_qubits)
        table = {"H": gates.H, "S": gates.S, "CX": gates.CX}
        for name, wires in decomp:
            circuit.append(table[name], *wires)
        assert phase_equal(circuit.unitary(), gate.matrix), gate.name

    @pytest.mark.parametrize("factory", [gates.ZPow, gates.XPow, gates.YPow,
                                         gates.ZZPow],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 1.5, -0.5, 2.5])
    def test_pow_gates(self, factory, t):
        gate = factory(t)
        decomp = gate.stabilizer_decomposition()
        circuit = Circuit(gate.num_qubits)
        table = {"H": gates.H, "S": gates.S, "CX": gates.CX}
        for name, wires in decomp:
            circuit.append(table[name], *wires)
        assert phase_equal(circuit.unitary(), gate.matrix), (factory.__name__, t)

    def test_non_clifford_raises(self):
        with pytest.raises(ValueError):
            gates.T.stabilizer_decomposition()
        with pytest.raises(ValueError):
            gates.ZPow(0.25).stabilizer_decomposition()


class TestInverse:
    @pytest.mark.parametrize(
        "gate",
        CLIFFORD_GATES + NON_CLIFFORD_GATES,
        ids=repr,
    )
    def test_inverse_matrix(self, gate):
        inv = gate.inverse()
        assert np.allclose(inv.matrix @ gate.matrix, np.eye(2**gate.num_qubits),
                           atol=1e-9)

    def test_t_inverse_name(self):
        assert gates.T.inverse().name == "TDG"
        assert gates.TDG.inverse().name == "T"

    def test_s_inverse_name(self):
        assert gates.S.inverse().name == "SDG"
