"""Gate definitions.

A :class:`Gate` couples a unitary matrix with a name, optional parameters,
and two derived facts used throughout the framework:

* ``is_clifford`` — detected *numerically* by checking that conjugation of
  every Pauli-group generator stays inside the Pauli group, so parameterised
  gates (e.g. ``ZPow(0.5)``) are classified correctly;
* ``stabilizer_decomposition()`` — a rewrite into the {H, S, CX} generator
  set consumed by the tableau and CH-form simulators.

Qubit-ordering convention: qubit 0 is the most significant bit of the
matrix index (big-endian), matching :meth:`PauliString.to_matrix`.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Sequence

import numpy as np

_SQ2 = math.sqrt(2.0)

_I2 = np.eye(2, dtype=complex)
_XM = np.array([[0, 1], [1, 0]], dtype=complex)
_YM = np.array([[0, -1j], [1j, 0]], dtype=complex)
_ZM = np.array([[1, 0], [0, -1]], dtype=complex)
_HM = np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2
_SM = np.diag([1, 1j]).astype(complex)
_PAULI_1Q = {"I": _I2, "X": _XM, "Y": _YM, "Z": _ZM}

# decompositions into (name, wires) with names in {"H", "S", "CX"},
# applied in circuit order (left gate first)
_DECOMPOSITIONS: dict[str, list[tuple[str, tuple[int, ...]]]] = {
    "I": [],
    "H": [("H", (0,))],
    "S": [("S", (0,))],
    "SDG": [("S", (0,))] * 3,
    "Z": [("S", (0,))] * 2,
    "X": [("H", (0,)), ("S", (0,)), ("S", (0,)), ("H", (0,))],
    "Y": [("S", (0,))] * 2 + [("H", (0,)), ("S", (0,)), ("S", (0,)), ("H", (0,))],
    "SX": [("H", (0,)), ("S", (0,)), ("H", (0,))],
    "SXDG": [("H", (0,)), ("S", (0,)), ("S", (0,)), ("S", (0,)), ("H", (0,))],
    "CX": [("CX", (0, 1))],
    "CZ": [("H", (1,)), ("CX", (0, 1)), ("H", (1,))],
    "CY": [("S", (1,)), ("S", (1,)), ("S", (1,)), ("CX", (0, 1)), ("S", (1,))],
    "SWAP": [("CX", (0, 1)), ("CX", (1, 0)), ("CX", (0, 1))],
}


def _kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def _pauli_basis(num_qubits: int):
    """Yield (label, matrix) over the full Pauli basis on ``num_qubits``."""
    labels = ["I", "X", "Y", "Z"]
    if num_qubits == 1:
        for a in labels:
            yield a, _PAULI_1Q[a]
        return
    for a in labels:
        for rest_label, rest in _pauli_basis(num_qubits - 1):
            yield a + rest_label, np.kron(_PAULI_1Q[a], rest)


def _matrix_is_clifford(matrix: np.ndarray, num_qubits: int) -> bool:
    """Check U P U^dag is a (phased) Pauli for every generator P."""
    dim = 2**num_qubits
    generators = []
    for q in range(num_qubits):
        for m in (_XM, _ZM):
            factors = [_I2] * num_qubits
            factors[q] = m
            generators.append(_kron_all(factors))
    basis = list(_pauli_basis(num_qubits))
    for gen in generators:
        image = matrix @ gen @ matrix.conj().T
        nonzero = 0
        for _, p in basis:
            coeff = np.trace(p.conj().T @ image) / dim
            if abs(coeff) > 1e-9:
                nonzero += 1
                if abs(abs(coeff) - 1.0) > 1e-9:
                    return False
        if nonzero != 1:
            return False
    return True


class Gate:
    """An immutable quantum gate (unitary + metadata)."""

    __slots__ = ("name", "params", "num_qubits", "_matrix", "_is_clifford")

    def __init__(
        self,
        name: str,
        matrix: np.ndarray,
        params: tuple[float, ...] = (),
        is_clifford: bool | None = None,
    ):
        matrix = np.asarray(matrix, dtype=complex)
        dim = matrix.shape[0]
        if matrix.shape != (dim, dim) or dim & (dim - 1):
            raise ValueError("gate matrix must be square with power-of-2 size")
        if not np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=1e-9):
            raise ValueError(f"gate {name!r} matrix is not unitary")
        self.name = name
        self.params = tuple(float(p) for p in params)
        self.num_qubits = dim.bit_length() - 1
        self._matrix = matrix
        self._matrix.setflags(write=False)
        self._is_clifford = is_clifford

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def is_clifford(self) -> bool:
        if self._is_clifford is None:
            self._is_clifford = _matrix_is_clifford(self._matrix, self.num_qubits)
        return self._is_clifford

    def stabilizer_decomposition(self) -> list[tuple[str, tuple[int, ...]]]:
        """Rewrite into {H, S, CX} gates (circuit order, wire indices).

        Raises ``ValueError`` for non-Clifford gates.
        """
        if self.name in _DECOMPOSITIONS:
            return list(_DECOMPOSITIONS[self.name])
        if self.name in ("ZP", "XP", "YP") and self.is_clifford:
            t = self.params[0] % 2.0
            steps = round(t / 0.5)
            s_chain = [("S", (0,))] * (steps % 4)
            if self.name == "ZP":
                return s_chain
            if self.name == "XP":
                return [("H", (0,))] + s_chain + [("H", (0,))]
            # YP: Y^t = S X^t Sdg, circuit order [SDG, H, S^k, H, S]
            return (
                [("S", (0,))] * 3
                + [("H", (0,))]
                + s_chain
                + [("H", (0,))]
                + [("S", (0,))]
            )
        if self.name == "CZP" and self.is_clifford:
            if round(self.params[0]) % 2 == 0:
                return []
            return list(_DECOMPOSITIONS["CZ"])
        if self.name == "ZZP" and self.is_clifford:
            # exp(-i pi t/2 Z x Z) up to phase: diag(1, w, w, 1) with
            # w = e^{i pi t}; Clifford t: decompose via CX . ZP(t)_1 . CX
            t = self.params[0] % 2.0
            steps = round(t / 0.5) % 4
            return (
                [("CX", (0, 1))]
                + [("S", (1,))] * steps
                + [("CX", (0, 1))]
            )
        if not self.is_clifford:
            raise ValueError(f"gate {self.name!r} is not Clifford")
        raise ValueError(
            f"no stabilizer decomposition registered for Clifford gate {self.name!r}"
        )

    def inverse(self) -> "Gate":
        inverses = {
            "S": "SDG",
            "SDG": "S",
            "T": "TDG",
            "TDG": "T",
            "SX": "SXDG",
            "SXDG": "SX",
        }
        if self.name in inverses:
            return Gate(
                inverses[self.name],
                self._matrix.conj().T,
                is_clifford=self._is_clifford,
            )
        if np.allclose(self._matrix, self._matrix.conj().T, atol=1e-12):
            return self
        if self.name in ("ZP", "XP", "YP", "ZZP"):
            return _pow_gate(self.name, -self.params[0])
        return Gate(
            self.name + "_DG", self._matrix.conj().T, self.params,
            is_clifford=self._is_clifford,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        return self.name == other.name and self.params == other.params

    def __hash__(self) -> int:
        return hash((self.name, self.params))

    def __repr__(self) -> str:
        if self.params:
            args = ", ".join(f"{p:g}" for p in self.params)
            return f"{self.name}({args})"
        return self.name


# -- fixed gates -----------------------------------------------------------

I = Gate("I", _I2, is_clifford=True)
X = Gate("X", _XM, is_clifford=True)
Y = Gate("Y", _YM, is_clifford=True)
Z = Gate("Z", _ZM, is_clifford=True)
H = Gate("H", _HM, is_clifford=True)
S = Gate("S", _SM, is_clifford=True)
SDG = Gate("SDG", _SM.conj().T, is_clifford=True)
T = Gate("T", np.diag([1, cmath.exp(1j * math.pi / 4)]), is_clifford=False)
TDG = Gate("TDG", np.diag([1, cmath.exp(-1j * math.pi / 4)]), is_clifford=False)
SX = Gate("SX", _HM @ _SM @ _HM, is_clifford=True)
SXDG = Gate("SXDG", _HM @ _SM.conj().T @ _HM, is_clifford=True)

CX = Gate(
    "CX",
    np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    is_clifford=True,
)
CY = Gate(
    "CY",
    np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]], dtype=complex
    ),
    is_clifford=True,
)
CZ = Gate("CZ", np.diag([1, 1, 1, -1]).astype(complex), is_clifford=True)
SWAP = Gate(
    "SWAP",
    np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    is_clifford=True,
)

#: All named single-qubit Clifford gates (useful for random circuits).
ONE_QUBIT_CLIFFORD_GATES = (I, X, Y, Z, H, S, SDG, SX, SXDG)


# -- parameterised gates -----------------------------------------------------


def _pow_gate(name: str, t: float) -> Gate:
    # keyed on the exponent's exact bits: 0.0 == -0.0 as floats, but the
    # two print, pickle and fingerprint differently
    return _build_pow_gate(name, float(t).hex())


@functools.lru_cache(maxsize=4096)
def _build_pow_gate(name: str, t_hex: str) -> Gate:
    """One immutable gate per (family, exponent): ansatz circuits ask for
    the same few exponents thousands of times, and building a gate costs a
    matrix product plus a unitarity check."""
    t = float.fromhex(t_hex)
    w = cmath.exp(1j * math.pi * t)
    if name == "ZP":
        matrix = np.diag([1, w]).astype(complex)
    elif name == "XP":
        matrix = _HM @ np.diag([1, w]) @ _HM
    elif name == "YP":
        v = _SM @ _HM
        matrix = v @ np.diag([1, w]) @ v.conj().T
    elif name == "ZZP":
        matrix = np.diag([1, w, w, 1]).astype(complex)
    elif name == "CZP":
        matrix = np.diag([1, 1, 1, w]).astype(complex)
    else:  # pragma: no cover - internal
        raise ValueError(name)
    if name == "CZP":
        # controlled-phase: Clifford only at full Z (t integer)
        clifford = abs(t - round(t)) < 1e-12
    else:
        clifford = abs((t * 2) - round(t * 2)) < 1e-12
    return Gate(name, matrix, params=(t,), is_clifford=clifford)


def ZPow(t: float) -> Gate:
    """``Z**t = diag(1, exp(i pi t))``; Clifford iff ``t`` is a multiple of 1/2.

    ``ZPow(0.25)`` is the T gate (up to name), ``ZPow(0.5)`` is S.
    """
    return _pow_gate("ZP", t)


def XPow(t: float) -> Gate:
    """``X**t`` (conjugate of ZPow by Hadamard)."""
    return _pow_gate("XP", t)


def YPow(t: float) -> Gate:
    """``Y**t``."""
    return _pow_gate("YP", t)


def ZZPow(t: float) -> Gate:
    """Ising coupling ``diag(1, w, w, 1)``, ``w = exp(i pi t)``.

    Equals ``exp(-i (pi t / 2) Z x Z)`` up to global phase; Clifford iff
    ``t`` is a multiple of 1/2.
    """
    return _pow_gate("ZZP", t)


def CZPow(t: float) -> Gate:
    """Controlled phase ``diag(1, 1, 1, exp(i pi t))``.

    ``CZPow(1)`` is CZ; other exponents are non-Clifford (QFT's workhorse).
    """
    return _pow_gate("CZP", t)


def Rz(theta: float) -> Gate:
    """Standard rotation ``exp(-i theta Z / 2)`` (differs from ZPow by phase)."""
    return Gate(
        "RZ",
        np.diag([cmath.exp(-1j * theta / 2), cmath.exp(1j * theta / 2)]),
        params=(theta,),
    )
