"""Reference (byte-per-bit) Aaronson–Gottesman tableau.

The one forward stabilizer engine: one numpy ``bool`` per bit, one Python
call per gate, collapse and symbolic measurement by row products.  The
production engine in :mod:`repro.stabilizer.tableau` reads every readout
off a backward walk of the circuit and shares no code with this class;
it is kept as the oracle the property tests (and
``benchmarks/perf_smoke.py``) compare the walk's readouts against, bit
for bit.

Do not use this class in hot paths — it is deliberately unoptimised.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.paulis.pauli import PauliString
from repro.stabilizer.tableau import AffineOutcomeDistribution


class ReferenceTableau:
    """Stabilizer state of ``n`` qubits, one bool per tableau bit."""

    def __init__(self, n: int, max_symbols: int = 0):
        self.n = int(n)
        rows = 2 * self.n
        self.x = np.zeros((rows, self.n), dtype=bool)
        self.z = np.zeros((rows, self.n), dtype=bool)
        self.sign = np.zeros(rows, dtype=bool)
        # symbolic sign bits: sign of row i also includes (-1)^(sym[i] . f)
        self.sym = np.zeros((rows, max_symbols), dtype=bool)
        self.n_symbols = 0
        # destabilizer i = X_i ; stabilizer i = Z_i
        self.x[np.arange(self.n), np.arange(self.n)] = True
        self.z[self.n + np.arange(self.n), np.arange(self.n)] = True

    def copy(self) -> "ReferenceTableau":
        out = ReferenceTableau.__new__(ReferenceTableau)
        out.n = self.n
        out.x = self.x.copy()
        out.z = self.z.copy()
        out.sign = self.sign.copy()
        out.sym = self.sym.copy()
        out.n_symbols = self.n_symbols
        return out

    # -- gates ----------------------------------------------------------------

    def h(self, q: int) -> None:
        self.sign ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def s(self, q: int) -> None:
        self.sign ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def cx(self, c: int, t: int) -> None:
        self.sign ^= (
            self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ True)
        )
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def x_gate(self, q: int) -> None:
        self.sign ^= self.z[:, q]

    def z_gate(self, q: int) -> None:
        self.sign ^= self.x[:, q]

    def apply_operation(self, gate, qubits: tuple[int, ...]) -> None:
        name = gate.name
        if name == "X":
            self.x_gate(qubits[0])
        elif name == "Z":
            self.z_gate(qubits[0])
        elif name == "H":
            self.h(qubits[0])
        elif name == "S":
            self.s(qubits[0])
        elif name == "CX":
            self.cx(*qubits)
        else:
            for sub_name, wires in gate.stabilizer_decomposition():
                sub_qubits = tuple(qubits[w] for w in wires)
                if sub_name == "H":
                    self.h(sub_qubits[0])
                elif sub_name == "S":
                    self.s(sub_qubits[0])
                else:
                    self.cx(*sub_qubits)

    def apply_circuit(self, circuit: Circuit) -> None:
        if circuit.n_qubits != self.n:
            raise ValueError("circuit width does not match tableau")
        for op in circuit.ops:
            if not op.gate.is_clifford:
                raise ValueError(
                    f"non-Clifford gate {op.gate!r} cannot run on the tableau "
                    "simulator"
                )
            self.apply_operation(op.gate, op.qubits)

    # -- row products -----------------------------------------------------------

    def _multiply_rows_into(self, targets: np.ndarray, source: int) -> None:
        """Row_t <- Row_s * Row_t for every t in ``targets`` (vectorised).

        Phases: with rows R = (-1)^s i^(x.z) X^x Z^z, the product phase
        exponent (power of i) is
            t = x1.z1 + x2.z2 + 2*(z1.x2) + 2*s1 + 2*s2
        and the result sign is (t - x12.z12)/2 mod 2.  For stabilizer-group
        products the difference is always even; destabilizer rows may pick
        up an irrelevant half-phase which we truncate (their signs are never
        read).
        """
        if len(targets) == 0:
            return
        x1, z1 = self.x[source], self.z[source]
        x2, z2 = self.x[targets], self.z[targets]
        c1 = int(np.count_nonzero(x1 & z1))
        c2 = (x2 & z2).sum(axis=1)
        cross = (z1[None, :] & x2).sum(axis=1)
        new_x = x2 ^ x1[None, :]
        new_z = z2 ^ z1[None, :]
        c12 = (new_x & new_z).sum(axis=1)
        total = c1 + c2 + 2 * cross
        half = ((total - c12) % 4) >= 2
        self.sign[targets] = self.sign[targets] ^ self.sign[source] ^ half
        self.sym[targets] ^= self.sym[source][None, :]
        self.x[targets] = new_x
        self.z[targets] = new_z

    # -- measurement -----------------------------------------------------------

    def _grow_symbols(self) -> int:
        if self.n_symbols == self.sym.shape[1]:
            extra = np.zeros((2 * self.n, max(8, self.sym.shape[1])), dtype=bool)
            self.sym = np.concatenate([self.sym, extra], axis=1)
        index = self.n_symbols
        self.n_symbols += 1
        return index

    def measure(
        self, q: int, rng: np.random.Generator | int | None = None
    ) -> int:
        """Measure qubit ``q`` in the Z basis, collapsing the state."""
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        result = self._measure_impl(q, symbolic=False, rng=rng)
        return result

    def measure_symbolic(self, q: int) -> tuple[np.ndarray, bool]:
        """Measure qubit ``q`` symbolically (see the packed engine's docs)."""
        return self._measure_impl(q, symbolic=True, rng=None)

    def _measure_impl(self, q, symbolic, rng):
        stab = slice(self.n, 2 * self.n)
        anticommuting = np.flatnonzero(self.x[stab, q]) + self.n
        if len(anticommuting) > 0:
            p = int(anticommuting[0])
            others = np.flatnonzero(self.x[:, q])
            others = others[others != p]
            self._multiply_rows_into(others, p)
            # destabilizer p-n <- old stabilizer p ; stabilizer p <- +/- Z_q
            d = p - self.n
            self.x[d] = self.x[p]
            self.z[d] = self.z[p]
            self.sign[d] = self.sign[p]
            self.sym[d] = self.sym[p]
            self.x[p] = False
            self.z[p] = False
            self.z[p, q] = True
            self.sym[p] = False
            if symbolic:
                k = self._grow_symbols()
                self.sign[p] = False
                self.sym[p, k] = True
                coeffs = np.zeros(self.n_symbols, dtype=bool)
                coeffs[k] = True
                return coeffs, False
            outcome = int(rng.integers(2))
            self.sign[p] = bool(outcome)
            return outcome
        # deterministic: accumulate product of stabilizers indicated by
        # destabilizers that anticommute with Z_q
        rows = np.flatnonzero(self.x[: self.n, q]) + self.n
        acc_x = np.zeros(self.n, dtype=bool)
        acc_z = np.zeros(self.n, dtype=bool)
        acc_phase = 0  # power of i
        acc_sign = False
        acc_sym = np.zeros(self.sym.shape[1], dtype=bool)
        for r in rows:
            x2, z2 = self.x[r], self.z[r]
            cross = int(np.count_nonzero(acc_z & x2))
            acc_phase += int(np.count_nonzero(x2 & z2)) + 2 * cross
            acc_sign ^= bool(self.sign[r])
            acc_sym ^= self.sym[r]
            acc_x ^= x2
            acc_z ^= z2
        # the accumulated operator must be +/- Z_q
        c12 = int(np.count_nonzero(acc_x & acc_z))
        half = ((acc_phase - c12) % 4) >= 2
        sign = acc_sign ^ half
        if symbolic:
            coeffs = acc_sym[: self.n_symbols].copy()
            return coeffs, bool(sign)
        if acc_sym[: self.n_symbols].any():  # pragma: no cover - defensive
            raise RuntimeError("deterministic outcome depends on unresolved symbols")
        return int(sign)

    def measurement_distribution(
        self, qubits: tuple[int, ...]
    ) -> AffineOutcomeDistribution:
        """Exact Z-basis outcome distribution over ``qubits``.

        Collapses this tableau (work on a copy if it is still needed).
        """
        self.n_symbols = 0
        self.sym = np.zeros((2 * self.n, max(8, len(qubits))), dtype=bool)
        rows = []
        consts = []
        for q in qubits:
            coeffs, const = self.measure_symbolic(q)
            rows.append(coeffs)
            consts.append(const)
        k = self.n_symbols
        A = np.zeros((len(qubits), k), dtype=bool)
        for i, coeffs in enumerate(rows):
            A[i, : len(coeffs)] = coeffs
        return AffineOutcomeDistribution(A, np.array(consts, dtype=bool))

    # -- observables ------------------------------------------------------------

    def expectation(self, pauli: PauliString) -> int:
        """Exact ``<P>`` of the stabilizer state: always -1, 0, or +1."""
        if pauli.n != self.n:
            raise ValueError("Pauli width does not match tableau")
        if self.n_symbols:
            raise ValueError("expectation undefined after symbolic collapse")
        stab_x = self.x[self.n :]
        stab_z = self.z[self.n :]
        # anticommutation of P with each stabilizer generator
        anti = (
            (stab_x & pauli.z[None, :]).sum(axis=1)
            + (stab_z & pauli.x[None, :]).sum(axis=1)
        ) % 2
        if anti.any():
            return 0
        # P (up to sign) = product of stabilizers s_i over rows whose
        # destabilizer anticommutes with P
        destab_x = self.x[: self.n]
        destab_z = self.z[: self.n]
        select = (
            (destab_x & pauli.z[None, :]).sum(axis=1)
            + (destab_z & pauli.x[None, :]).sum(axis=1)
        ) % 2
        product = PauliString.identity(self.n)
        for i in np.flatnonzero(select):
            row = self.n + i
            product = product * self._row_pauli(row)
        if not (
            np.array_equal(product.x, pauli.x) and np.array_equal(product.z, pauli.z)
        ):
            raise AssertionError("stabilizer reconstruction failed")
        diff = (pauli.phase - product.phase) % 4
        if diff == 0:
            return 1
        if diff == 2:
            return -1
        raise ValueError("expectation of a non-Hermitian Pauli is not +/-1")

    def _row_pauli(self, row: int) -> PauliString:
        c = int(np.count_nonzero(self.x[row] & self.z[row]))
        phase = (c + 2 * int(self.sign[row])) % 4
        return PauliString(self.x[row], self.z[row], phase)

    def stabilizers(self) -> list[PauliString]:
        """The n stabilizer generators as phase-correct Pauli strings."""
        return [self._row_pauli(self.n + i) for i in range(self.n)]

    def destabilizers(self) -> list[PauliString]:
        return [self._row_pauli(i) for i in range(self.n)]
