"""Dense statevector simulator.

The exact reference backend: stores all ``2^n`` amplitudes, so it is the
ground truth for every other simulator's tests and the "SV simulator"
baseline of the paper's Figs. 1, 3, 6 and 7.  Memory grows as ``2^n``; the
simulator refuses circuits wider than ``max_qubits`` (default 26).
"""

from __future__ import annotations

import numpy as np

from repro._tensor import apply_matrix_to_axes
from repro.analysis.distributions import Distribution
from repro.circuits.circuit import Circuit
from repro.paulis.pauli import PauliString


class StatevectorSimulator:
    """Exact simulation by dense state evolution."""

    name = "statevector"

    def __init__(self, max_qubits: int = 26):
        self.max_qubits = max_qubits

    def state(
        self, circuit: Circuit, initial_state: np.ndarray | None = None
    ) -> np.ndarray:
        """Final state as a flat array of ``2^n`` amplitudes (qubit 0 = MSB)."""
        n = circuit.n_qubits
        if n > self.max_qubits:
            raise ValueError(
                f"{n} qubits exceeds statevector limit of {self.max_qubits}"
            )
        if initial_state is None:
            psi = np.zeros((2,) * n, dtype=complex)
            psi[(0,) * n] = 1.0
        else:
            psi = np.asarray(initial_state, dtype=complex).reshape((2,) * n).copy()
        for gate, qubits in circuit.pairs():
            psi = apply_matrix_to_axes(psi, gate.matrix, qubits)
        return psi.reshape(-1)

    def probabilities(self, circuit: Circuit) -> Distribution:
        """Exact outcome distribution over the circuit's measured qubits."""
        n = circuit.n_qubits
        psi = self.state(circuit).reshape((2,) * n)
        probs = np.abs(psi) ** 2
        measured = circuit.measured_qubits
        drop = tuple(q for q in range(n) if q not in measured)
        if drop:
            probs = probs.sum(axis=drop)
        return Distribution.from_array(probs.reshape(-1))

    def sample(
        self,
        circuit: Circuit,
        shots: int,
        rng: np.random.Generator | int | None = None,
    ) -> Distribution:
        """Empirical distribution from ``shots`` samples (a sampler, per §VI)."""
        return self.probabilities(circuit).resample(shots, rng)

    def expectation(self, circuit: Circuit, pauli: PauliString) -> float:
        """Exact ``<psi| P |psi>`` of the final state (must be real)."""
        if pauli.n != circuit.n_qubits:
            raise ValueError("Pauli width does not match circuit")
        psi = self.state(circuit)
        phi = psi.reshape((2,) * circuit.n_qubits)
        for q in range(pauli.n):
            label = pauli.label()[q]
            if label == "I":
                continue
            from repro.circuits import gates

            mat = {"X": gates.X, "Y": gates.Y, "Z": gates.Z}[label].matrix
            phi = apply_matrix_to_axes(phi, mat, (q,))
        value = np.vdot(psi, phi.reshape(-1)) * pauli.scalar()
        return float(value.real)
