"""High-level stabilizer simulator facade (the framework's Stim)."""

from __future__ import annotations

import numpy as np

from repro.analysis.distributions import Distribution
from repro.circuits.circuit import Circuit
from repro.paulis.pauli import PauliString
from repro.stabilizer.frames import FrameSampler
from repro.stabilizer.noise import NoiseModel
from repro.stabilizer.tableau import (
    PREPEND_GATES,
    AffineOutcomeDistribution,
    Tableau,
)


class StabilizerSimulator:
    """Clifford-circuit simulation with Stim-like capabilities.

    * exact output distributions (affine-subspace form, any width),
    * fast multi-shot sampling,
    * exact Pauli expectations in {-1, 0, +1},
    * Pauli-frame noisy sampling.

    Backed by the bit-packed word-parallel tableau
    (:mod:`repro.stabilizer.tableau`): circuits run as fused same-gate
    layers over ``uint64``-packed generator rows, so gate cost scales as
    ``n/64`` per layer column and measurement as ``n^2/64``.
    """

    name = "stabilizer"

    def run(self, circuit: Circuit) -> Tableau:
        """Evolve |0...0> through the circuit; returns the final tableau.

        A circuit around a shared body (:meth:`Circuit.shared_body` — the
        variants of one fragment) evolves the body once: its tableau is
        kept, read-only, on the body object, and each circuit copies it,
        composes its state-preparation gates in front
        (:meth:`Tableau.prepend`) and applies its trailing gates.  Prefix
        gates ``prepend`` does not know fall back to plain evolution.
        """
        shared = circuit.shared_body()
        if shared is not None:
            body, start, stop = shared
            prefix = circuit.ops[:start]
            if all(op.gate.name in PREPEND_GATES for op in prefix):
                derived = body.derived()
                evolved = derived.get("tableau")
                if evolved is None:
                    evolved = Tableau(body.n_qubits)
                    evolved.apply_circuit(body)
                    derived["tableau"] = evolved
                tableau = evolved.copy()
                for op in reversed(prefix):
                    tableau.prepend(op.gate.name, op.qubits[0])
                for op in circuit.ops[stop:]:
                    tableau.apply_operation(op.gate, op.qubits)
                return tableau
        tableau = Tableau(circuit.n_qubits)
        tableau.apply_circuit(circuit)
        return tableau

    def affine_distribution(self, circuit: Circuit) -> AffineOutcomeDistribution:
        """Exact outcome distribution in affine-subspace form.

        Works at any width — this is what lets the framework evaluate
        Clifford fragments with hundreds of qubits exactly.
        """
        return self.run(circuit).measurement_distribution(circuit.measured_qubits)

    def probabilities(self, circuit: Circuit, max_free: int = 20) -> Distribution:
        """Exact enumerated distribution (support must be <= 2**max_free)."""
        return self.affine_distribution(circuit).to_distribution(max_free)

    def sample(
        self,
        circuit: Circuit,
        shots: int,
        rng: np.random.Generator | int | None = None,
    ) -> Distribution:
        return self.affine_distribution(circuit).sample(shots, rng)

    def expectation(self, circuit: Circuit, pauli: PauliString) -> int:
        """Exact <P> of the final state: -1, 0, or +1 (paper §IX)."""
        return self.run(circuit).expectation(pauli)

    def sample_noisy(
        self,
        circuit: Circuit,
        noise: NoiseModel,
        shots: int,
        rng: np.random.Generator | int | None = None,
    ) -> Distribution:
        """Noisy sampling via Pauli-frame propagation."""
        return FrameSampler(circuit, noise).sample(shots, rng)
