"""High-level stabilizer simulator facade (the framework's Stim).

Besides the facade, this module reads a whole noiseless Clifford fragment
at once (:meth:`StabilizerSimulator.pauli_map`): one backward walk of its
body gives the images every variant's tomography is read from.
:meth:`StabilizerSimulator.run` and
:meth:`StabilizerSimulator.affine_distribution` share none of it: they
evolve one circuit from |0...0>.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.distributions import Distribution
from repro.circuits.circuit import Circuit
from repro.paulis.pauli import PauliString
from repro.stabilizer.tableau import AffineOutcomeDistribution, PauliMap, Tableau


class StabilizerSimulator:
    """Clifford-circuit simulation with Stim-like capabilities.

    * exact output distributions (affine-subspace form, any width),
    * fast multi-shot sampling,
    * exact Pauli expectations in {-1, 0, +1}.

    Pauli-frame noisy sampling is :class:`~repro.stabilizer.frames.FrameSampler`.

    Backed by the bit-packed word-parallel tableau
    (:mod:`repro.stabilizer.tableau`): a circuit runs as one walk of its
    gate program over int columns of all ``2n`` rows, a few big-int ops
    per gate, and measurement costs ``n^2/64`` word ops.
    """

    name = "stabilizer"

    def run(self, circuit: Circuit) -> Tableau:
        """Evolve |0...0> through the circuit; returns the final tableau."""
        tableau = Tableau(circuit.n_qubits)
        tableau.apply_circuit(circuit)
        return tableau

    def affine_distribution(self, circuit: Circuit) -> AffineOutcomeDistribution:
        """Exact outcome distribution in affine-subspace form: one symbolic
        measurement sweep of :meth:`run`'s tableau.

        Works at any width — this is what lets the framework evaluate
        Clifford circuits with hundreds of qubits exactly.
        """
        return self.run(circuit).measurement_distribution(circuit.measured_qubits)

    def pauli_map(
        self, body: Circuit, inputs: Sequence[int], outputs: Sequence[int]
    ) -> PauliMap:
        """Every variant of a Clifford fragment at once: the images of its
        body's backward walk (:class:`~repro.stabilizer.tableau.PauliMap`)."""
        return PauliMap(body, inputs, outputs)

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
