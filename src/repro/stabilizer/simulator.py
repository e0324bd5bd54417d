"""High-level stabilizer simulator facade (the framework's Stim).

Every readout is one backward walk of the circuit's gate program
(:mod:`repro.stabilizer.tableau`): the images of a few Pauli rows under
the Clifford circuit, read against |0...0>.  The outcome distribution and
the expectations of one circuit walk the rows they read; a noiseless
Clifford fragment (:meth:`StabilizerSimulator.pauli_map`) walks the rows
every variant's tomography is read from.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.distributions import Distribution
from repro.circuits.circuit import Circuit
from repro.paulis.pauli import PauliString
from repro.stabilizer.tableau import (
    AffineOutcomeDistribution,
    PauliMap,
    outcome_distribution,
    pauli_expectations,
)


class StabilizerSimulator:
    """Clifford-circuit simulation with Stim-like capabilities.

    * exact output distributions (affine-subspace form, any width),
    * fast multi-shot sampling,
    * exact Pauli expectations in {-1, 0, +1}.

    Pauli-frame noisy sampling is :class:`~repro.stabilizer.frames.FrameSampler`.

    Backed by the backward walk (:mod:`repro.stabilizer.tableau`): a
    circuit runs as one walk of its gate program over int columns of the
    rows a readout needs, a few big-int ops per gate, and the readout is
    GF(2) elimination over those rows.
    """

    name = "stabilizer"

    def affine_distribution(self, circuit: Circuit) -> AffineOutcomeDistribution:
        """Exact outcome distribution of the measured qubits in
        affine-subspace form, read off one walk of their ``Z`` rows.

        Works at any width — this is what lets the framework evaluate
        Clifford circuits with hundreds of qubits exactly.
        """
        return outcome_distribution(circuit, circuit.measured_qubits)

    def pauli_map(
        self, body: Circuit, inputs: Sequence[int], outputs: Sequence[int]
    ) -> PauliMap:
        """Every variant of a Clifford fragment at once: the images of its
        body's backward walk (:class:`~repro.stabilizer.tableau.PauliMap`)."""
        return PauliMap(body, inputs, outputs)

    def probabilities(self, circuit: Circuit, max_free: int = 20) -> Distribution:
        """Exact enumerated distribution; a support past ``2**max_free``
        raises :class:`~repro.errors.ReconstructionMemoryError`."""
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
        (value,) = pauli_expectations(circuit, [pauli])
        return value
