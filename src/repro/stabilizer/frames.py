"""Pauli-frame sampling of noisy Clifford circuits.

The frame technique (used by Stim) simulates ``shots`` noisy executions with
one noiseless reference simulation: each shot carries a Pauli *frame* —
the error accumulated so far — which is conjugated through the circuit's
Clifford gates and finally XORed into reference measurement outcomes.
Because this repository's circuit IR uses terminal measurement only, no
mid-circuit frame randomisation is needed: the reference outcomes are drawn
per shot from the exact affine outcome distribution, and a frame's X
component on a measured qubit flips that outcome bit.

The reference shots come from the circuit's exact affine outcome form,
read off its backward walk
(:func:`~repro.stabilizer.tableau.outcome_distribution`).  Frames advance
forward through the same gate walk: the circuit is compiled once (:func:`repro.stabilizer.tableau._compile_ops`) into one
gate program per stretch between noise-injection points, and the
``apply_layers`` kernel walks it over *shot-packed* int columns — column
``q`` of ``fx`` / ``fz`` is one Python int whose bit ``s`` is shot ``s``'s
X / Z frame bit on qubit ``q`` — ignoring the sign it returns (a frame's
sign never matters).  An injected error XORs one shot mask into a column.

Cost: a few big-int ops of ``shots`` bits per gate, so noisy sampling is
barely slower than noiseless sampling — the property that makes
stabilizer QEC studies cheap.
"""

from __future__ import annotations

import numpy as np

from repro import kernels as _kernels
from repro.analysis.distributions import Distribution
from repro.circuits.circuit import Circuit
from repro.stabilizer.noise import NoiseModel
from repro.stabilizer.tableau import (
    _bits_to_int,
    _compile_ops,
    _int_to_bits,
    outcome_distribution,
)


class FrameSampler:
    """Samples measurement outcomes of ``circuit`` under ``noise``."""

    def __init__(self, circuit: Circuit, noise: NoiseModel):
        if not circuit.is_clifford:
            raise ValueError("frame sampling requires a Clifford circuit")
        self.circuit = circuit
        self.noise = noise
        self._reference = outcome_distribution(circuit, circuit.measured_qubits)
        # pre-compile: one gate program between consecutive noise
        # injections, preserving the site order (and hence the rng stream)
        # of the one-op-at-a-time walk
        inject_at: dict[int, list] = {}
        for index, channel, qubits in noise.locations(circuit):
            inject_at.setdefault(index, []).append((channel, qubits))
        ops = circuit.ops
        self._segments: list[tuple[list, list]] = []
        start = 0
        for index in sorted(inject_at):
            end = min(index + 1, len(ops))
            self._segments.append((_compile_ops(ops[start:end]), inject_at[index]))
            start = end
        if start < len(ops):
            self._segments.append((_compile_ops(ops[start:]), []))

    def sample_bits(
        self, shots: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """(shots, n_measured) outcome bits."""
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        n = self.circuit.n_qubits
        fx = [0] * n
        fz = [0] * n

        def inject(channel, qubits):
            indices = channel.sample_indices(shots, rng)
            xm, zm = channel.xz_masks()
            for term in range(len(channel.terms)):
                mask = indices == term
                if not mask.any():
                    continue
                hit = _bits_to_int(mask)
                for w, q in enumerate(qubits):
                    if xm[term, w]:
                        fx[q] ^= hit
                    if zm[term, w]:
                        fz[q] ^= hit

        # noise *before* any gate is not modelled; walk segments injecting
        # after the ops they end on
        for program, sites in self._segments:
            _kernels.apply_layers(program, fx, fz, 0)
            for channel, qubits in sites:
                inject(channel, qubits)

        reference = self._reference.sample_bits(shots, rng)
        flips = np.zeros((len(self.circuit.measured_qubits), shots), dtype=bool)
        for row, q in enumerate(self.circuit.measured_qubits):
            flips[row] = _int_to_bits(fx[q], shots)
        return reference ^ flips.T

    def sample(
        self, shots: int, rng: np.random.Generator | int | None = None
    ) -> Distribution:
        return Distribution.from_bit_rows(self.sample_bits(shots, rng))
