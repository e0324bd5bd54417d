"""Phase-flip repetition code (paper §IV-A, §VI-B; SupermarQ-style).

The phase code protects against Z errors: data qubits are prepared in |+>,
and each adjacent pair's X xX parity is extracted onto an ancilla.  One
round of syndrome extraction plus an X-basis data readout is the circuit the
paper benchmarks in Fig. 7 (with one injected T gate).  The circuit
generates very little entanglement — which is exactly why the MPS simulator
wins on this benchmark while the extended stabilizer's sampler collapses.

Qubit layout for distance ``d``: data qubits ``0..d-1``, ancillas
``d..2d-2`` (ancilla ``d+i`` checks data ``i`` and ``i+1``).
"""

from __future__ import annotations

import numpy as np

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.circuits.random import inject_t_gates
from repro.stabilizer.noise import NoiseModel, PauliChannel


def phase_flip_repetition_code(distance: int, measure_data: bool = True) -> Circuit:
    """One round of the distance-``d`` phase code (2d-1 qubits)."""
    if distance < 2:
        raise ValueError("distance must be at least 2")
    d = distance
    n = 2 * d - 1
    circuit = Circuit(n)
    for q in range(d):
        circuit.append(gates.H, q)  # data in |+>
    for i in range(d - 1):
        ancilla = d + i
        # measure X_i X_{i+1}: Hadamard ancilla, CX from ancilla to data
        circuit.append(gates.H, ancilla)
        circuit.append(gates.CX, ancilla, i)
        circuit.append(gates.CX, ancilla, i + 1)
        circuit.append(gates.H, ancilla)
    if measure_data:
        for q in range(d):
            circuit.append(gates.H, q)  # X-basis readout of data
    circuit.measure_all()
    return circuit


def near_clifford_phase_code(
    distance: int,
    num_t: int = 1,
    rng: np.random.Generator | int | None = None,
) -> Circuit:
    """The Fig. 7 benchmark: one phase-code round with injected T gates."""
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    return inject_t_gates(phase_flip_repetition_code(distance), num_t, rng)


def decode_majority(syndrome_bits) -> int:
    """Decode a phase-code readout: majority vote over corrected data bits.

    ``syndrome_bits`` is the full measurement record
    ``(data 0..d-1 in X basis, ancillas d..2d-2)``; returns the decoded
    logical X-basis bit (0 = |+>_L).
    """
    bits = list(syndrome_bits)
    d = (len(bits) + 1) // 2
    data = bits[:d]
    ones = sum(data)
    return int(ones > d // 2)


def logical_phase_error_rate(
    distance: int,
    phase_flip_probability: float,
    shots: int = 2000,
    rng: np.random.Generator | int | None = None,
    backend="stabilizer",
) -> float:
    """Monte-Carlo logical error rate of one noisy phase-code round.

    Z (phase-flip) noise is applied after every gate via Pauli-frame
    sampling; a run is a logical error when majority decoding of the X-basis
    data readout returns 1 (the encoded state was |+>_L, i.e. all-|+>).

    The uncut circuit is sampled ``shots`` times directly, seeded by
    ``rng``, through ``backend`` — a registered backend name or instance
    that supports noisy sampling (``capabilities.supports_noise``); the
    default is the stabilizer backend's Pauli-frame sampler.  No cutting,
    routing or caching happens here, so no pipeline config applies.
    """
    from repro.backends import get_backend

    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    circuit = phase_flip_repetition_code(distance)
    noise = NoiseModel(
        after_gate_1q=PauliChannel.phase_flip(phase_flip_probability),
        after_gate_2q=PauliChannel(
            2,
            [
                (phase_flip_probability / 2, "ZI"),
                (phase_flip_probability / 2, "IZ"),
            ],
        ),
    )
    bits = get_backend(backend).sample_noisy_bits(circuit, noise, shots, rng)
    # vectorised majority decode over all shots: corrected data bits are
    # the X-basis readout columns; a logical error is a majority of ones
    data = np.asarray(bits, dtype=bool)[:, :distance]
    errors = int(np.count_nonzero(data.sum(axis=1) > distance // 2))
    return errors / shots
