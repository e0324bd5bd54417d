"""SupercheQ-style incremental fingerprinting (paper §IV-D).

SupercheQ's Incremental Encoding (IE) maps a classical file to a stabilizer
state: every appended bit applies one of two pseudo-random Clifford layers.
Equality of two files is then (probabilistically) certified by comparing the
resulting stabilizer states — which one backward walk does exactly:
``A|0>`` equals ``B|0>`` iff ``A† B`` fixes every ``Z``.  Because the
encoding is Clifford, updates are incremental; enriching it with a few
non-Clifford gates (the
"middle-ground" the paper proposes to study with SuperSim) is supported via
``near_clifford_fingerprint``.
"""

from __future__ import annotations

import numpy as np

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.circuits.random import inject_t_gates
from repro.stabilizer.tableau import same_state


def _bit_layer(circuit: Circuit, bit: int, rng: np.random.Generator) -> None:
    """Append the pseudo-random Clifford layer encoding one bit."""
    n = circuit.n_qubits
    pool = (gates.H, gates.S, gates.SX)
    for q in range(n):
        gate = pool[int(rng.integers(len(pool)))]
        circuit.append(gate, q)
        if bit:
            circuit.append(gates.Z, q)
    offset = int(rng.integers(n))
    for q in range(n):
        other = (q + 1 + offset) % n
        if other != q and (q + bit) % 2 == 0:
            circuit.append(gates.CX, q, other)


def fingerprint_circuit(bits, n_qubits: int, seed: int = 0) -> Circuit:
    """Encode a bit sequence into an ``n_qubits`` stabilizer fingerprint.

    The per-position Clifford layers are derived from ``seed`` alone, so two
    parties encoding the same file with the same seed build the same state.
    """
    circuit = Circuit(n_qubits)
    for position, bit in enumerate(bits):
        layer_rng = np.random.default_rng((seed, position))
        _bit_layer(circuit, int(bit), layer_rng)
    return circuit


def incremental_update(circuit: Circuit, bit: int, seed: int = 0) -> Circuit:
    """Append one more bit to an existing fingerprint circuit — O(n) gates.

    This is the *incrementality* advantage of SupercheQ-IE: extending the
    file does not require re-encoding it.
    """
    position = _position_of(circuit)
    out = circuit.copy()
    layer_rng = np.random.default_rng((seed, position))
    _bit_layer(out, int(bit), layer_rng)
    return out


def _position_of(circuit: Circuit) -> int:
    """Recover how many bits a fingerprint circuit encodes (via op markers).

    Each bit layer appends at least ``n`` one-qubit gates; we track layer
    count in metadata-free form by counting H/S/SX on qubit 0.
    """
    return sum(
        1
        for op in circuit.ops
        if op.qubits == (0,) and op.gate.name in ("H", "S", "SX")
    )


def fingerprints_equal(a: Circuit, b: Circuit) -> bool:
    """Exact stabilizer-state equality of two fingerprint circuits."""
    return same_state(a, b)


def near_clifford_fingerprint(
    bits, n_qubits: int, num_t: int = 1, seed: int = 0
) -> Circuit:
    """Fingerprint enriched with T gates (the SupercheQ middle ground)."""
    base = fingerprint_circuit(bits, n_qubits, seed)
    return inject_t_gates(base, num_t, rng=seed)
