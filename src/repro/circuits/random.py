"""Random circuit generators.

Used by the Fig. 1 benchmark (random Clifford circuits with depth equal to
width) and by the property-based test suite.
"""

from __future__ import annotations

import numpy as np

from repro.circuits import gates
from repro.circuits.circuit import Circuit, OpTable

_ONE_QUBIT_POOL = gates.ONE_QUBIT_CLIFFORD_GATES
_TWO_QUBIT_POOL = (gates.CX, gates.CZ, gates.SWAP, gates.CY)


def _as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def random_clifford_circuit(
    n_qubits: int,
    depth: int,
    rng: np.random.Generator | int | None = None,
    two_qubit_fraction: float = 0.5,
) -> Circuit:
    """A random Clifford circuit with ``depth`` layers.

    Each layer pairs up a random subset of qubits with random two-qubit
    Clifford gates and dresses the rest with random one-qubit Cliffords,
    mirroring the random circuits in the paper's Fig. 1.
    """
    rng = _as_rng(rng)
    circuit = Circuit(n_qubits)
    for _ in range(depth):
        order = rng.permutation(n_qubits)
        i = 0
        while i < n_qubits:
            if i + 1 < n_qubits and rng.random() < two_qubit_fraction:
                gate = _TWO_QUBIT_POOL[rng.integers(len(_TWO_QUBIT_POOL))]
                circuit.append(gate, int(order[i]), int(order[i + 1]))
                i += 2
            else:
                gate = _ONE_QUBIT_POOL[rng.integers(len(_ONE_QUBIT_POOL))]
                if gate.name != "I":
                    circuit.append(gate, int(order[i]))
                i += 1
    return circuit


def inject_t_gates(
    circuit: Circuit,
    count: int = 1,
    rng: np.random.Generator | int | None = None,
) -> Circuit:
    """Insert ``count`` T gates at uniformly random circuit locations.

    This is the paper's benchmark construction: a Clifford base circuit with
    "one randomly injected T gate" (Figs. 3-7).  The insertion point is a
    uniformly random (position, qubit) pair, drawn in that order for each
    gate, on the circuit with the gates before it inserted.  The result is
    built from the source's table columns, the inserts written into them.
    """
    rng = _as_rng(rng)
    table = circuit.table
    index, wires, offsets = table.gate_index, table.wires, table.offsets
    pool = table.gates + (gates.T,)  # by_first_use drops an unused T
    t = next(i for i, gate in enumerate(pool) if gate is gates.T)
    for _ in range(count):
        position = int(rng.integers(len(index) + 1))
        qubit = int(rng.integers(circuit.n_qubits))
        index = np.insert(index, position, t)
        wires = np.insert(wires, offsets[position], qubit)
        offsets = np.concatenate([offsets[: position + 1], offsets[position:] + 1])
    body = OpTable.by_first_use(pool, index, wires, offsets)
    out = Circuit.from_table(circuit.n_qubits, body)
    if circuit.has_explicit_measurements:
        out.measure(circuit.measured_qubits)
    return out


def random_near_clifford_circuit(
    n_qubits: int,
    depth: int,
    num_non_clifford: int = 1,
    rng: np.random.Generator | int | None = None,
) -> Circuit:
    """Random Clifford circuit with ``num_non_clifford`` injected T gates."""
    rng = _as_rng(rng)
    base = random_clifford_circuit(n_qubits, depth, rng)
    return inject_t_gates(base, num_non_clifford, rng)
