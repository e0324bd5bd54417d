"""The fused gate-program compiler against its slow twin.

``reference_compile_ops`` is the compiler as it was before runs of
one-qubit steps were fused: every op spelled out as its gate's steps, in
op order, one step per H, S, X, Y, Z or CX of the decomposition.  It
shares no code with ``repro.stabilizer.tableau``, so on every Clifford
circuit the two programs must conjugate every Pauli row identically —
forward and inverse, ``x``, ``z`` and sign bit for bit — and drive the
Pauli-frame sampler to the same shots under one seed; the fused program
must also be no longer, with at most 4 one-qubit steps on a wire between
two CX steps that touch it.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, gates
from repro.circuits.circuit import Operation
from repro.stabilizer import FrameSampler, NoiseModel, PauliChannel
from repro.stabilizer import frames as frames_module
from repro.stabilizer.tableau import _compile_ops, _walk, inverse_program

#: gates the walk takes as themselves
NATIVE = ("H", "S", "CX", "X", "Y", "Z")

#: every gate the walk takes through its stabilizer decomposition
DECOMPOSED_1Q = [gates.SDG, gates.SX, gates.SXDG] + [
    power(0.5 * k) for power in (gates.XPow, gates.YPow, gates.ZPow) for k in range(4)
]
DECOMPOSED_2Q = [gates.CZ, gates.CY, gates.CZPow(1.0), gates.CZPow(2.0)] + [
    gates.ZZPow(0.5 * k) for k in range(4)
]
ONE_QUBIT = [gates.I, gates.H, gates.S, gates.X, gates.Y, gates.Z] + DECOMPOSED_1Q
TWO_QUBIT = [gates.CX] + DECOMPOSED_2Q


def reference_compile_ops(ops) -> list[tuple]:
    """Every op as its gate's steps on the op's qubits, in op order (the
    slow twin): no run is fused, the identity is nothing."""
    program = []
    for op in ops:
        gate = op.gate
        if not gate.is_clifford:
            raise ValueError(f"non-Clifford gate {gate!r}")
        if gate.name in NATIVE:
            steps = [(gate.name, tuple(range(gate.num_qubits)))]
        else:
            steps = gate.stabilizer_decomposition()
        for name, wires in steps:
            program.append((name, *(op.qubits[w] for w in wires)))
    return program


@st.composite
def clifford_circuits(draw):
    """Random Clifford circuits on 2-12 qubits over every gate the walk
    knows, with long one-qubit runs mixed in."""
    n = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    circuit = Circuit(n)
    for _ in range(draw(st.integers(1, 40))):
        if rng.random() < 0.3:
            q = int(rng.integers(n))
            for _ in range(int(rng.integers(2, 12))):
                circuit.append(ONE_QUBIT[rng.integers(len(ONE_QUBIT))], q)
        elif rng.random() < 0.5:
            a, b = (int(q) for q in rng.choice(n, 2, replace=False))
            circuit.append(TWO_QUBIT[rng.integers(len(TWO_QUBIT))], a, b)
        else:
            q = int(rng.integers(n))
            circuit.append(ONE_QUBIT[rng.integers(len(ONE_QUBIT))], q)
    return circuit, seed


def random_rows(n: int, rows: int, seed: int):
    """Random packed Pauli rows over ``n`` qubits: ``(x, z)`` words."""
    rng = np.random.default_rng(seed)
    words = max(1, (n + 63) >> 6)
    x = rng.integers(0, 1 << 63, size=(rows, words), dtype=np.uint64)
    z = rng.integers(0, 1 << 63, size=(rows, words), dtype=np.uint64)
    mask = np.uint64((1 << n) - 1)
    return x & mask, z & mask


def assert_same_walk(fused, reference, n: int, seed: int) -> None:
    x, z = random_rows(n, 37, seed)
    got, want = _walk(fused, n, x, z), _walk(reference, n, x, z)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def longest_one_qubit_run(program) -> int:
    """The most one-qubit steps on one wire between CX steps touching it."""
    run: dict[int, int] = {}
    longest = 0
    for step in program:
        if step[0] == "CX":
            run[step[1]] = run[step[2]] = 0
        else:
            run[step[1]] = run.get(step[1], 0) + 1
            longest = max(longest, run[step[1]])
    return longest


@given(clifford_circuits())
@settings(max_examples=60, deadline=None)
def test_forward_and_inverse_walks_match_the_twin(drawn):
    circuit, seed = drawn
    fused, reference = _compile_ops(circuit.table), reference_compile_ops(circuit.ops)
    n = circuit.n_qubits
    assert_same_walk(fused, reference, n, seed)
    assert_same_walk(inverse_program(fused), inverse_program(reference), n, seed + 1)


@given(clifford_circuits())
@settings(max_examples=60, deadline=None)
def test_runs_fuse_to_at_most_four_steps(drawn):
    circuit, _seed = drawn
    fused, reference = _compile_ops(circuit.table), reference_compile_ops(circuit.ops)
    assert longest_one_qubit_run(fused) <= 4
    assert len(fused) <= len(reference)
    # CX steps are kept as they are, in order
    assert [s for s in fused if s[0] == "CX"] == [s for s in reference if s[0] == "CX"]


@given(clifford_circuits(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_frame_sampler_shots_match_the_twin(drawn, noisy_1q):
    circuit, seed = drawn
    noise = NoiseModel(
        after_gate_1q=PauliChannel.depolarizing(0.1) if noisy_1q else None,
        after_gate_2q=PauliChannel.depolarizing2(0.1),
        before_measure=PauliChannel.bit_flip(0.05),
    )
    fused = FrameSampler(circuit, noise).sample_bits(200, rng=seed)

    def reference_compile(table):
        wires, bounds = table.wires.tolist(), table.offsets.tolist()
        gate_index = table.gate_index.tolist()
        return reference_compile_ops(
            Operation(table.gates[g], wires[a:b])
            for g, a, b in zip(gate_index, bounds, bounds[1:])
        )

    with mock.patch.object(frames_module, "_compile_ops", reference_compile):
        reference = FrameSampler(circuit, noise).sample_bits(200, rng=seed)
    np.testing.assert_array_equal(fused, reference)


def test_a_long_run_is_one_short_spelling():
    """Forty one-qubit gates on a wire between two CX steps come out as
    at most 4 steps, and the walk is unchanged."""
    rng = np.random.default_rng(7)
    circuit = Circuit(2).append(gates.CX, 0, 1)
    for _ in range(40):
        circuit.append(ONE_QUBIT[rng.integers(len(ONE_QUBIT))], 0)
    circuit.append(gates.CX, 1, 0)
    fused = _compile_ops(circuit.table)
    assert fused[0] == ("CX", 0, 1) and fused[-1] == ("CX", 1, 0)
    assert len(fused) <= 6
    assert_same_walk(fused, reference_compile_ops(circuit.ops), 2, 7)


def test_a_run_back_to_the_identity_is_nothing():
    circuit = Circuit(1)
    for gate in (gates.H, gates.S, gates.S, gates.H, gates.X, gates.I):
        circuit.append(gate, 0)
    assert _compile_ops(circuit.table) == []
