"""The one-pass cutter against its slow twin.

``reference_find_cuts`` and ``reference_cut_circuit`` are the cutter as it
was before it became one walk of the ops: positions and op counts from
two separate walks, a ``(qubit, position)`` dict of Clifford flags, a
``(qubit, segment)`` tuple per wire segment, and every segment looked up
by scanning the wire's cut positions.  They share no code with
``repro.core.cutter``, so on every circuit the two must place the same
cuts, and on every cut set give equal fragments — ops, boundary lists and
fingerprints — or raise the same ``ValueError``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.cache import fragment_fingerprint
from repro.circuits import Circuit, gates, random_near_clifford_circuit
from repro.circuits.circuit import Operation
from repro.core import Cut, CutStrategy, cut_circuit, find_cuts
from repro.core.fragments import CutCircuit, Fragment


def _wire_positions(circuit: Circuit) -> list[list[int]]:
    counters: dict[int, int] = defaultdict(int)
    positions: list[list[int]] = []
    for op in circuit.ops:
        row = []
        for q in op.qubits:
            row.append(counters[q])
            counters[q] += 1
        positions.append(row)
    return positions


def _ops_per_qubit(circuit: Circuit) -> dict[int, int]:
    counts: dict[int, int] = defaultdict(int)
    for op in circuit.ops:
        for q in op.qubits:
            counts[q] += 1
    return counts


def reference_find_cuts(circuit: Circuit) -> list[Cut]:
    """The ``ISOLATE`` cuts of ``circuit`` (the slow twin)."""
    positions = _wire_positions(circuit)
    totals = _ops_per_qubit(circuit)
    non_clifford = [not op.gate.is_clifford for op in circuit.ops]
    wire_is_ncl: dict[tuple[int, int], bool] = {}
    for i, op in enumerate(circuit.ops):
        for w, q in enumerate(op.qubits):
            wire_is_ncl[(q, positions[i][w])] = non_clifford[i]
    cuts: set[Cut] = set()
    for i, op in enumerate(circuit.ops):
        if not non_clifford[i]:
            continue
        for w, q in enumerate(op.qubits):
            p = positions[i][w]
            if p > 0 and not wire_is_ncl.get((q, p - 1), False):
                cuts.add(Cut(q, p))
            if p + 1 < totals[q] and not wire_is_ncl.get((q, p + 1), False):
                cuts.add(Cut(q, p + 1))
    return sorted(cuts)


def reference_cut_circuit(circuit: Circuit, cuts: list[Cut]) -> CutCircuit:
    """Split ``circuit`` along ``cuts`` into fragments (the slow twin)."""
    positions = _wire_positions(circuit)
    totals = _ops_per_qubit(circuit)
    cuts = sorted(set(cuts))
    cut_index = {cut: i for i, cut in enumerate(cuts)}
    for cut in cuts:
        if cut.position >= totals.get(cut.qubit, 0):
            raise ValueError(f"{cut} sits at or after the last operation on its wire")

    cut_positions: dict[int, list[int]] = defaultdict(list)
    for cut in cuts:
        cut_positions[cut.qubit].append(cut.position)
    for qubit in cut_positions:
        cut_positions[qubit].sort()

    def segment_of(q: int, p: int) -> int:
        return sum(1 for cp in cut_positions.get(q, ()) if cp <= p)

    segments: list[tuple[int, int]] = []
    for q in range(circuit.n_qubits):
        for s in range(len(cut_positions.get(q, ())) + 1):
            segments.append((q, s))
    seg_id = {seg: i for i, seg in enumerate(segments)}
    parent = list(range(len(segments)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for i, op in enumerate(circuit.ops):
        ids = [seg_id[(q, segment_of(q, positions[i][w]))]
               for w, q in enumerate(op.qubits)]
        for other in ids[1:]:
            union(ids[0], other)

    roots: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for seg in segments:
        roots[find(seg_id[seg])].append(seg)
    ordered_roots = sorted(roots, key=lambda r: min(roots[r]))

    fragments: list[Fragment] = []
    seg_to_fragment_qubit: dict[tuple[int, int], tuple[int, int]] = {}
    for f_index, root in enumerate(ordered_roots):
        segs = sorted(roots[root])
        local = {seg: i for i, seg in enumerate(segs)}
        for seg, lq in local.items():
            seg_to_fragment_qubit[seg] = (f_index, lq)
        fragment = Fragment(index=f_index, circuit=Circuit(len(segs)))
        for q, s in segs:
            lq = local[(q, s)]
            if s == 0:
                fragment.circuit_inputs.append(lq)
            else:
                opening = Cut(q, cut_positions[q][s - 1])
                fragment.quantum_inputs.append((cut_index[opening], lq))
            if s == len(cut_positions.get(q, ())):
                fragment.circuit_outputs.append((q, lq))
            else:
                closing = Cut(q, cut_positions[q][s])
                fragment.quantum_outputs.append((cut_index[closing], lq))
        fragments.append(fragment)

    for i, op in enumerate(circuit.ops):
        seg = (op.qubits[0], segment_of(op.qubits[0], positions[i][0]))
        f_index, _ = seg_to_fragment_qubit[seg]
        local_qubits = []
        for w, q in enumerate(op.qubits):
            f2, lq = seg_to_fragment_qubit[(q, segment_of(q, positions[i][w]))]
            assert f2 == f_index, "operation spans fragments"
            local_qubits.append(lq)
        fragments[f_index].circuit.append(op.gate, *local_qubits)

    for fragment in fragments:
        fragment.quantum_inputs.sort()
        fragment.quantum_outputs.sort()
        fragment.circuit_outputs.sort()
        fragment.circuit_inputs.sort()
    return CutCircuit(original=circuit, cuts=cuts, fragments=fragments)


# -- draws ----------------------------------------------------------------------

_TWO_QUBIT_NON_CLIFFORD = (gates.ZZPow(0.3), gates.CZPow(0.25))


@st.composite
def near_clifford_circuits(draw):
    """A ``random_near_clifford_circuit`` draw (up to 12 qubits, 1-4
    non-Clifford gates), with some of its T gates widened into two-qubit
    non-Clifford gates on a second, drawn qubit."""
    n = draw(st.integers(2, 12))
    depth = draw(st.integers(1, 6))
    count = draw(st.integers(1, 4))
    circuit = random_near_clifford_circuit(
        n, depth, count, rng=draw(st.integers(0, 2**32 - 1))
    )
    ops = list(circuit.ops)
    for i, op in enumerate(ops):
        if not op.gate.is_clifford and draw(st.booleans()):
            q = op.qubits[0]
            other = draw(st.integers(0, n - 2))
            other += other >= q
            gate = draw(st.sampled_from(_TWO_QUBIT_NON_CLIFFORD))
            ops[i] = Operation(gate, (q, other))
    return Circuit(n, ops)


@st.composite
def valid_cut_sets(draw, circuit):
    """Any subset of the cuts ``circuit`` admits: wire ``q`` takes cuts at
    positions ``1 .. ops_on(q) - 1``."""
    totals = _ops_per_qubit(circuit)
    admissible = [Cut(q, p) for q in sorted(totals) for p in range(1, totals[q])]
    if not admissible:
        return []
    return draw(st.lists(st.sampled_from(admissible), max_size=6))


def assert_same_cut(got: CutCircuit, want: CutCircuit) -> None:
    assert got.cuts == want.cuts
    assert len(got.fragments) == len(want.fragments)
    for a, b in zip(got.fragments, want.fragments):
        assert a.index == b.index
        assert a.n_qubits == b.n_qubits
        assert [(op.gate, op.qubits) for op in a.circuit.ops] == [
            (op.gate, op.qubits) for op in b.circuit.ops
        ]
        # ops are placed unchecked: they must pass every check they skip
        for op in a.circuit.ops:
            assert type(op) is Operation and type(op.qubits) is tuple
            assert all(type(q) is int for q in op.qubits)
            assert Operation(op.gate, op.qubits) == op
        Circuit(a.n_qubits, a.circuit.ops)
        assert a.circuit_inputs == b.circuit_inputs
        assert a.quantum_inputs == b.quantum_inputs
        assert a.quantum_outputs == b.quantum_outputs
        assert a.circuit_outputs == b.circuit_outputs
        assert fragment_fingerprint(a.circuit, *a.cut_wires) == fragment_fingerprint(
            b.circuit, *b.cut_wires
        )


class TestOnePassCutterTwin:
    @settings(max_examples=60, deadline=None)
    @given(near_clifford_circuits())
    def test_isolating_cuts_are_the_same(self, circuit):
        assert find_cuts(circuit) == reference_find_cuts(circuit)

    @settings(max_examples=60, deadline=None)
    @given(near_clifford_circuits(), st.sampled_from(list(CutStrategy)))
    def test_found_cuts_split_the_same(self, circuit, strategy):
        cuts = find_cuts(circuit, strategy)
        assert_same_cut(cut_circuit(circuit, cuts), reference_cut_circuit(circuit, cuts))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_caller_cut_sets_split_the_same(self, data):
        circuit = data.draw(near_clifford_circuits())
        cuts = data.draw(valid_cut_sets(circuit))
        assert_same_cut(cut_circuit(circuit, cuts), reference_cut_circuit(circuit, cuts))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_invalid_cut_sets_raise_the_same_error(self, data):
        circuit = data.draw(near_clifford_circuits())
        # one wire past the circuit's last, so an idle wire always exists
        circuit = Circuit(circuit.n_qubits + 1, circuit.ops)
        n = circuit.n_qubits
        counts = _ops_per_qubit(circuit)
        totals = [counts.get(q, 0) for q in range(n)]
        kind = data.draw(st.sampled_from(["after_last", "idle", "too_high", "negative"]))
        if kind == "after_last":
            q = data.draw(st.sampled_from([q for q in range(n) if totals[q]]))
            bad = Cut(q, data.draw(st.integers(totals[q], totals[q] + 3)))
        elif kind == "idle":
            bad = Cut(data.draw(st.sampled_from([q for q in range(n) if not totals[q]])), 1)
        elif kind == "too_high":
            bad = Cut(data.draw(st.integers(n, n + 3)), 1)
        else:
            bad = Cut(data.draw(st.integers(-3, -1)), 1)
        cuts = data.draw(valid_cut_sets(circuit)) + [bad]
        with pytest.raises(ValueError) as want:
            reference_cut_circuit(circuit, cuts)
        with pytest.raises(ValueError) as got:
            cut_circuit(circuit, cuts)
        assert str(got.value) == str(want.value)

    def test_an_hwea_circuit_splits_the_same(self):
        from repro.apps.hwea import HWEA

        ansatz = HWEA(40, 5)
        rng = np.random.default_rng(1)
        params = rng.integers(0, 4, size=ansatz.num_parameters) * 0.5
        params[rng.integers(len(params))] = 0.3
        circuit = ansatz.circuit(params)
        cuts = find_cuts(circuit)
        assert cuts
        assert_same_cut(cut_circuit(circuit, cuts), reference_cut_circuit(circuit, cuts))
