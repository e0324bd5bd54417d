"""The op table against its slow twins.

Every pass over a circuit's gates reads its columnar op table
(:class:`repro.circuits.circuit.OpTable`).  The twins here are those passes
as they were when they walked ``Operation`` objects: the fingerprint byte
stream packed op by op (``reference_op_bytes``), the routing features
counted op by op (``reference_count``), Clifford-ness as ``all`` over the
ops (``reference_is_clifford``) and the fused gate program compiled op by
op (``reference_fused_compile``).  Next to the cutter's twin
(``tests/test_cutter_twin.py``) they must agree with the table on every
draw: fingerprints byte for byte, features, Clifford-ness, fragments and
compiled programs — and a fragment body born from the table must give all
of that before its ``ops`` list is ever built, and then build the twin's
ops, op for op.

The draws are ``random_near_clifford_circuit`` circuits with a constructed
3-qubit gate, signed-zero parameters, distinct gate objects that are equal
by value, and idle wires mixed in.
"""

from __future__ import annotations

import hashlib
import struct
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.base import CircuitFeatures
from repro.backends.cache import circuit_fingerprint, fragment_fingerprint
from repro.circuits import Circuit, gates, random_near_clifford_circuit
from repro.circuits.circuit import Operation, OpTable
from repro.circuits import circuit as circuit_module
from repro.core import Cut, cut_circuit, find_cuts
from repro.stabilizer.tableau import (
    _PRODUCT,
    _SPELLINGS,
    _STEP_ELEMENT,
    _compile_ops,
    _gate_element,
    _gate_steps,
    compile_clifford_layers,
)
from test_cutter_twin import (
    assert_same_cut,
    reference_cut_circuit,
    reference_find_cuts,
    valid_cut_sets,
)

CCZ = gates.Gate("CCZ", np.diag([1, 1, 1, 1, 1, 1, 1, -1]))
CCX = gates.Gate("CCX", np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]])


# -- the twins ------------------------------------------------------------------


def reference_op_bytes(ops) -> bytes:
    """The fingerprint's byte stream packed op by op: per op its gate's
    name and exact parameter bytes, then its wires as ``<q`` words and
    ``;`` (each gate object packed once, keyed by identity)."""
    gate_bytes: dict[int, bytes] = {}
    parts = []
    for op in ops:
        gate = op.gate
        packed = gate_bytes.get(id(gate))
        if packed is None:
            packed = gate_bytes[id(gate)] = gate.name.encode() + struct.pack(
                f"<{len(gate.params)}d", *gate.params
            )
        parts.append(packed)
        parts.append(struct.pack(f"<{len(op.qubits)}q", *op.qubits) + b";")
    return b"".join(parts)


def reference_circuit_fingerprint(circuit: Circuit) -> str:
    h = hashlib.sha256()
    h.update(struct.pack("<q", circuit.n_qubits))
    h.update(reference_op_bytes(circuit.ops))
    h.update(b"|m")
    measured = circuit.measured_qubits
    h.update(struct.pack(f"<{len(measured)}q", *measured))
    return h.hexdigest()


def reference_fragment_fingerprint(body: Circuit, inputs, outputs) -> str:
    h = hashlib.sha256(b"fragment|")
    h.update(struct.pack("<q", body.n_qubits))
    h.update(reference_op_bytes(body.ops))
    for tag, wires in ((b"|i", inputs), (b"|o", outputs)):
        h.update(tag)
        h.update(struct.pack(f"<{len(wires)}q", *wires))
    return h.hexdigest()


def reference_count(circuit: Circuit) -> CircuitFeatures:
    """The routing features counted op by op."""
    t_count = 0
    two_qubit_count = 0
    nondiag = False
    level = [0] * circuit.n_qubits
    for op in circuit.ops:
        if op.gate.num_qubits >= 2:
            two_qubit_count += 1
            new = max(level[q] for q in op.qubits) + 1
            for q in op.qubits:
                level[q] = new
        if not op.gate.is_clifford:
            t_count += 1
            matrix = op.gate.matrix
            if not np.allclose(matrix, np.diag(np.diag(matrix)), atol=1e-12):
                if op.gate.num_qubits >= 2:
                    nondiag = True
    return CircuitFeatures(
        n_qubits=circuit.n_qubits,
        num_ops=len(circuit.ops),
        is_clifford=t_count == 0,
        t_count=t_count,
        two_qubit_count=two_qubit_count,
        entangling_depth=max(level, default=0),
        has_nondiagonal_nonclifford=nondiag,
    )


def reference_is_clifford(circuit: Circuit) -> bool:
    return all(op.gate.is_clifford for op in circuit.ops)


def reference_fused_compile(ops) -> list[tuple]:
    """The fused gate program compiled op by op: each wire's run of
    one-qubit steps kept as one pending group element and spelled out when
    a CX touches the wire, and at the end in the order the runs opened."""
    program: list[tuple] = []
    pending: dict[int, int] = {}
    for op in ops:
        element = _gate_element(op.gate)
        if element is not None:
            q = op.qubits[0]
            pending[q] = _PRODUCT[pending.get(q, 0)][element]
            continue
        for step in _gate_steps(op.gate):
            if len(step) == 2:
                q = op.qubits[step[1]]
                pending[q] = _PRODUCT[pending.get(q, 0)][_STEP_ELEMENT[step[0]]]
                continue
            control, target = op.qubits[step[1]], op.qubits[step[2]]
            for q in (control, target):
                program += [(name, q) for name in _SPELLINGS[pending.pop(q, 0)]]
            program.append(("CX", control, target))
    for q, element in pending.items():
        program += [(name, q) for name in _SPELLINGS[element]]
    return program


# -- draws ----------------------------------------------------------------------


def _equal_but_distinct() -> list[gates.Gate]:
    """Fresh gate objects equal by value to gates the draws also use."""
    return [
        gates.Gate("H", gates.H.matrix, is_clifford=True),
        gates.Gate("ZP", gates.ZPow(0.5).matrix, params=(0.5,), is_clifford=True),
        gates.Rz(0.3),
        gates.Rz(0.3),
    ]


@st.composite
def table_circuits(draw):
    """A ``random_near_clifford_circuit`` draw (2-9 qubits, 0-3
    non-Clifford gates) with ops inserted at drawn positions: ``CCZ`` or
    ``CCX`` on three wires, ``ZPow(±0.0)`` and ``XPow(-0.0)``, and fresh
    gate objects equal to ones already used; then 0-2 idle wires."""
    n = draw(st.integers(3, 9))
    circuit = random_near_clifford_circuit(
        n,
        draw(st.integers(1, 5)),
        draw(st.integers(0, 3)),
        rng=draw(st.integers(0, 2**32 - 1)),
    )
    ops = list(circuit.ops)
    extra = [gates.ZPow(0.0), gates.ZPow(-0.0), gates.XPow(-0.0)]
    extra += _equal_but_distinct() + [gates.H, gates.ZPow(0.5)]
    for _ in range(draw(st.integers(0, 6))):
        position = draw(st.integers(0, len(ops)))
        if draw(st.integers(0, 4)) == 0:
            wires = draw(st.permutations(range(n)))[:3]
            op = Operation(draw(st.sampled_from([CCZ, CCX])), wires)
        else:
            op = Operation(draw(st.sampled_from(extra)), (draw(st.integers(0, n - 1)),))
        ops.insert(position, op)
    return Circuit(n + draw(st.integers(0, 2)), ops)


@st.composite
def clifford_circuits(draw):
    """Clifford draws: ``table_circuits`` with its non-Clifford ops
    dropped."""
    circuit = draw(table_circuits())
    return Circuit(circuit.n_qubits, [op for op in circuit.ops if op.gate.is_clifford])


# -- the checks -----------------------------------------------------------------


def test_a_table_covers_what_the_draws_promise():
    circuit = Circuit(5)
    for gate in (gates.ZPow(0.0), gates.ZPow(-0.0), *_equal_but_distinct()):
        circuit.append(gate, 1)
    circuit.append(CCZ, 0, 2, 3)
    table = circuit.table
    # keyed by identity: equal gates that are distinct objects stay apart
    assert len(table.gates) == 7 and gates.Rz(0.3) == gates.Rz(0.3)
    assert table.arity.tolist() == [1] * 6 + [3]
    assert table.offsets.tolist() == list(range(7)) + [9]
    assert np.bincount(table.wires, minlength=5).tolist() == [1, 6, 1, 1, 0]
    assert [op.qubits for op in table.operations()] == [op.qubits for op in circuit.ops]


class TestTableTwins:
    @settings(max_examples=80, deadline=None)
    @given(table_circuits())
    def test_fingerprints_features_and_clifford_ness(self, circuit):
        assert _table_bytes(circuit) == reference_op_bytes(circuit.ops)
        assert circuit_fingerprint(circuit) == reference_circuit_fingerprint(circuit)
        assert CircuitFeatures._count(circuit) == reference_count(circuit)
        assert circuit.is_clifford == reference_is_clifford(circuit)
        assert circuit.non_clifford_indices == [
            i for i, op in enumerate(circuit.ops) if not op.gate.is_clifford
        ]

    @settings(max_examples=80, deadline=None)
    @given(clifford_circuits())
    def test_the_fused_program_is_the_op_walks(self, circuit):
        assert _compile_ops(circuit.table) == reference_fused_compile(circuit.ops)
        assert _compile_ops(circuit.ops) == reference_fused_compile(circuit.ops)

    @settings(max_examples=80, deadline=None)
    @given(table_circuits())
    def test_fragment_bodies_before_and_after_their_ops_are_built(self, circuit):
        cuts = find_cuts(circuit)
        assert cuts == reference_find_cuts(circuit)
        got = cut_circuit(circuit, cuts).fragments
        want = reference_cut_circuit(circuit, cuts).fragments
        assert len(got) == len(want)
        for fragment, twin in zip(got, want):
            body = fragment.circuit
            # everything the cold path reads, off the table alone
            fingerprint = fragment_fingerprint(body, *fragment.cut_wires)
            features = CircuitFeatures.from_circuit(body)
            clifford = fragment.is_clifford
            program = compile_clifford_layers(body) if clifford else None
            assert len(body) == len(twin.circuit)
            assert "ops" not in vars(body)
            assert fingerprint == reference_fragment_fingerprint(
                twin.circuit, *twin.cut_wires
            )
            assert features == reference_count(twin.circuit)
            assert clifford == reference_is_clifford(twin.circuit)
            if clifford:
                assert program == reference_fused_compile(twin.circuit.ops)
            # then the op list, op for op, and nothing derived is lost
            assert [(op.gate, op.qubits) for op in body.ops] == [
                (op.gate, op.qubits) for op in twin.circuit.ops
            ]
            assert all(a.gate is b.gate for a, b in zip(body.ops, twin.circuit.ops))
            assert CircuitFeatures.from_circuit(body) is features
            assert fragment_fingerprint(body, *fragment.cut_wires) == fingerprint
            if clifford:
                assert compile_clifford_layers(body) is program


@pytest.mark.parametrize("threshold", [0, 10**9], ids=["arrays", "walks"])
class TestBothPasses:
    """A large table is cut by NumPy passes, a small one by walks of its
    column lists: each pass, forced onto every draw, finds and splits as
    the twins and raises their errors."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_cuts_split_as_the_twin(self, threshold, data):
        circuit = data.draw(table_circuits())
        with mock.patch.object(circuit_module, "ARRAY_PASSES_FROM", threshold):
            found = find_cuts(circuit)
            assert found == reference_find_cuts(circuit)
            for cuts in (found, data.draw(valid_cut_sets(circuit))):
                got = cut_circuit(circuit, cuts)
                want = reference_cut_circuit(circuit, cuts)
                for fragment, twin in zip(got.fragments, want.fragments):
                    assert fragment_fingerprint(
                        fragment.circuit, *fragment.cut_wires
                    ) == reference_fragment_fingerprint(twin.circuit, *twin.cut_wires)
                assert_same_cut(got, want)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_bad_cut_raises_as_the_twin(self, threshold, data):
        circuit = data.draw(table_circuits())
        n = circuit.n_qubits
        totals = np.bincount(circuit.table.wires, minlength=n).tolist()
        bad = data.draw(
            st.sampled_from(
                [Cut(q, totals[q] + 1) if totals[q] else Cut(q, 1) for q in range(n)]
                + [Cut(n, 1), Cut(-1, 2)]
            )
        )
        cuts = data.draw(valid_cut_sets(circuit)) + [bad]
        with pytest.raises(ValueError) as want:
            reference_cut_circuit(circuit, cuts)
        with mock.patch.object(circuit_module, "ARRAY_PASSES_FROM", threshold):
            with pytest.raises(ValueError) as got:
                cut_circuit(circuit, cuts)
        assert str(got.value) == str(want.value)

    def test_an_hwea_circuit_splits_as_the_twin(self, threshold):
        from repro.apps.hwea import HWEA

        circuit = HWEA(60, 5).near_clifford_instance(num_t=3, rng=np.random.default_rng(4))
        with mock.patch.object(circuit_module, "ARRAY_PASSES_FROM", threshold):
            cuts = find_cuts(circuit)
            assert cuts == reference_find_cuts(circuit)
            assert_same_cut(cut_circuit(circuit, cuts), reference_cut_circuit(circuit, cuts))


def _columns(table: OpTable) -> tuple:
    return (
        [id(gate) for gate in table.gates],
        table.gate_index.tolist(),
        table.offsets.tolist(),
        table.wires.tolist(),
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_both_passes_slice_the_same_tables(data):
    """Arrays and walks hand every fragment the same table, column for
    column, its gates numbered by first use."""
    circuit = data.draw(table_circuits())
    cuts = data.draw(valid_cut_sets(circuit))
    bodies = []
    for threshold in (0, 10**9):
        with mock.patch.object(circuit_module, "ARRAY_PASSES_FROM", threshold):
            bodies.append([f.circuit.table for f in cut_circuit(circuit, cuts).fragments])
    arrays, walks = bodies
    assert [_columns(t) for t in arrays] == [_columns(t) for t in walks]
    for table in arrays:
        assert list(dict.fromkeys(table.gate_index.tolist())) == list(range(len(table.gates)))


def _table_bytes(circuit: Circuit) -> bytes:
    from repro.backends.cache import _op_bytes

    return _op_bytes(circuit.table)


def test_an_empty_table():
    circuit = Circuit(3)
    table = circuit.table
    assert len(table) == 0 and table.offsets.tolist() == [0]
    assert _table_bytes(circuit) == b"" and _compile_ops(table) == []
    assert circuit.is_clifford and circuit.non_clifford_indices == []
    assert CircuitFeatures._count(circuit) == reference_count(circuit)
    assert OpTable.from_ops([]).operations() == []


# -- table-born bodies on the wire and under mutation ------------------------------


def _table_born_fragment():
    """The widest fragment of a cut 12q near-Clifford circuit, its body
    born from the cutter's table and its ops never read."""
    circuit = random_near_clifford_circuit(12, 4, 2, rng=7)
    fragment = max(cut_circuit(circuit, find_cuts(circuit)).fragments, key=len_of)
    assert fragment.is_clifford and "ops" not in vars(fragment.circuit)
    return fragment


def len_of(fragment) -> int:
    return len(fragment.circuit)


def _same_body(got, fragment) -> None:
    want = fragment.circuit
    assert got.circuit.n_qubits == want.n_qubits
    assert fragment_fingerprint(got.circuit, *got.cut_wires) == fragment_fingerprint(
        want, *fragment.cut_wires
    )
    assert got.circuit.ops == want.ops


class TestTableBornBodies:
    def test_a_body_crosses_the_wire_unbuilt(self):
        import asyncio

        from repro.service.protocol import encode_frame, read_message

        fragment = _table_born_fragment()
        frame = encode_frame({"type": "job", "fragment": fragment})
        assert "ops" not in vars(fragment.circuit)

        async def receive():
            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            reader.feed_eof()
            return await read_message(reader)

        got = asyncio.run(receive())["fragment"]
        assert "ops" not in vars(got.circuit) and "table" in got.circuit.derived()
        _same_body(got, fragment)

    def test_a_body_survives_the_journal_unbuilt(self, tmp_path):
        from repro.service.journal import CoordinatorJournal

        fragment = _table_born_fragment()
        journal = CoordinatorJournal(tmp_path / "journal.db")
        try:
            journal.record_request("t1", "run", "tenant", {"fragment": fragment})
            journal.record_reply("t1", {"fragment": fragment})
            (entry,) = journal.entries()
        finally:
            journal.close()
        assert "ops" not in vars(fragment.circuit)
        for got in (entry[5]["fragment"], entry[6]["fragment"]):
            _same_body(got, fragment)

    def test_replacing_an_op_after_the_ops_are_read_recompiles(self):
        fragment = _table_born_fragment()
        body = fragment.circuit
        program = compile_clifford_layers(body)
        features = CircuitFeatures.from_circuit(body)
        ops = body.ops  # built now; from here on the list is the truth
        assert compile_clifford_layers(body) is program
        assert CircuitFeatures.from_circuit(body) is features
        ops[0] = Operation(gates.H, ops[0].qubits[:1])
        fresh = compile_clifford_layers(body)
        assert fresh is not program and fresh == reference_fused_compile(ops)
        assert fragment_fingerprint(body, *fragment.cut_wires) == (
            reference_fragment_fingerprint(body, *fragment.cut_wires)
        )
        body.append(gates.T, 0)
        assert not body.is_clifford and CircuitFeatures.from_circuit(body).t_count == 1

    def test_threads_reading_the_ops_at_once_share_one_build(self):
        import threading

        body = _table_born_fragment().circuit
        table = body.table
        builds = []
        build = OpTable.operations

        def slow_build(self):
            builds.append(self)
            time.sleep(0.02)  # hold the build open while the others arrive
            return build(self)

        start = threading.Barrier(6)
        seen = []

        def read():
            start.wait()
            seen.append(body.ops)

        with mock.patch.object(OpTable, "operations", slow_build):
            threads = [threading.Thread(target=read) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(seen) == 6 and all(ops is seen[0] for ops in seen)
        assert builds == [table]
        # what was derived before the build is kept with the new list
        assert body.derived()["table"] is table and body.table is table

    def test_a_copy_shares_the_table_and_builds_its_own_ops(self):
        body = _table_born_fragment().circuit
        twin = body.copy()
        assert twin.table is body.table and "ops" not in vars(twin)
        twin.append(gates.H, 0)
        assert len(twin) == len(body) + 1 and "ops" not in vars(body)
