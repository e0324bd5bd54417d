"""Per-fragment work is done once — and changes no result.

A noiseless Clifford fragment is one job: the stabilizer simulator walks
its body backwards once (:class:`~repro.stabilizer.tableau.PauliMap`), and
the tomography reads every variant's share of the fragment's tensors off
those images by GF(2) algebra.  The oracle is the per-variant route: each
variant spelled out by ``variant_circuit``, evolved from scratch, and
handed to the generic tomography (:func:`repro.testing.tomography.
per_variant_data`); the tensors must agree byte for byte.  The walk's own
oracle is ``paulis.pauli`` conjugation.  ``build_window_tensors`` builds
every window's tensor in one pass over a fragment's variants.  Each test
pins one equivalence that rests on.
"""

import itertools
import pickle
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import Distribution
from repro.apps.hwea import HWEA
from repro.backends.cache import circuit_fingerprint, fragment_fingerprint
from repro.circuits import Circuit, gates, random_clifford_circuit
from repro.circuits.circuit import Operation
from repro.core import (
    ReconstructionConfig,
    ReconstructionMemoryError,
    SamplingConfig,
    SuperSim,
)
from repro.core import evaluator as evaluator_module
from repro.core.evaluator import (
    DenseVariantData,
    FragmentData,
    FragmentEvaluator,
    SampledVariantData,
    VariantData,
)
from repro.core.fragments import Fragment
from repro.core.tomography import (
    build_conditioned_window_tensors,
    build_fragment_tensor,
    build_window_tensors,
)
from repro.core.variants import all_variants, variant_circuit
from repro.paulis.pauli import PauliString, conjugate_pauli
from repro.stabilizer import StabilizerSimulator
from repro.stabilizer import tableau as tableau_module
from repro.stabilizer.tableau import (
    PauliMap,
    compile_clifford_layers,
    heisenberg_images,
    inverse_program,
    outcome_distribution,
    pauli_expectations,
)
from repro.testing.tomography import per_variant_data

STAB = StabilizerSimulator()


def clifford_fragment(n=6, qi=1, qo=1, seed=0) -> Fragment:
    """A Clifford fragment: inputs on the first wires, outputs on the last."""
    rng = np.random.default_rng(seed)
    body = Circuit(n)
    for _ in range(5 * n):
        kind = int(rng.integers(5))
        if kind == 4 and n > 1:
            a, b = rng.choice(n, size=2, replace=False)
            body.append(gates.CX, int(a), int(b))
        else:
            gate = (gates.H, gates.S, gates.SDG, gates.X, gates.YPow(0.5))[kind]
            body.append(gate, int(rng.integers(n)))
    return Fragment(
        index=0,
        circuit=body,
        quantum_inputs=[(cut, cut) for cut in range(qi)],
        quantum_outputs=[(qi + j, n - 1 - j) for j in range(qo)],
        circuit_outputs=[(q, q) for q in range(n - qo)],
    )


def map_data(fragment: Fragment) -> FragmentData:
    """The fragment as the engine holds it: its body's Pauli map."""
    return FragmentData(fragment, {}, STAB.pauli_map(fragment.circuit, *fragment.cut_wires))


def same_tensor(got, want) -> bool:
    """Byte for byte: dtype, shape, every bit (so ``-0.0`` is not ``0.0``)."""
    if isinstance(want, tuple):  # a SupportTensor: values and support
        return all(same_tensor(a, b) for a, b in zip(got, want))
    return got.dtype == want.dtype and got.shape == want.shape and (
        got.tobytes() == want.tobytes()
    )


def assert_map_equals_the_per_variant_route(fragment, seed=0, windows=4):
    """Dense tensors of several windows, and conditioned tensors with random
    pins, pinned bits only and nothing pinned, from the map and from the
    spelled-out variants, byte for byte."""
    rng = np.random.default_rng(seed)
    got, want = map_data(fragment), per_variant_data(fragment)
    outputs = [lq for _oq, lq in fragment.circuit_outputs]
    picks = [[]] + [
        [int(q) for q in rng.permutation(outputs)[: int(rng.integers(1, 4))]]
        for _ in range(windows if outputs else 0)
    ]
    for window, a, b in zip(
        picks, build_window_tensors(got, picks), build_window_tensors(want, picks)
    ):
        assert same_tensor(a, b), ("window", window)
    order = [int(q) for q in rng.permutation(outputs)]
    width = int(rng.integers(0, len(order) + 1))
    pins = int(rng.integers(0, len(order) - width + 1))
    for keep, fixed in (
        (order[:width], order[width : width + pins]),  # random pins
        ([], order),  # pinned only: point queries
        (order, []),  # nothing pinned: the sparse builder
    ):
        rows = rng.integers(0, 2, size=(3, len(fixed))).astype(bool)
        pairs = zip(
            build_conditioned_window_tensors(got, keep, fixed, rows, max_dense_bits=None),
            build_conditioned_window_tensors(want, keep, fixed, rows, max_dense_bits=None),
        )
        for row, (a, b) in zip(rows.tolist(), pairs):
            assert same_tensor(a, b), ("conditioned", keep, fixed, row)


# -- the backward walk against Pauli conjugation ------------------------------

#: gate names of a random Clifford circuit, each with its inverse's name
_INVERSE = {"S": "SDG", "SDG": "S", "SX": "SXDG", "SXDG": "SX", "SY": "SYDG", "SYDG": "SY"}


def conjugated(circuit: Circuit, pauli: PauliString) -> PauliString:
    """``U† P U``, one gate at a time: the last gate's inverse first."""
    for op in reversed(circuit.ops):
        name = _INVERSE.get(op.gate.name, op.gate.name)
        pauli = conjugate_pauli(pauli, name, op.qubits)
    return pauli


class TestBackwardWalk:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 9),
        depth=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_images_equal_pauli_conjugation(self, n, depth, seed):
        rng = np.random.default_rng(seed)
        circuit = random_clifford_circuit(n, depth, rng)
        rows = 2 * n + 3
        x, z = rng.random((2, rows, n)) < 0.4
        words = max(1, (n + 63) >> 6)
        packed = [tableau_module._pack_axis1(bits, words) for bits in (x, z)]
        got_x, got_z, sign = heisenberg_images(circuit, *packed)
        got_x = tableau_module._unpack_axis1(got_x, n)
        got_z = tableau_module._unpack_axis1(got_z, n)
        for r in range(rows):
            # the row is i^(x.z) X^x Z^z: the letter product, sign +
            pauli = PauliString(x[r], z[r], int(np.sum(x[r] & z[r])))
            want = conjugated(circuit, pauli)
            assert np.array_equal(got_x[r], want.x) and np.array_equal(got_z[r], want.z)
            assert (np.sum(want.x & want.z) + 2 * sign[r]) % 4 == want.phase

    @pytest.mark.parametrize(
        "gate",
        [g for g in gates.ONE_QUBIT_CLIFFORD_GATES if g.name != "I"]
        + [gates.CX, gates.CZ, gates.SWAP, gates.CY],
        ids=lambda gate: gate.name,
    )
    def test_every_gate_walks_back_to_its_conjugation(self, gate):
        """Each gate's steps, inverted, on wires in reverse order: all 16
        two-qubit Paulis conjugate as ``paulis.pauli`` says."""
        circuit = Circuit(2).append(gate, *(1, 0)[: gate.num_qubits])
        letters = list(itertools.product(range(2), repeat=4))
        x = np.array([[a, b] for a, b, _c, _d in letters], dtype=bool)
        z = np.array([[c, d] for _a, _b, c, d in letters], dtype=bool)
        packed = [tableau_module._pack_axis1(bits, 1) for bits in (x, z)]
        got_x, got_z, sign = heisenberg_images(circuit, *packed)
        got_x = tableau_module._unpack_axis1(got_x, 2)
        got_z = tableau_module._unpack_axis1(got_z, 2)
        for r in range(16):
            want = conjugated(circuit, PauliString(x[r], z[r], int(np.sum(x[r] & z[r]))))
            assert np.array_equal(got_x[r], want.x) and np.array_equal(got_z[r], want.z)
            assert (np.sum(want.x & want.z) + 2 * sign[r]) % 4 == want.phase

    def test_the_inverse_program(self):
        program = [("H", 0), ("S", 1), ("CX", 0, 1), ("Y", 2)]
        assert inverse_program(program) == [
            ("Y", 2),
            ("CX", 0, 1),
            ("S", 1),
            ("Z", 1),
            ("H", 0),
        ]

    def test_the_map_rows(self):
        """Row q is the image of Z_q, row n + j that of X on output j."""
        body = Circuit(3).append(gates.H, 0).append(gates.CX, 0, 1).append(gates.S, 2)
        pauli_map = PauliMap(body, [1], [2, 0])
        x, z = pauli_map.bits()
        n = 3
        for row, (letter, wire) in enumerate(
            [("Z", 0), ("Z", 1), ("Z", 2), ("X", 2), ("X", 0)]
        ):
            want = conjugated(body, PauliString.single(n, wire, letter))
            assert np.array_equal(x[row], want.x) and np.array_equal(z[row], want.z)
            assert (np.sum(want.x & want.z) + 2 * pauli_map.sign[row]) % 4 == want.phase


# -- one job, one walk ----------------------------------------------------------


def counting_compiles(monkeypatch) -> list:
    compiled = []
    real = tableau_module._compile_ops

    def counting(ops):
        compiled.append(len(ops))
        return real(ops)

    monkeypatch.setattr(tableau_module, "_compile_ops", counting)
    return compiled


class TestFragmentIsOneWalk:
    @pytest.mark.parametrize("qi,qo", [(0, 0), (1, 1), (2, 1), (0, 2), (3, 0)])
    def test_map_tensors_equal_the_per_variant_route(self, qi, qo):
        fragment = clifford_fragment(7, qi, qo, seed=qi * 3 + qo)
        for seed in range(3):
            assert_map_equals_the_per_variant_route(fragment, seed)

    def test_body_is_compiled_and_walked_once_per_fragment(self, monkeypatch):
        from repro import kernels

        fragment = clifford_fragment(8, 1, 1)
        compiled = counting_compiles(monkeypatch)
        before = kernels.counters_snapshot()["apply_layers"][0]
        data = FragmentEvaluator().evaluate(fragment)
        assert kernels.counters_snapshot()["apply_layers"][0] - before == 1
        assert compiled == [len(fragment.circuit.ops)]
        build_window_tensors(data, [[0], [1, 2]])
        next(build_conditioned_window_tensors(data, [0], [1], [[1]]))
        assert isinstance(data.pauli_map, PauliMap) and data.num_variants == 12

    def test_compiled_layers_stay_cached_on_the_variant(self):
        fragment = clifford_fragment(5, 1, 1)
        variant = variant_circuit(fragment, (3,), (2,))
        assert compile_clifford_layers(variant) is compile_clifford_layers(variant)

    def test_a_non_clifford_body_is_refused(self):
        body = seeded_body(4, 7).append(gates.T, 3)
        with pytest.raises(ValueError, match="non-Clifford gate T"):
            STAB.pauli_map(body, [0], [3])

    def test_equal_clifford_fragments_are_one_job(self):
        """Fragments equal in body and cut wires share one job; other cut
        wires key apart.  The variants are still counted one by one."""
        fragment = clifford_fragment(6, 1, 1, seed=15)
        twin = Fragment(
            index=1,
            circuit=fragment.circuit.copy(),
            quantum_inputs=fragment.quantum_inputs,
            quantum_outputs=fragment.quantum_outputs,
            circuit_outputs=fragment.circuit_outputs,
        )
        other = Fragment(
            index=2,
            circuit=fragment.circuit.copy(),
            quantum_inputs=[(0, 1)],
            quantum_outputs=fragment.quantum_outputs,
            circuit_outputs=fragment.circuit_outputs,
        )
        evaluator = FragmentEvaluator()
        assignments, jobs = evaluator._build_jobs([fragment, twin, other], 0)
        assert len(jobs) == 2 and [spec for _i, spec, _key in assignments] == [None] * 3
        keys = [key for _i, _spec, key in assignments]
        assert keys[0] == keys[1] != keys[2]
        assert evaluator.dry_run([fragment, twin, other])["jobs"] == 3 * 12
        data = evaluator.evaluate_all([fragment, twin, other])
        assert data[0].pauli_map is data[1].pauli_map is not data[2].pauli_map
        assert evaluator.last_stats["jobs"] == 3 * 12

    def test_cut_wires_are_checked(self):
        """A wire out of range or named twice in one list is refused before
        anything runs; one wire may still be both an input and an output."""
        body = seeded_body(4, 7)
        bad = (([-1], []), ([4], []), ([0, 0], []), ([], [1, 1]), ([], [4]))
        for inputs, outputs in bad:
            with pytest.raises(ValueError, match="distinct wires"):
                STAB.pauli_map(body, inputs, outputs)
        shared = STAB.pauli_map(body, [2], [2])
        assert shared.x.shape == (4 + 1, 1) and shared.inputs == shared.outputs == (2,)


# -- the derived space ------------------------------------------------------------


class TestDerivedSpace:
    def test_derived_space_is_emptied_by_an_append(self):
        circuit = Circuit(2).append(gates.H, 0)
        circuit.derived()["x"] = 1
        assert circuit.derived() == {"x": 1}
        circuit.append(gates.CX, 0, 1)
        assert circuit.derived() == {}

    def test_a_circuit_differing_in_one_op_compiles_apart(self):
        circuit = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        other = Circuit(2).append(gates.S, 0).append(gates.CX, 0, 1)
        assert compile_clifford_layers(other) != compile_clifford_layers(circuit)
        assert circuit_fingerprint(other) != circuit_fingerprint(circuit)

    def test_is_clifford_is_remembered_until_the_ops_change(self):
        circuit = Circuit(2).append(gates.H, 0)
        assert circuit.is_clifford and circuit.derived()["is_clifford"] is True
        circuit.append(gates.T, 1)
        assert not circuit.is_clifford and circuit.derived()["is_clifford"] is False
        other = Circuit(2).append(gates.H, 0).append(gates.S, 1)
        assert other.is_clifford
        assert circuit_fingerprint(other) != circuit_fingerprint(circuit)

    def test_a_body_differing_in_one_op_maps_apart(self):
        fragment = clifford_fragment(6, 1, 1, seed=5)
        program = compile_clifford_layers(fragment.circuit)
        ops = list(fragment.circuit.ops)
        ops[3] = Operation(gates.S, (2,))
        other = Fragment(
            index=0,
            circuit=Circuit(6, ops),
            quantum_inputs=fragment.quantum_inputs,
            quantum_outputs=fragment.quantum_outputs,
            circuit_outputs=fragment.circuit_outputs,
        )
        assert compile_clifford_layers(other.circuit) != program
        assert fragment_fingerprint(other.circuit, *other.cut_wires) != (
            fragment_fingerprint(fragment.circuit, *fragment.cut_wires)
        )
        assert_map_equals_the_per_variant_route(other)

    def test_an_appended_body_is_recompiled(self):
        fragment = clifford_fragment(6, 1, 1, seed=5)
        map_data(fragment)
        fragment.circuit.append(gates.H, 0).append(gates.CX, 0, 5)
        assert_map_equals_the_per_variant_route(fragment)

    def test_walking_keeps_only_the_compiled_body(self):
        """Nothing per variant outlives the walk: the body's derived space
        holds its table, its compiled program and that program's inverse
        alone."""
        fragment = clifford_fragment(6, 2, 1, seed=4)
        map_data(fragment)
        map_data(fragment)
        assert set(fragment.circuit.derived()) == {
            "table",
            "clifford_layers",
            "inverse_layers",
        }

    def test_the_inverse_program_is_built_once_until_the_ops_change(
        self, monkeypatch
    ):
        """Two readouts of one circuit walk one inverse program; an append
        inverts the new program."""
        inverted = []
        real = tableau_module.inverse_program

        def counting(program):
            inverted.append(len(program))
            return real(program)

        monkeypatch.setattr(tableau_module, "inverse_program", counting)
        circuit = seeded_body(6, 3, hadamards=0.5)
        outcome_distribution(circuit, [0, 2, 4])
        pauli_expectations(circuit, [PauliString.single(6, 1, "Z")])
        assert inverted == [len(compile_clifford_layers(circuit))]
        circuit.append(gates.H, 0)
        outcome_distribution(circuit, [0])
        assert inverted[1:] == [len(compile_clifford_layers(circuit))]


# -- derived caches do not travel ------------------------------------------------------


def same_map(got: PauliMap, want: PauliMap) -> bool:
    return (got.n, got.inputs, got.outputs) == (want.n, want.inputs, want.outputs) and all(
        getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for name in ("x", "z", "sign")
    )


class TestPickling:
    def test_simulating_a_variant_does_not_grow_its_pickle(self):
        fragment = clifford_fragment(9, 1, 1, seed=2)
        variant = variant_circuit(fragment, (2,), (2,))
        cold = len(pickle.dumps(variant))
        expected = STAB.affine_distribution(variant)
        map_data(fragment)
        assert fragment.circuit.derived() and variant.derived()
        assert len(pickle.dumps(variant)) == cold
        assert len(pickle.dumps(fragment.circuit)) == len(
            pickle.dumps(fragment.circuit.copy())
        )
        clone = pickle.loads(pickle.dumps(variant))
        assert clone.derived() == {}
        assert clone.ops == variant.ops
        assert clone.measured_qubits == variant.measured_qubits
        assert circuit_fingerprint(clone) == circuit_fingerprint(variant)
        got = STAB.affine_distribution(clone)
        assert np.array_equal(got.A, expected.A) and np.array_equal(got.b, expected.b)

    def test_a_pickled_fragment_walks_to_the_same_map(self):
        fragment = clifford_fragment(7, 1, 2, seed=6)
        expected = map_data(fragment).pauli_map
        clone = pickle.loads(pickle.dumps(fragment))
        assert clone.circuit.derived() == {}
        assert clone.cut_wires == fragment.cut_wires == ([0], [6, 5])
        assert same_map(map_data(clone).pauli_map, expected)
        assert same_map(pickle.loads(pickle.dumps(expected)), expected)

    def test_a_pickled_fragment_job_still_walks_its_body_once(self, monkeypatch):
        """What a service worker receives: the fragment
        job, pickled.  It compiles and walks the body once (the per-variant
        jobs it replaces did so 12 times), and its map's tensors are the
        spelled-out oracle's, byte for byte."""
        from repro import kernels

        fragment = clifford_fragment(20, 1, 1, seed=14)
        _assignments, jobs = FragmentEvaluator()._build_jobs([fragment], 0)
        (job,) = jobs.values()
        job = pickle.loads(pickle.dumps(job))
        assert job.fragment.circuit.derived() == {}
        compiled = counting_compiles(monkeypatch)
        before = kernels.counters_snapshot()["apply_layers"][0]
        value = evaluator_module._execute_job(job)
        assert kernels.counters_snapshot()["apply_layers"][0] - before == 1
        assert compiled == [len(fragment.circuit.ops)]
        assert same_map(value, map_data(fragment).pauli_map)
        windows = [[q] for q in range(19)] + [[3, 7, 1]]
        got = build_window_tensors(FragmentData(fragment, {}, value), windows)
        want = build_window_tensors(per_variant_data(fragment), windows)
        assert all(same_tensor(a, b) for a, b in zip(got, want))


# -- the map against the per-variant route, over random fragments ----------------


def seeded_body(n: int, seed: int, hadamards: float = 0.0) -> Circuit:
    """Random Clifford body; ``hadamards`` is the share of wires opened with
    an H."""
    rng = np.random.default_rng(seed)
    body = Circuit(n)
    for q in np.flatnonzero(rng.random(n) < hadamards):
        body.append(gates.H, int(q))
    for _ in range(int(rng.integers(0, 4 * n + 1))):
        kind = int(rng.integers(7))
        if kind >= 5 and n > 1:
            a, b = rng.choice(n, size=2, replace=False)
            body.append(gates.CX, int(a), int(b))
        else:
            gate = (gates.H, gates.S, gates.SDG, gates.X, gates.YPow(0.5))[kind % 5]
            body.append(gate, int(rng.integers(n)))
    return body


def cut_fragment(n, ins, outs, seed, hadamards=0.0) -> Fragment:
    """A seeded body cut on the wires ``ins`` (inputs) and ``outs`` (outputs)."""
    return Fragment(
        index=0,
        circuit=seeded_body(n, seed, hadamards),
        quantum_inputs=list(enumerate(ins)),
        quantum_outputs=list(enumerate(outs, start=len(ins))),
        circuit_outputs=[(q, q) for q in range(n) if q not in outs],
    )


@st.composite
def cut_fragments(draw, widths, max_cuts):
    """Cut wires anywhere in the order, one wire possibly input and output
    at once."""
    n = draw(widths)
    wires = st.integers(0, n - 1)
    ins = draw(st.lists(wires, max_size=min(max_cuts, n), unique=True))
    # at most 4 cuts in all: 4**3 * 3**3 variants are explicit examples
    outs = draw(st.lists(wires, max_size=min(max_cuts, n, 4 - len(ins)), unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    return cut_fragment(n, ins, outs, seed)


def wide_fragment(n: int, ins, outs, seed: int) -> Fragment:
    """A body past 64 qubits whose outcomes hold a few random bits only, so
    the per-variant route can enumerate them: a few H, then CX, S, X, Z."""
    rng = np.random.default_rng(seed)
    body = Circuit(n)
    for q in rng.choice(n, size=4, replace=False):
        body.append(gates.H, int(q))
    for _ in range(3 * n):
        kind = int(rng.integers(4))
        if kind == 0:
            a, b = rng.choice(n, size=2, replace=False)
            body.append(gates.CX, int(a), int(b))
        else:
            body.append((gates.S, gates.X, gates.Z)[kind - 1], int(rng.integers(n)))
    return Fragment(
        index=0,
        circuit=body,
        quantum_inputs=list(enumerate(ins)),
        quantum_outputs=list(enumerate(outs, start=len(ins))),
        circuit_outputs=[(q, q) for q in range(n) if q not in outs],
    )


class TestMapTwin:
    @settings(max_examples=25, deadline=None)
    @given(cut_fragments(st.integers(1, 8), max_cuts=3), st.integers(0, 2**32 - 1))
    # first and last wire cut, one of them also an input
    @example(cut_fragment(5, [4, 2], [0, 4], 1), 0)
    @example(cut_fragment(5, [1], [0, 3, 4], 2), 1)
    @example(cut_fragment(4, [3], [3], 3), 2)
    # no circuit output: every wire ends at a cut
    @example(cut_fragment(3, [0], [0, 1, 2], 4), 3)
    @example(cut_fragment(2, [0, 1], [1, 0], 5), 4)
    # 64 preparations; input wires that are all of the cut wires
    @example(cut_fragment(6, [5, 0, 3], [], 5), 5)
    # qi = qo = 3, one wire both: 1728 variants
    @example(cut_fragment(6, [0, 2, 4], [4, 1, 5], 6, hadamards=0.5), 6)
    def test_every_fragment_equals_the_per_variant_route(self, fragment, seed):
        assert_map_equals_the_per_variant_route(fragment, seed)

    @settings(max_examples=3, deadline=None)
    @given(
        n=st.integers(65, 100),
        cuts=st.lists(st.integers(0, 64), min_size=2, max_size=3, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_fragment_wider_than_64_qubits(self, n, cuts, seed):
        fragment = wide_fragment(n, cuts[:-1], cuts[-1:], seed)
        assert_map_equals_the_per_variant_route(fragment, seed)


# -- threads share the body (as a service worker's slots do) -----------------------------


def test_threads_sharing_one_body_agree_with_serial_results():
    """More threads than cores, each walking the same body (one compiled
    program on its derived space) for all 144 variants at once."""
    fragment = clifford_fragment(20, 2, 2, seed=12)
    assert fragment.num_variants == 144
    expected = map_data(fragment).pauli_map
    results, errors = {}, []
    barrier = threading.Barrier(8)

    def work(slot):
        try:
            barrier.wait(timeout=30)
            results[slot] = STAB.pauli_map(fragment.circuit, *fragment.cut_wires)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    assert len(results) == 8
    for slot, got in results.items():
        assert same_map(got, expected), slot


# -- batched tomography ---------------------------------------------------------------


class JointOnly(VariantData):
    """Sampled data behind the per-window ``joint`` interface alone."""

    def __init__(self, sampled: SampledVariantData):
        self.sampled = sampled

    def joint(self, cols):
        return self.sampled.joint(cols)


def sampled_fragment_data(qi, qo, shots, seed, n=9):
    rng = np.random.default_rng(seed)
    fragment = clifford_fragment(n, qi, qo, seed)
    bias = rng.uniform(0.2, 0.8, size=n)
    results = {
        spec: SampledVariantData.from_bits(rng.random((shots, n)) < bias)
        for spec in all_variants(fragment)
    }
    return FragmentData(fragment, results)


#: widths 0, 1, 2 and 5, a repeated window, a permuted one, out of order
WINDOWS = [[], [3], [0, 4], [3], [1, 2, 0, 5, 4], [], [4, 0], [2], [5, 1, 3, 0, 2]]


class TestBuildWindowTensors:
    @pytest.mark.parametrize("qi,qo", list(itertools.product(range(3), repeat=2)))
    def test_one_pass_equals_per_window_builds(self, qi, qo):
        """Odd shot count: division and summation order must match exactly."""
        data = sampled_fragment_data(qi, qo, shots=777, seed=10 * qi + qo)
        one_by_one = FragmentData(
            data.fragment, {k: JointOnly(v) for k, v in data.results.items()}
        )
        windows = [w for w in WINDOWS if all(q < 9 - qo for q in w)]
        batched = build_window_tensors(data, windows)
        assert len(batched) == len(windows)
        for window, tensor in zip(windows, batched):
            assert tensor.shape == (4,) * (qi + qo) + (2 ** len(window),)
            alone = build_fragment_tensor(one_by_one, window)
            assert np.array_equal(tensor, alone), window
            assert np.array_equal(tensor, build_fragment_tensor(data, window))

    @pytest.mark.parametrize("qi,qo", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2)])
    def test_sampled_equals_dense_wrapping(self, qi, qo):
        """Power-of-two shots: marginalising probabilities is exact too."""
        data = sampled_fragment_data(qi, qo, shots=512, seed=7 * qi + qo)
        dense = FragmentData(
            data.fragment,
            {
                k: DenseVariantData(Distribution.from_bit_rows(v.bits))
                for k, v in data.results.items()
            },
        )
        windows = [w for w in WINDOWS if all(q < 9 - qo for q in w)]
        for project in (False, True):
            got = build_window_tensors(data, windows, project)
            expected = build_window_tensors(dense, windows, project)
            for window, a, b in zip(windows, got, expected):
                assert np.array_equal(a, b), (window, project)

    def test_identical_windows_share_one_tensor(self):
        data = sampled_fragment_data(1, 1, shots=64, seed=1)
        tensors = build_window_tensors(data, [[], [2], [], [2]])
        assert tensors[0] is tensors[2] and tensors[1] is tensors[3]

    def test_sampled_variants_are_visited_without_joint(self, monkeypatch):
        def refuse(self, cols):
            raise AssertionError("per-window joint() on sampled data")

        monkeypatch.setattr(SampledVariantData, "joint", refuse)
        data = sampled_fragment_data(1, 1, shots=100, seed=3)
        build_window_tensors(data, [[0], [1], [0, 1], []])

    def test_oversized_tensors_are_refused_before_allocating(self):
        """qi + qo = 3 and a 24-bit window: 2**30 entries, 8 GiB."""
        fragment = Fragment(
            index=0,
            circuit=Circuit(26),
            quantum_inputs=[(0, 0)],
            quantum_outputs=[(1, 24), (2, 25)],
            circuit_outputs=[(q, q) for q in range(24)],
        )
        data = FragmentData(fragment, {})
        window = list(range(24))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            for build in (
                lambda: build_fragment_tensor(data, window),
                lambda: build_window_tensors(data, [[0], window]),
                lambda: next(
                    build_conditioned_window_tensors(data, window, [], [[]])
                ),
            ):
                with pytest.raises(ReconstructionMemoryError, match="2\\*\\*26"):
                    build()
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 1 << 20
        # the limit is the caller's to raise, and 2**26 entries still fit it
        assert 16 * 4**3 * 2**16 == 2**26
        wide = list(range(16))
        with pytest.raises(KeyError):  # past the guard, at the first variant
            build_window_tensors(data, [wide] * 3 + [wide[::-1]] * 13)
        with pytest.raises(ReconstructionMemoryError):
            build_window_tensors(data, [wide], max_dense_bits=21)


# -- end to end: the shared body against the per-variant route ------------------------------


@pytest.fixture(scope="module")
def hwea30():
    rng = np.random.default_rng(4)
    return HWEA(30, 3).near_clifford_instance(num_t=1, rng=rng).measure_all()


def defeat_sharing(monkeypatch):
    """Every Clifford fragment evaluated by the per-variant route: each
    variant spelled out, evolved from scratch and handed to the generic
    tomography, nothing shared."""

    def per_variant(_self, body, inputs, outputs):
        fragment = Fragment(
            index=0,
            circuit=body,
            quantum_inputs=list(enumerate(inputs)),
            quantum_outputs=list(enumerate(outputs)),
        )
        results = per_variant_data(fragment).results
        return tuple(results[spec] for spec in all_variants(fragment))

    monkeypatch.setattr(StabilizerSimulator, "pauli_map", per_variant)


def test_seeded_marginals_identical_without_sharing(hwea30, monkeypatch):
    sampling = SamplingConfig(shots=600, seed=11)
    windows = [[3], [3, 17], [29], [17]]

    def run():
        sim = SuperSim(sampling=sampling)
        singles = sim.single_qubit_marginals(hwea30)
        joint = sim.marginal_probabilities(hwea30, windows)
        return singles, joint

    runs = [run()]
    with monkeypatch.context() as patch:
        defeat_sharing(patch)
        runs.append(run())
    base_singles, base_joint = runs[0]
    assert np.allclose(base_singles.sum(axis=1), 1.0)
    for singles, joint in runs[1:]:
        assert np.array_equal(singles, base_singles)
        for a, b in zip(joint, base_joint):
            assert np.array_equal(a.keys_array, b.keys_array)
            assert np.array_equal(a.values_array, b.values_array)
    # windows [3] and [17] of the joint call are rows of the single-qubit table
    assert base_joint[0][1] == base_singles[3, 1]
    assert base_joint[3][1] == base_singles[17, 1]


def test_exact_recursive_runs_identical_without_sharing(monkeypatch):
    """The ledger's wide-chain shape at 31q: one Clifford fragment with
    qi = qo = 2, 144 variants, every one read off the body's one map."""
    n = 31
    circuit = Circuit(n).append(gates.H, 0)
    for q in range(n - 1):
        circuit.append(gates.CX, q, q + 1)
    for q in (13, 18):
        circuit.append(gates.XPow(0.25), q)
    for q in range(0, n - 1, 2):
        circuit.append(gates.CX, q, q + 1)
    circuit.measure_all()
    reconstruction = ReconstructionConfig(qubit_limit=8, top_k=16)

    def run():
        return SuperSim(reconstruction=reconstruction).run(circuit)

    results = [run()]
    with monkeypatch.context() as patch:
        defeat_sharing(patch)
        results.append(run())
    base = results[0]
    assert base.stats.mode == "recursive"
    assert max(f.num_variants for f in base.cut_circuit.fragments) == 144
    assert base.stats.covered_probability > 1.0 - 1e-9
    for other in results[1:]:
        assert np.array_equal(other.distribution.keys_array, base.distribution.keys_array)
        assert np.array_equal(
            other.distribution.values_array, base.distribution.values_array
        )
        assert other.stats.covered_probability == base.stats.covered_probability
