"""Per-fragment work is done once — and changes no result.

A noiseless Clifford fragment is one job: the stabilizer simulator evolves
its body once with the input wires Bell-paired to ancillas, sweeps it
once, turns a preparation into a post-selection of the ancillas
(``substitute_symbol``) and measures the cut wires last, moving their rows
back into place (``move_outcome_row``) — :func:`choi_variants`.  Each
variant spelled out by ``variant_circuit`` and evolved from scratch is the
oracle.  ``build_window_tensors`` builds every window's tensor in one pass
over a fragment's variants.  Each test pins one equivalence that rests on.
"""

import itertools
import pickle
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.analysis import Distribution
from repro.apps.hwea import HWEA
from repro.backends.cache import circuit_fingerprint
from repro.circuits import Circuit, gates
from repro.circuits.circuit import Operation
from repro.core import (
    ExecutionConfig,
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
from repro.errors import PostSelectionError
from repro.stabilizer import StabilizerSimulator
from repro.stabilizer import tableau as tableau_module
from repro.stabilizer.simulator import choi_variants
from repro.stabilizer.tableau import (
    Tableau,
    compile_clifford_layers,
    move_outcome_row,
    substitute_symbol,
)

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


# -- the oracle: each variant spelled out and evolved from scratch ---------------


def sequential(circuit: Circuit):
    """Evolve the variant's op list from |0..0>, sweep every measured wire."""
    tableau = Tableau(circuit.n_qubits)
    tableau.apply_circuit(circuit)
    return tableau.measurement_distribution(circuit.measured_qubits)


def shared_forms(fragment: Fragment):
    """``(swept, forms)`` of the fragment's one evolution."""
    return choi_variants(fragment.circuit, *fragment.cut_wires)


def assert_same_form(got, expected, context=None):
    assert got.A.dtype == expected.A.dtype == np.bool_
    assert got.A.shape == expected.A.shape, context
    assert np.array_equal(got.A, expected.A), context
    assert np.array_equal(got.b, expected.b), context


class TestVariantsAreOneEvolution:
    @pytest.mark.parametrize("qi,qo", [(0, 0), (1, 1), (2, 1), (0, 2)])
    def test_every_variant_equals_its_spelled_out_circuit(self, qi, qo):
        fragment = clifford_fragment(7, qi, qo, seed=qi * 3 + qo)
        forms = STAB.affine_variants(fragment.circuit, *fragment.cut_wires)
        specs = list(all_variants(fragment))
        assert len(forms) == len(specs) == fragment.num_variants
        for spec, form in zip(specs, forms):
            assert_same_form(form, sequential(variant_circuit(fragment, *spec)), spec)

    def test_body_is_compiled_and_evolved_once_per_fragment(self, monkeypatch):
        fragment = clifford_fragment(8, 1, 1)
        body_len = len(fragment.circuit.ops)
        compiled = []
        real = tableau_module._compile_ops

        def counting(ops):
            compiled.append(len(ops))
            return real(ops)

        monkeypatch.setattr(tableau_module, "_compile_ops", counting)
        from repro import kernels

        before = kernels.counters_snapshot()["apply_layers"][0]
        forms = STAB.affine_variants(fragment.circuit, *fragment.cut_wires)
        assert len(forms) == 12
        assert kernels.counters_snapshot()["apply_layers"][0] - before == 1
        assert compiled == [body_len]

    def test_compiled_layers_stay_cached_on_the_variant(self):
        fragment = clifford_fragment(5, 1, 1)
        variant = variant_circuit(fragment, (3,), (2,))
        assert compile_clifford_layers(variant) is compile_clifford_layers(variant)

    def test_a_non_clifford_body_is_refused(self):
        body = seeded_body(4, 7).append(gates.T, 3)
        with pytest.raises(ValueError, match="non-Clifford gate T"):
            STAB.affine_variants(body, [0], [3])

    def test_equal_clifford_fragments_are_one_job(self):
        """Fragments equal in body and cut wires share one job, each
        variant reading its own slot of it; other cut wires key apart."""
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
        assignments, jobs = FragmentEvaluator()._build_jobs(
            [fragment, twin, other], 0
        )
        assert len(jobs) == 2 and len(assignments) == 3 * 12
        keys = [{key for i, *_, key, _slot in assignments if i == f} for f in range(3)]
        assert keys[0] == keys[1] and len(keys[0]) == 1 and keys[0] != keys[2]
        slots = [slot for i, *_, slot in assignments if i == 1]
        assert slots == list(range(12))

    def test_cut_wires_are_checked(self):
        """A wire out of range or named twice in one list is refused before
        anything runs, not misreported as a failed post-selection; one wire
        may still be both an input and an output."""
        body = seeded_body(4, 7)
        bad = (([-1], []), ([4], []), ([0, 0], []), ([], [1, 1]), ([], [4]))
        for inputs, outputs in bad:
            with pytest.raises(ValueError, match="distinct wires"):
                STAB.affine_variants(body, inputs, outputs)
        assert len(STAB.affine_variants(body, [2], [2])) == 12


# -- the derived space ------------------------------------------------------------


class TestDerivedSpace:
    def test_derived_space_is_emptied_by_mutation(self):
        circuit = Circuit(2).append(gates.H, 0)
        circuit.derived()["x"] = 1
        assert circuit.derived() == {"x": 1}
        circuit.append(gates.CX, 0, 1)
        assert circuit.derived() == {}
        circuit.derived()["x"] = 2
        circuit.ops[0] = Operation(gates.S, (0,))
        assert circuit.derived() == {}

    def test_is_clifford_is_remembered_until_the_ops_change(self):
        circuit = Circuit(2).append(gates.H, 0)
        assert circuit.is_clifford and circuit.derived()["is_clifford"] is True
        circuit.append(gates.T, 1)
        assert not circuit.is_clifford and circuit.derived()["is_clifford"] is False
        circuit.ops[1] = Operation(gates.S, (1,))
        assert circuit.is_clifford

    def test_a_mutated_body_is_recompiled(self):
        fragment = clifford_fragment(6, 1, 1, seed=5)
        shared_forms(fragment)
        fragment.circuit.ops[3] = Operation(gates.S, (2,))
        _swept, forms = shared_forms(fragment)
        for spec, form in zip(all_variants(fragment), forms):
            assert_same_form(form, sequential(variant_circuit(fragment, *spec)), spec)

    def test_an_appended_body_is_recompiled(self):
        fragment = clifford_fragment(6, 1, 1, seed=5)
        shared_forms(fragment)
        fragment.circuit.append(gates.H, 0).append(gates.CX, 0, 5)
        check_every_variant(fragment)

    def test_sweeping_keeps_only_the_compiled_body(self):
        """Nothing per preparation or per variant outlives the sweep: the
        body's derived space holds its compiled program alone."""
        fragment = clifford_fragment(6, 2, 1, seed=4)
        shared_forms(fragment)
        shared_forms(fragment)
        assert set(fragment.circuit.derived()) == {"clifford_layers"}


# -- derived caches do not travel ------------------------------------------------------


class TestPickling:
    def test_simulating_a_variant_does_not_grow_its_pickle(self):
        fragment = clifford_fragment(9, 1, 1, seed=2)
        variant = variant_circuit(fragment, (2,), (2,))
        cold = len(pickle.dumps(variant))
        expected = STAB.affine_distribution(variant)
        shared_forms(fragment)
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

    def test_a_pickled_fragment_sweeps_to_the_same_forms(self):
        fragment = clifford_fragment(7, 1, 2, seed=6)
        _swept, expected = shared_forms(fragment)
        clone = pickle.loads(pickle.dumps(fragment))
        assert clone.circuit.derived() == {}
        assert clone.cut_wires == fragment.cut_wires == ([0], [6, 5])
        _swept, forms = shared_forms(clone)
        assert len(forms) == len(expected) == 36
        for spec, got, want in zip(all_variants(fragment), forms, expected):
            assert_same_form(got, want, spec)

    def test_a_pickled_fragment_job_still_evolves_its_body_once(self, monkeypatch):
        """What a process pool or a service worker receives: the fragment
        job, pickled.  It compiles and evolves the body once (the
        per-variant jobs it replaces did so 12 times), and its value is the
        spelled-out oracle, bit for bit."""
        from repro import kernels

        fragment = clifford_fragment(20, 1, 1, seed=14)
        _assignments, jobs = FragmentEvaluator()._build_jobs([fragment], 0)
        (job,) = jobs.values()
        job = pickle.loads(pickle.dumps(job))
        assert job.fragment.circuit.derived() == {}
        compiled = []
        real = tableau_module._compile_ops

        def counting(ops):
            compiled.append(len(ops))
            return real(ops)

        monkeypatch.setattr(tableau_module, "_compile_ops", counting)
        before = kernels.counters_snapshot()["apply_layers"][0]
        value = evaluator_module._execute_job(job)
        assert kernels.counters_snapshot()["apply_layers"][0] - before == 1
        assert compiled == [len(fragment.circuit.ops)]
        specs = list(all_variants(fragment))
        assert len(value) == len(specs) == 12
        for spec, data in zip(specs, value):
            expected = STAB.run(variant_circuit(fragment, *spec)).measurement_distribution(
                tuple(range(20))
            )
            assert_same_form(data.affine, expected, spec)


# -- measuring late: one sweep per fragment -------------------------------------------


def seeded_body(n: int, seed: int, hadamards: float = 0.0) -> Circuit:
    """Random Clifford body; ``hadamards`` is the share of wires opened with
    an H, so a wide body measures into more than 64 symbols."""
    rng = np.random.default_rng(seed)
    body = Circuit(n)
    for q in np.flatnonzero(rng.random(n) < hadamards):
        body.append(gates.H, int(q))
    for _ in range(int(rng.integers(0, 4 * n + 1))):
        kind = int(rng.integers(7))
        if kind >= 5:
            a, b = rng.choice(n, size=2, replace=False)
            body.append(gates.CX, int(a), int(b))
        else:
            gate = (gates.H, gates.S, gates.SDG, gates.X, gates.YPow(0.5))[kind]
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
    # at most 4 cuts in all: 4**3 * 3**3 variants are one explicit example
    outs = draw(st.lists(wires, max_size=min(max_cuts, n, 4 - len(ins)), unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    return cut_fragment(n, ins, outs, seed, hadamards=float(n > 64))


def check_every_variant(fragment):
    _swept, forms = shared_forms(fragment)
    specs = list(all_variants(fragment))
    assert len(forms) == len(specs)
    for spec, form in zip(specs, forms):
        assert_same_form(form, sequential(variant_circuit(fragment, *spec)), spec)
    return forms


class TestMeasuringLate:
    @settings(max_examples=25, deadline=None)
    @given(cut_fragments(st.integers(2, 8), max_cuts=3))
    # first and last wire cut, one of them also an input
    @example(cut_fragment(5, [4, 2], [0, 4], 1))
    @example(cut_fragment(5, [1], [0, 3, 4], 2))
    @example(cut_fragment(4, [3], [3], 3))
    @example(cut_fragment(4, [0, 1, 3], [3, 2, 0], 4))
    # 64 preparations; input wires that are all of the cut wires
    @example(cut_fragment(6, [5, 0, 3], [], 5))
    @example(cut_fragment(5, [1, 4], [4, 1], 6))
    @example(cut_fragment(6, [0, 2], [4], 7))
    def test_every_variant_equals_the_sequential_sweep(self, fragment):
        check_every_variant(fragment)

    @settings(max_examples=5, deadline=None)
    @given(cut_fragments(st.integers(66, 140), max_cuts=2))
    def test_wide_fragments_past_64_symbols(self, fragment):
        first = sequential(variant_circuit(fragment, *next(all_variants(fragment))))
        assume(first.n_free > 64)
        check_every_variant(fragment)

    def test_one_sweep_per_preparation(self, monkeypatch):
        """One sweep per body; a preparation costs one measurement per
        input wire's ancilla, a variant one per cut wire."""
        fragment = clifford_fragment(9, 2, 2, seed=3)
        calls = []
        real = Tableau.measure_symbolic

        def counting(self, q):
            calls.append(q)
            return real(self, q)

        monkeypatch.setattr(Tableau, "measure_symbolic", counting)
        _swept, forms = shared_forms(fragment)
        assert len(forms) == 144
        assert len(calls) == (9 - 2) + 4**2 * 2 + 144 * 2

    # -- the three kinds of move, by hand ----------------------------------------

    def test_pure_permutation_by_hand(self):
        # rows f0, f0^1, f1: the pivot row of f1 moves to the front and takes
        # its column along; nothing else changes
        A = np.array([[1, 0], [1, 0], [0, 1]], dtype=bool)
        b = np.array([0, 1, 0], dtype=bool)
        A, b = move_outcome_row(A, b, 2, 0)
        assert A.tolist() == [[True, False], [False, True], [False, True]]
        assert b.tolist() == [False, False, True]
        # a dependent row moving up, but not past the pivot it depends on
        A = np.array([[1, 0], [0, 1], [1, 0]], dtype=bool)
        b = np.array([0, 0, 1], dtype=bool)
        A, b = move_outcome_row(A, b, 2, 1)
        assert A.tolist() == [[True, False], [True, False], [False, True]]
        assert b.tolist() == [False, True, False]
        # through the simulator: wire 0 is the cut, measured in X on |0>
        _z, got, _y = STAB.affine_variants(Circuit(2), [], [0])
        assert got.A.tolist() == [[True], [False]] and got.b.tolist() == [False, False]

    def test_re_pivot_by_hand(self):
        # rows f0, f1, f0^f1^1, f1: the third row moves in front of both its
        # pivots, becomes the pivot g = f0^f1^1 of the later one (f1), and
        # every row that held f1 now reads g^f0^1
        A = np.array([[1, 0], [0, 1], [1, 1], [0, 1]], dtype=bool)
        b = np.array([0, 0, 1, 0], dtype=bool)
        A, b = move_outcome_row(A, b, 2, 0)
        assert A.tolist() == [[True, False], [False, True], [True, True], [True, True]]
        assert b.tolist() == [False, False, True, True]
        # through the simulator: a Bell pair with the cut wire flipped.  Wire
        # 1 is measured first (f, pivot) and wire 0 reads f^1; in wire order
        # wire 0 is the pivot g and wire 1 reads g^1 — a permutation of the
        # first form would have put the constant on the wrong row
        body = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1).append(gates.X, 0)
        got = STAB.affine_variants(body, [], [0])[0]
        assert got.A.tolist() == [[True], [True]] and got.b.tolist() == [False, True]
        assert_same_form(got, sequential(body.copy().measure_all()))

    def test_rank_zero_by_hand(self):
        A = np.zeros((3, 0), dtype=bool)
        b = np.array([1, 0, 1], dtype=bool)
        A, b = move_outcome_row(A, b, 2, 0)
        assert A.shape == (3, 0) and b.tolist() == [True, True, False]
        body = Circuit(3).append(gates.X, 0).append(gates.CX, 0, 2)
        got = STAB.affine_variants(body, [], [0, 1])[0]
        assert got.A.shape == (3, 0) and got.b.tolist() == [True, False, True]

    # -- post-selection: one symbol substituted away ------------------------------

    def test_substitution_by_hand(self):
        # rows f0, f1, f0^f1^1 given f0^f1 = 1: f1 reads f0^1, the last row 0
        A = np.array([[1, 0], [0, 1], [1, 1]], dtype=bool)
        b = np.array([0, 0, 1], dtype=bool)
        A, b = substitute_symbol(A, b, np.array([1, 1], dtype=bool), True)
        assert A.tolist() == [[True], [True], [False]]
        assert b.tolist() == [False, True, False]
        # a symbol opened after these rows were measured is in none of them
        same, _ = substitute_symbol(A, b, np.array([0, 1], dtype=bool), True)
        assert same is A

    def test_two_ancillas_eliminated_in_a_row(self):
        """|11> through CX(0, 1) by post-selection: the second condition is
        read off a tableau whose symbols the first one renumbered."""
        tableau = Tableau(4)
        for ancilla, q in ((2, 0), (3, 1)):
            tableau.h(ancilla)
            tableau.cx(ancilla, q)
        tableau.cx(0, 1)
        A, b = tableau.measure_symbolic_rows((0, 1))
        assert A.tolist() == [[True, False], [False, True]] and not b.any()
        forms = []
        for ancilla in (2, 3):
            coeffs, const = tableau.measure_symbolic(ancilla)
            tableau.substitute_symbol(coeffs, const ^ True)
            A, b = substitute_symbol(A, b, coeffs, const ^ True)
            forms.append((coeffs.tolist(), bool(const), A.tolist(), b.tolist()))
        assert forms == [
            ([True, False], False, [[False], [True]], [True, False]),  # in0 = f0
            ([True], True, [[], []], [True, False]),  # in1 = f0^f1, f0 = 1
        ]
        assert tableau.n_symbols == 0 and not tableau.sym.any()
        again, consts = tableau.measure_symbolic_rows((0, 1))
        assert again.shape == (2, 0) and consts.tolist() == [True, False]

    def test_deleting_a_symbol_in_word_0_of_more_than_64(self):
        """The column delete crosses the word boundary: every symbol past
        the deleted one is renumbered, in the tableau as in the rows."""
        n = 100
        tableau = Tableau(n)
        tableau.apply_circuit(seeded_body(n, 21, hadamards=1.0))
        wires = tuple(range(n))
        A, b = tableau.measure_symbolic_rows(wires)
        assert tableau.n_symbols > 70 and A[:, 64:].any()
        coeffs = np.zeros(tableau.n_symbols, dtype=bool)
        coeffs[[3, 17]] = True
        tableau.substitute_symbol(coeffs, True)
        A, b = substitute_symbol(A, b, coeffs, True)
        assert A.shape[1] == tableau.n_symbols
        # every wire is determined now: re-measuring reads the tableau's signs
        again, consts = tableau.measure_symbolic_rows(wires)
        assert np.array_equal(again, A) and np.array_equal(consts, b)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        qi=st.integers(0, 2),
        qo=st.integers(0, 2),
    )
    def test_a_choi_state_never_refuses_a_post_selection(self, n, seed, qi, qo):
        """The ancillas of a Choi state are maximally mixed, so measured in
        any product basis each one stays a fair coin whatever the others
        read: ``PostSelectionError`` cannot come out of a valid fragment."""
        rng = np.random.default_rng(seed)
        body = clifford_fragment(n, 0, 0, seed=seed).circuit
        inputs = [int(q) for q in rng.choice(n, size=min(qi, n), replace=False)]
        outputs = [int(q) for q in rng.choice(n, size=min(qo, n), replace=False)]
        _swept, forms = choi_variants(body, inputs, outputs)
        assert len(forms) == 4 ** len(inputs) * 3 ** len(outputs)

    def test_a_constant_ancilla_is_refused(self, monkeypatch):
        fragment = clifford_fragment(5, 1, 1, seed=13)
        real = Tableau.measure_symbolic

        def disentangled(self, q):
            coeffs, const = real(self, q)
            return (coeffs & False, const) if q >= 5 else (coeffs, const)

        monkeypatch.setattr(Tableau, "measure_symbolic", disentangled)
        with pytest.raises(PostSelectionError, match=r"input wire 0 .*\(0,\)"):
            STAB.affine_variants(fragment.circuit, *fragment.cut_wires)

    def test_rows_only_move_up(self):
        A, b = np.eye(2, dtype=bool), np.zeros(2, dtype=bool)
        assert move_outcome_row(A, b, 1, 1)[0] is A
        for src, dst in ((0, 1), (2, 0), (1, -1)):
            with pytest.raises(ValueError):
                move_outcome_row(A, b, src, dst)


# -- the swept Choi tableau is frozen ------------------------------------------------------


class TestSweptTableauIsFrozen:
    def swept(self):
        fragment = clifford_fragment(6, 1, 1, seed=8)
        swept, forms = shared_forms(fragment)
        assert swept.n == 6 + 1
        return fragment, swept, forms

    def test_measuring_the_swept_tableau_raises(self):
        fragment, swept, forms = self.swept()
        variant = variant_circuit(fragment, (2,), (1,))
        with pytest.raises(ValueError):
            swept.measurement_distribution(variant.measured_qubits)
        with pytest.raises(ValueError):
            swept.h(0)
        with pytest.raises(ValueError):
            swept.apply_circuit(variant)
        with pytest.raises(ValueError, match="frozen"):
            swept.apply_layers(compile_clifford_layers(variant))
        with pytest.raises(ValueError):
            swept.reset_symbols(6)
        with pytest.raises(ValueError, match="frozen"):
            swept.substitute_symbol(np.ones(1, dtype=bool), True)
        # half of a Bell pair: a random outcome, which has to write
        with pytest.raises(ValueError):
            swept.measure_symbolic(6)
        # every variant still reads the sweep it was built from
        check_every_variant(fragment)

    def test_copies_are_writable(self):
        _fragment, swept, _forms = self.swept()
        copy = swept.copy()
        copy.h(0)
        copy.measurement_distribution((0, 1))
        assert not swept.x.flags.writeable


# -- thread pools share the body ---------------------------------------------------------


def test_threads_sharing_one_body_agree_with_serial_results():
    """More threads than cores, each evolving the same body (one compiled
    program on its derived space) for all 144 variants at once."""
    fragment = clifford_fragment(20, 2, 2, seed=12)
    specs = list(all_variants(fragment))
    assert len(specs) == 144
    expected = [sequential(variant_circuit(fragment, *spec)) for spec in specs]
    results, errors = {}, []
    barrier = threading.Barrier(8)

    def work(slot):
        try:
            barrier.wait(timeout=30)
            results[slot] = STAB.affine_variants(fragment.circuit, *fragment.cut_wires)
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
    for slot, forms in results.items():
        for spec, form, want in zip(specs, forms, expected):
            assert_same_form(form, want, (slot, spec))


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


# -- end to end: seeded marginals at any parallelism ---------------------------------------


@pytest.fixture(scope="module")
def hwea30():
    rng = np.random.default_rng(4)
    return HWEA(30, 3).near_clifford_instance(num_t=1, rng=rng).measure_all()


POOLS = (
    ExecutionConfig(parallel=1),
    ExecutionConfig(parallel=3, pool="thread"),
    ExecutionConfig(parallel=2, pool="process"),
)


def defeat_sharing(monkeypatch):
    """Every Clifford fragment evaluated variant by variant: each variant
    spelled out and evolved from scratch, nothing shared."""

    def one_by_one(_self, body, inputs, outputs):
        fragment = Fragment(
            index=0,
            circuit=body,
            quantum_inputs=list(enumerate(inputs)),
            quantum_outputs=list(enumerate(outputs)),
        )
        return [
            sequential(variant_circuit(fragment, *spec))
            for spec in all_variants(fragment)
        ]

    monkeypatch.setattr(StabilizerSimulator, "affine_variants", one_by_one)


def test_seeded_marginals_identical_across_pools(hwea30, monkeypatch):
    sampling = SamplingConfig(shots=600, seed=11)
    windows = [[3], [3, 17], [29], [17]]

    def run(execution):
        with SuperSim(sampling=sampling, execution=execution) as sim:
            singles = sim.single_qubit_marginals(hwea30)
            joint = sim.marginal_probabilities(hwea30, windows)
        return singles, joint

    runs = [run(execution) for execution in POOLS]
    with monkeypatch.context() as patch:
        defeat_sharing(patch)
        runs.append(run(POOLS[0]))
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


def test_exact_recursive_runs_identical_across_pools_and_without_sharing(monkeypatch):
    """The ledger's wide-chain shape at 31q: one Clifford fragment with
    qi = qo = 2, 144 variants, every one through the shared sweeps."""
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

    def run(execution):
        with SuperSim(reconstruction=reconstruction, execution=execution) as sim:
            return sim.run(circuit)

    results = [run(execution) for execution in POOLS]
    with monkeypatch.context() as patch:
        defeat_sharing(patch)
        results.append(run(POOLS[0]))
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
