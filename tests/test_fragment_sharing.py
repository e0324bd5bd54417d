"""Per-fragment work is done once — and changes no result.

The variants of a fragment share one hashed, compiled and simulated body
(``Circuit.embed`` / ``shared_body`` / ``derived``),
and ``build_window_tensors`` builds every window's tensor in one pass over
a fragment's variants.  All the variants also share one symbolic
measurement sweep: the body runs with its input wires Bell-paired to
ancillas, a preparation is a post-selection of the ancillas
(``substitute_symbol``), and the cut wires are measured last and their rows
moved back into place (``move_outcome_row``); the sequential sweep of a
from-scratch evolution is the oracle.  Each test pins one equivalence that
rests on.
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
from repro.stabilizer import simulator as stabilizer_simulator
from repro.stabilizer import tableau as tableau_module
from repro.stabilizer.tableau import (
    Tableau,
    compile_clifford_layers,
    move_outcome_row,
    substitute_symbol,
)

STAB = StabilizerSimulator()

def same_tableau(a: Tableau, b: Tableau) -> bool:
    return (
        np.array_equal(a.x, b.x)
        and np.array_equal(a.z, b.z)
        and np.array_equal(a.sign, b.sign)
    )


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


def plain_copy(circuit: Circuit) -> Circuit:
    """The same op list in a circuit that knows nothing about a body."""
    return Circuit(circuit.n_qubits, circuit.ops).measure(circuit.measured_qubits)


# -- StabilizerSimulator.run ---------------------------------------------------

#: gate sequences preparing |0>, |1>, |+>, |+i> (as in repro.core.variants)
_PREPS = ((), (gates.X,), (gates.H,), (gates.H, gates.S))


@st.composite
def bodies_and_preparations(draw):
    n = draw(st.integers(2, 70))
    body = Circuit(n)
    for _ in range(draw(st.integers(0, 40))):
        if draw(st.booleans()):
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 2))
            body.append(gates.CX, a, b + (b >= a))
        else:
            gate = draw(st.sampled_from([gates.H, gates.S, gates.SDG, gates.X]))
            body.append(gate, draw(st.integers(0, n - 1)))
    qubits = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
    )
    return body, qubits


class TestRunIsPlainEvolution:
    @settings(max_examples=40, deadline=None)
    @given(bodies_and_preparations())
    def test_run_on_a_shared_body_equals_resimulation(self, case):
        """run() of prefix + embedded body == evolving the spelled-out op
        list from |0..0>, on x, z and sign, for every preparation; the body
        keeps no evolved tableau for the variants to share."""
        body, qubits = case
        for preps in itertools.product(range(4), repeat=len(qubits)):
            circuit = Circuit(body.n_qubits)
            for q, prep in zip(qubits, preps):
                for gate in _PREPS[prep]:
                    circuit.append(gate, q)
            circuit.embed(body, prepared=qubits).measure_all()
            assert circuit.shared_body() is not None
            expected = Tableau(body.n_qubits)
            expected.apply_circuit(plain_copy(circuit))
            assert same_tableau(STAB.run(circuit), expected), (preps, qubits)
        assert "tableau" not in body.derived()


# -- a variant and its spelled-out op list -----------------------------------------


class TestVariantEqualsPlainCircuit:
    @pytest.mark.parametrize("qi,qo", [(0, 0), (1, 1), (2, 1), (0, 2)])
    def test_fingerprint_layers_and_affine_form(self, qi, qo):
        fragment = clifford_fragment(7, qi, qo, seed=qi * 3 + qo)
        for preps, bases in all_variants(fragment):
            variant = variant_circuit(fragment, preps, bases)
            body, start, stop = variant.shared_body()
            assert body is fragment.circuit
            assert variant.ops[start:stop] == fragment.circuit.ops
            plain = plain_copy(variant)
            assert plain.shared_body() is None
            assert circuit_fingerprint(variant) == circuit_fingerprint(plain)
            via_layers, reference = Tableau(7), Tableau(7)
            via_layers.apply_circuit(variant)
            reference.apply_circuit(plain)
            assert same_tableau(via_layers, reference)
            assert same_tableau(STAB.run(variant), reference)
            ours = STAB.affine_distribution(variant)
            theirs = STAB.affine_distribution(plain)
            assert np.array_equal(ours.A, theirs.A)
            assert np.array_equal(ours.b, theirs.b)

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
        variants = [variant_circuit(fragment, p, b) for p, b in all_variants(fragment)]
        for variant in variants:
            STAB.affine_distribution(variant)
        assert kernels.counters_snapshot()["apply_layers"][0] - before == 1
        for variant in variants:
            compile_clifford_layers(variant)
        assert compiled.count(body_len) == 1
        assert max(n for n in compiled if n != body_len) <= 2

    def test_compiled_layers_stay_cached_on_the_variant(self):
        fragment = clifford_fragment(5, 1, 1)
        variant = variant_circuit(fragment, (3,), (2,))
        assert compile_clifford_layers(variant) is compile_clifford_layers(variant)

    def test_non_prependable_prefix_falls_back(self):
        body = clifford_fragment(4, 0, 0).circuit
        circuit = Circuit(4).append(gates.SDG, 1).append(gates.CX, 0, 2)
        circuit.embed(body).append(gates.H, 3).measure_all()
        assert circuit.shared_body() is not None
        expected = Tableau(4)
        expected.apply_circuit(plain_copy(circuit))
        assert same_tableau(STAB.run(circuit), expected)
        assert circuit_fingerprint(circuit) == circuit_fingerprint(plain_copy(circuit))

    def test_embed_checks_width(self):
        with pytest.raises(ValueError):
            Circuit(3).embed(Circuit(2))
        for wires in ([0, 0], [3], [-1]):
            with pytest.raises(ValueError, match="prepared"):
                Circuit(3).embed(Circuit(3), prepared=wires)


# -- mutation ---------------------------------------------------------------------


class TestMutationDropsTheBody:
    def variant_and_twin(self):
        fragment = clifford_fragment(6, 1, 1, seed=5)
        variant = variant_circuit(fragment, (3,), (1,))
        # warm every cache the body carries
        circuit_fingerprint(variant)
        STAB.affine_distribution(variant)
        compile_clifford_layers(variant)
        return fragment, variant, plain_copy(variant)

    def assert_still_right(self, variant, twin):
        assert variant.shared_body() is None
        assert circuit_fingerprint(variant) == circuit_fingerprint(twin)
        ours = STAB.affine_distribution(variant)
        theirs = STAB.affine_distribution(twin)
        assert np.array_equal(ours.A, theirs.A) and np.array_equal(ours.b, theirs.b)

    def test_body_append(self):
        fragment, variant, twin = self.variant_and_twin()
        fragment.circuit.append(gates.H, 0)
        self.assert_still_right(variant, twin)

    def test_body_in_place_replacement(self):
        fragment, variant, twin = self.variant_and_twin()
        fragment.circuit.ops[3] = Operation(gates.S, (2,))
        self.assert_still_right(variant, twin)
        # a variant built now sees the new body, not what the old one cached
        fresh = variant_circuit(fragment, (3,), (1,))
        assert fresh.shared_body() is not None
        expected = STAB.affine_distribution(plain_copy(fresh))
        got = STAB.affine_distribution(fresh)
        assert np.array_equal(got.A, expected.A) and np.array_equal(got.b, expected.b)
        assert circuit_fingerprint(fresh) == circuit_fingerprint(plain_copy(fresh))

    def test_variant_mutated_inside_the_body(self):
        _fragment, variant, _twin = self.variant_and_twin()
        _body, start, _stop = variant.shared_body()
        variant.ops[start + 1] = Operation(gates.X, (0,))
        self.assert_still_right(variant, plain_copy(variant))

    def test_ops_appended_after_the_body_keep_it(self):
        _fragment, variant, _twin = self.variant_and_twin()
        variant.append(gates.S, 2)
        assert variant.shared_body() is not None
        twin = plain_copy(variant)
        assert circuit_fingerprint(variant) == circuit_fingerprint(twin)
        assert same_tableau(STAB.run(variant), STAB.run(twin))

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


# -- derived caches do not travel ------------------------------------------------------


class TestPickling:
    def test_simulating_a_variant_does_not_grow_its_pickle(self):
        fragment = clifford_fragment(9, 1, 1, seed=2)
        variant = variant_circuit(fragment, (2,), (2,))
        cold = len(pickle.dumps(variant))
        expected = STAB.affine_distribution(variant)
        circuit_fingerprint(variant)
        Tableau(9).apply_circuit(variant)
        assert fragment.circuit.derived() and variant.derived()
        assert len(pickle.dumps(variant)) == cold
        assert len(pickle.dumps(fragment.circuit)) == len(
            pickle.dumps(fragment.circuit.copy())
        )
        clone = pickle.loads(pickle.dumps(variant))
        assert clone.shared_body() is None and clone.derived() == {}
        assert clone.ops == variant.ops
        assert clone.measured_qubits == variant.measured_qubits
        assert circuit_fingerprint(clone) == circuit_fingerprint(variant)
        got = STAB.affine_distribution(clone)
        assert np.array_equal(got.A, expected.A) and np.array_equal(got.b, expected.b)


# -- measuring late: one sweep per body ----------------------------------------------------


def sequential(circuit: Circuit):
    """The oracle: evolve the spelled-out op list, sweep every measured wire."""
    tableau = Tableau(circuit.n_qubits)
    tableau.apply_circuit(plain_copy(circuit))
    return tableau.measurement_distribution(circuit.measured_qubits)


def assert_same_form(got, expected, context=None):
    assert got.A.dtype == expected.A.dtype == np.bool_
    assert got.A.shape == expected.A.shape, context
    assert np.array_equal(got.A, expected.A), context
    assert np.array_equal(got.b, expected.b), context


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
    """``(fragment, measured)``: cut wires anywhere in the order, one wire
    possibly input and output at once; ``measured`` is ``None`` (all) or a
    subset that may or may not hold a cut wire."""
    n = draw(widths)
    wires = st.integers(0, n - 1)
    ins = draw(st.lists(wires, max_size=min(max_cuts, n), unique=True))
    # at most 4 cuts in all: 4**3 * 3**3 variants are one explicit example
    outs = draw(st.lists(wires, max_size=min(max_cuts, n, 4 - len(ins)), unique=True))
    if n > 64:  # all but a few wires, so the symbols still fill a word
        skipped = draw(st.lists(wires, max_size=3))
        measured = [q for q in range(n) if q not in skipped] if skipped else None
    else:
        measured = draw(st.none() | st.lists(wires, min_size=1, unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    return cut_fragment(n, ins, outs, seed, hadamards=float(n > 64)), measured


def check_every_variant(fragment, measured):
    for spec in all_variants(fragment):
        variant = variant_circuit(fragment, *spec)
        if measured is not None:
            variant.measure(measured)
        assert variant.shared_body() is not None
        assert_same_form(
            STAB.affine_distribution(variant), sequential(variant), (spec, measured)
        )
    # a prefix that is no preparation of an input wire: the general path
    n = fragment.n_qubits
    inputs = [lq for _cut, lq in fragment.quantum_inputs]
    outputs = [lq for _cut, lq in fragment.quantum_outputs]
    others = [q for q in range(n) if q not in inputs]
    for gate, wires in ((gates.S, inputs), (gates.X, others)):
        if wires:
            circuit = Circuit(n).append(gate, wires[0])
            circuit.embed(fragment.circuit, measured_last=outputs, prepared=inputs)
            circuit.measure(range(n) if measured is None else measured)
            assert circuit.shared_body() is not None
            assert_same_form(
                STAB.affine_distribution(circuit), sequential(circuit), (gate, wires[0])
            )


class TestMeasuringLate:
    @settings(max_examples=25, deadline=None)
    @given(cut_fragments(st.integers(2, 8), max_cuts=3))
    # first and last wire cut, one of them also an input; the cut wire
    # left out of, and alone in, the measured subset
    @example((cut_fragment(5, [4, 2], [0, 4], 1), None))
    @example((cut_fragment(5, [1], [0, 3, 4], 2), [1, 2]))
    @example((cut_fragment(4, [3], [3], 3), [3]))
    @example((cut_fragment(4, [0, 1, 3], [3, 2, 0], 4), None))
    # 64 preparations, more than are kept; input wires that are all of the
    # cut wires; input wires left out of the measured subset
    @example((cut_fragment(6, [5, 0, 3], [], 5), None))
    @example((cut_fragment(5, [1, 4], [4, 1], 6), None))
    @example((cut_fragment(6, [0, 2], [4], 7), [1, 3, 4]))
    def test_every_variant_equals_the_sequential_sweep(self, case):
        check_every_variant(*case)

    @settings(max_examples=5, deadline=None)
    @given(cut_fragments(st.integers(66, 140), max_cuts=2))
    def test_wide_fragments_past_64_symbols(self, case):
        fragment, measured = case
        first = variant_circuit(fragment, *next(all_variants(fragment)))
        assume(STAB.affine_distribution(first).n_free > 64)
        assert fragment.circuit.derived()["collapsed"]
        check_every_variant(fragment, measured)

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
        variants = [variant_circuit(fragment, *spec) for spec in all_variants(fragment)]
        for variant in variants:
            STAB.affine_distribution(variant)
        assert len(variants) == 144
        assert len(calls) == (9 - 2) + 4**2 * 2 + 144 * 2
        # a body declared without cut wires shares nothing it should not:
        # any trailing gate sends the circuit down the general path
        del calls[:]
        loose = Circuit(9).embed(fragment.circuit).append(gates.H, 8).measure_all()
        assert_same_form(STAB.affine_distribution(loose), sequential(loose))
        assert len(calls) == 2 * 9

    def test_retained_state_is_bounded(self):
        fragment = clifford_fragment(6, 2, 1, seed=4)
        for spec in all_variants(fragment):
            STAB.affine_distribution(variant_circuit(fragment, *spec))
        kept = fragment.circuit.derived()["collapsed"]
        assert len(kept) == stabilizer_simulator.COLLAPSED_KEPT < 4**2

    def test_other_prefixes_and_suffixes_take_the_general_path(self):
        body = seeded_body(4, 7)
        for build in (
            lambda c: c.append(gates.SDG, 1).embed(body, [3]).append(gates.H, 3),
            lambda c: c.embed(body, [3]).append(gates.CX, 2, 3),
            lambda c: c.embed(body, [3]).append(gates.H, 2),
            # X, H and S, but not as a preparation of a prepared wire
            lambda c: c.append(gates.S, 1).embed(body, [3], [1]),
            lambda c: c.append(gates.H, 1).append(gates.H, 1).embed(body, [3], [1]),
            lambda c: c.append(gates.X, 0).embed(body, [3], [1]),
            lambda c: c.append(gates.X, 1).embed(body, [3]),
        ):
            circuit = build(Circuit(4)).measure_all()
            assert circuit.shared_body() is not None
            assert_same_form(STAB.affine_distribution(circuit), sequential(circuit))
            assert "collapsed" not in body.derived() and "swept" not in body.derived()
        with pytest.raises(ValueError, match="non-Clifford gate T"):
            STAB.affine_distribution(Circuit(4).embed(body, [3]).append(gates.T, 3))

    def test_a_pickled_variant_equals_the_shared_one(self):
        fragment = clifford_fragment(7, 1, 2, seed=6)
        for spec in all_variants(fragment):
            variant = variant_circuit(fragment, *spec)
            assert variant.measured_last() == {5, 6} and variant.prepared() == (0,)
            clone = pickle.loads(pickle.dumps(variant))
            assert clone.shared_body() is None and clone.measured_last() == frozenset()
            assert clone.prepared() == ()
            assert_same_form(
                STAB.affine_distribution(clone), STAB.affine_distribution(variant), spec
            )

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
        circuit = Circuit(2).embed(Circuit(2), [0]).append(gates.H, 0).measure_all()
        got = STAB.affine_distribution(circuit)
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
        circuit = Circuit(2).embed(body, [0]).measure_all()
        got = STAB.affine_distribution(circuit)
        assert got.A.tolist() == [[True], [True]] and got.b.tolist() == [False, True]
        assert_same_form(got, sequential(circuit))

    def test_rank_zero_by_hand(self):
        A = np.zeros((3, 0), dtype=bool)
        b = np.array([1, 0, 1], dtype=bool)
        A, b = move_outcome_row(A, b, 2, 0)
        assert A.shape == (3, 0) and b.tolist() == [True, True, False]
        body = Circuit(3).append(gates.X, 0).append(gates.CX, 0, 2)
        circuit = Circuit(3).embed(body, [0, 1]).measure_all()
        got = STAB.affine_distribution(circuit)
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

    def test_a_constant_ancilla_is_refused(self, monkeypatch):
        fragment = clifford_fragment(5, 1, 1, seed=13)
        real = Tableau.measure_symbolic

        def disentangled(self, q):
            coeffs, const = real(self, q)
            return (coeffs & False, const) if q >= 5 else (coeffs, const)

        monkeypatch.setattr(Tableau, "measure_symbolic", disentangled)
        with pytest.raises(PostSelectionError, match=r"input wire 0 .*\('H',\)"):
            STAB.affine_distribution(variant_circuit(fragment, (2,), (0,)))
        assert "collapsed" not in fragment.circuit.derived()

    def test_rows_only_move_up(self):
        A, b = np.eye(2, dtype=bool), np.zeros(2, dtype=bool)
        assert move_outcome_row(A, b, 1, 1)[0] is A
        for src, dst in ((0, 1), (2, 0), (1, -1)):
            with pytest.raises(ValueError):
                move_outcome_row(A, b, src, dst)


# -- what is shared is frozen ------------------------------------------------------------


class TestSharedTableausAreFrozen:
    def shared(self):
        fragment = clifford_fragment(6, 1, 1, seed=8)
        variant = variant_circuit(fragment, (2,), (1,))
        expected = sequential(variant)
        assert_same_form(STAB.affine_distribution(variant), expected)
        derived = fragment.circuit.derived()
        (collapsed, A, b), = derived["collapsed"].values()
        _key, swept, A_swept, b_swept = derived["swept"]
        assert swept.n == 6 + 1
        for shared in (A_swept, b_swept):
            assert not shared.flags.writeable
        return variant, expected, (swept, collapsed), A, b

    def test_measuring_the_cached_object_raises(self):
        variant, expected, tableaus, A, b = self.shared()
        for tableau in tableaus:
            with pytest.raises(ValueError):
                tableau.measurement_distribution(variant.measured_qubits)
            with pytest.raises(ValueError):
                tableau.h(0)
            with pytest.raises(ValueError):
                tableau.apply_circuit(variant)
            with pytest.raises(ValueError, match="frozen"):
                tableau.apply_layers(compile_clifford_layers(variant))
            with pytest.raises(ValueError):
                tableau.reset_symbols(6)
            with pytest.raises(ValueError, match="frozen"):
                tableau.substitute_symbol(np.ones(1, dtype=bool), True)
        # half of a Bell pair: a random outcome, which has to write
        with pytest.raises(ValueError):
            tableaus[0].measure_symbolic(6)
        with pytest.raises(ValueError):
            A[0, 0] = True
        with pytest.raises(ValueError):
            b[0] = True
        # nothing above got through
        assert_same_form(STAB.affine_distribution(variant), expected)

    def test_copies_are_writable(self):
        _variant, _expected, tableaus, _A, _b = self.shared()
        for tableau in tableaus:
            copy = tableau.copy()
            copy.h(0)
            copy.measurement_distribution((0, 1))
            assert not tableau.x.flags.writeable


# -- thread pools share the body ---------------------------------------------------------


def test_threads_sharing_one_body_agree_with_serial_results():
    fragment = clifford_fragment(40, 1, 1, seed=9)
    specs = list(all_variants(fragment)) * 3
    expected = {
        spec: STAB.affine_distribution(plain_copy(variant_circuit(fragment, *spec)))
        for spec in set(specs)
    }
    results, errors = {}, []
    barrier = threading.Barrier(len(specs))

    def work(slot, spec):
        try:
            variant = variant_circuit(fragment, *spec)
            barrier.wait(timeout=30)
            results[slot] = (circuit_fingerprint(variant), STAB.affine_distribution(variant))
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(slot, spec))
            for slot, spec in enumerate(specs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    assert len(results) == len(specs)
    for slot, spec in enumerate(specs):
        fingerprint, affine = results[slot]
        assert fingerprint == circuit_fingerprint(
            plain_copy(variant_circuit(fragment, *spec))
        )
        assert np.array_equal(affine.A, expected[spec].A)
        assert np.array_equal(affine.b, expected[spec].b)


def test_eight_threads_asking_for_144_variants_get_the_serial_answers():
    """More threads than cores and more preparations than collapsed
    tableaus are kept, each thread starting somewhere else in the order:
    sweeps are evicted and repeated under the readers' feet."""
    fragment = clifford_fragment(20, 2, 2, seed=12)
    specs = list(all_variants(fragment))
    assert len(specs) == 144
    expected = {spec: sequential(variant_circuit(fragment, *spec)) for spec in specs}
    results, errors = {}, []
    barrier = threading.Barrier(8)

    def work(slot):
        try:
            barrier.wait(timeout=30)
            for spec in specs[slot * 18 :] + specs[: slot * 18]:
                variant = variant_circuit(fragment, *spec)
                results[slot, spec] = STAB.affine_distribution(variant)
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
    assert len(results) == 8 * 144
    for (slot, spec), affine in results.items():
        assert_same_form(affine, expected[spec], (slot, spec))


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
    @pytest.mark.parametrize("snap", [False, True])
    def test_one_pass_equals_per_window_builds(self, qi, qo, snap):
        """Odd shot count: division and summation order must match exactly."""
        data = sampled_fragment_data(qi, qo, shots=777, seed=10 * qi + qo)
        one_by_one = FragmentData(
            data.fragment, {k: JointOnly(v) for k, v in data.results.items()}
        )
        windows = [w for w in WINDOWS if all(q < 9 - qo for q in w)]
        batched = build_window_tensors(data, windows, snap_clifford=snap)
        assert len(batched) == len(windows)
        for window, tensor in zip(windows, batched):
            assert tensor.shape == (4,) * (qi + qo) + (2 ** len(window),)
            alone = build_fragment_tensor(one_by_one, window, snap_clifford=snap)
            assert np.array_equal(tensor, alone), window
            assert np.array_equal(
                tensor, build_fragment_tensor(data, window, snap_clifford=snap)
            )

    @pytest.mark.parametrize("qi,qo", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2)])
    @pytest.mark.parametrize("snap", [False, True])
    def test_sampled_equals_dense_wrapping(self, qi, qo, snap):
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
            got = build_window_tensors(data, windows, snap, project)
            expected = build_window_tensors(dense, windows, snap, project)
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
    """Every variant job gets a plain circuit: no body, nothing to share."""
    real = evaluator_module.variant_circuit

    def refuse(*_args):
        raise AssertionError("a plain circuit reached the shared sweep")

    monkeypatch.setattr(
        evaluator_module, "variant_circuit", lambda *spec: plain_copy(real(*spec))
    )
    monkeypatch.setattr(stabilizer_simulator, "_collapsed", refuse)


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
