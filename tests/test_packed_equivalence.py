"""Property tests: the fast engines match their oracles bit-for-bit.

Every readout of the backward walk must be indistinguishable from the
byte-per-bit forward :class:`~repro.stabilizer._reference.ReferenceTableau`
— the same symbolic affine form ``(A, b)`` over any measured qubits in any
order, the same Pauli expectations (its stabilizer generators, phases
included, read +1), the same verdict on whether two circuits prepare one
state — and the einsum reconstruction must
reproduce the ``4^k`` assignment loop (the oracle in
:mod:`repro.testing.reconstruction`) to machine precision on random cut
placements, in the two regimes where production used to run the loop
itself, and on tensors that live on their supports.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.distributions import (
    counts_from_bit_rows,
    pack_bit_rows,
)
from repro.circuits import (
    Circuit,
    gates,
    inject_t_gates,
    random_clifford_circuit,
)
from repro.core import SuperSim, cut_circuit
from repro.core.fragments import Cut
from repro.core.reconstruction import reconstruct_distribution
from repro.core.tomography import (
    build_conditioned_fragment_tensor,
    build_fragment_tensor,
)
from repro.paulis import PauliString
from repro.stabilizer._reference import ReferenceTableau
from repro.stabilizer import FrameSampler, NoiseModel, StabilizerSimulator
from repro.stabilizer.tableau import (
    _compile_ops,
    _unit_rows,
    _unpack_axis1,
    _walk,
    compile_clifford_layers,
    inverse_program,
    outcome_distribution,
    pauli_expectations,
    same_state,
)
from repro.testing.reconstruction import dense_tensor, loop_reconstruct_distribution

# -- the backward walk's readouts vs the reference tableau ---------------------


def _reference(circuit):
    reference = ReferenceTableau(circuit.n_qubits)
    reference.apply_circuit(circuit)
    return reference


def _random_circuit(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 14))
    return n, random_clifford_circuit(n, int(rng.integers(1, 20)), rng), rng


def _assert_same_form(circuit, qubits):
    """The walk's ``(A, b)`` over ``qubits`` equals the reference tableau's
    symbolic sweep, bit for bit (shape and dtype included)."""
    ours = outcome_distribution(circuit, qubits)
    theirs = _reference(circuit).measurement_distribution(tuple(qubits))
    for got, want in ((ours.A, theirs.A), (ours.b, theirs.b)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def _assert_same_expectations(circuit, paulis):
    reference = _reference(circuit)
    assert pauli_expectations(circuit, paulis) == [
        reference.expectation(pauli) for pauli in paulis
    ]


def _stabilizers_with_phases(circuit):
    """The reference's generators read +1, their negatives -1."""
    stabilizers = _reference(circuit).stabilizers()
    negated = [PauliString(p.x, p.z, p.phase + 2) for p in stabilizers]
    values = pauli_expectations(circuit, stabilizers + negated)
    assert values == [1] * len(stabilizers) + [-1] * len(negated)


@st.composite
def measured_circuits(draw, max_qubits=130):
    """A random Clifford circuit and a subset of its qubits in any order."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, max_qubits))
    rng = np.random.default_rng(seed)
    circuit = random_clifford_circuit(n, draw(st.integers(1, 12)), rng)
    qubits = [int(q) for q in rng.permutation(n)[: draw(st.integers(0, n))]]
    return circuit, qubits


class TestWalkMatchesReference:
    @given(measured_circuits())
    @settings(max_examples=40, deadline=None)
    def test_affine_form_bit_for_bit(self, drawn):
        circuit, qubits = drawn
        _assert_same_form(circuit, qubits)

    @pytest.mark.parametrize("seed", range(25))
    def test_affine_distribution_bit_for_bit(self, seed):
        n, circuit, _ = _random_circuit(seed)
        assert np.array_equal(
            StabilizerSimulator().affine_distribution(circuit).A,
            _reference(circuit).measurement_distribution(tuple(range(n))).A,
        )
        _assert_same_form(circuit, list(range(n)))

    @pytest.mark.parametrize("seed", range(25))
    def test_forward_walk_is_the_reference_state(self, seed):
        """Walked forward (as ``same_state`` walks ``b``), the rows ``X_q``
        and ``Z_q`` become ``U X_q U†`` and ``U Z_q U†``: the reference
        tableau's destabilizers and stabilizers, bit for bit."""
        n, circuit, _ = _random_circuit(seed)
        units = _unit_rows(n, range(n))
        x, z, sign = _walk(
            compile_clifford_layers(circuit),
            n,
            np.vstack([units, np.zeros_like(units)]),
            np.vstack([np.zeros_like(units), units]),
        )
        reference = _reference(circuit)
        assert np.array_equal(_unpack_axis1(x, n), reference.x)
        assert np.array_equal(_unpack_axis1(z, n), reference.z)
        assert np.array_equal(sign, reference.sign)

    @pytest.mark.parametrize("seed", range(25))
    def test_frame_reference_shots_match_same_rng(self, seed):
        """A noiseless frame sampler draws its reference shots from the
        walk's form: the same shots the reference tableau's form draws
        from the same rng stream, over a measured subset."""
        n, circuit, rng = _random_circuit(seed)
        circuit.measure(rng.permutation(n)[: int(rng.integers(1, n + 1))])
        theirs = _reference(circuit).measurement_distribution(circuit.measured_qubits)
        assert np.array_equal(
            FrameSampler(circuit, NoiseModel()).sample_bits(
                64, np.random.default_rng(1000 + seed)
            ),
            theirs.sample_bits(64, np.random.default_rng(1000 + seed)),
        )

    @pytest.mark.parametrize("seed", range(25))
    def test_stabilizers_match_with_phases(self, seed):
        _, circuit, _ = _random_circuit(seed)
        _stabilizers_with_phases(circuit)

    @pytest.mark.parametrize("seed", range(15))
    def test_expectations_match(self, seed):
        n, circuit, rng = _random_circuit(seed)
        labels = ["".join(rng.choice(list("IXYZ")) for _ in range(n)) for _ in range(12)]
        _assert_same_expectations(
            circuit, [PauliString.from_label(label) for label in labels]
        )

    @pytest.mark.parametrize("seed", range(25))
    def test_state_equality(self, seed):
        """``same_state`` against the reference: equal iff each state's
        generators read +1 on the other.  Half the pairs prepare one state
        by different gates: the second circuit goes on to apply one of the
        state's stabilizer generators, letter by letter."""
        n, circuit, rng = _random_circuit(seed)
        other = circuit.copy()
        reference = _reference(circuit)
        if seed % 2:
            other.append(gates.X, int(rng.integers(n)))
            other.append(gates.H, int(rng.integers(n)))
        else:
            stab = reference.stabilizers()[int(rng.integers(n))]
            for q, letter in enumerate(stab.label()):
                if letter != "I":
                    other.append(getattr(gates, letter), q)
        other_reference = _reference(other)
        want = all(
            other_reference.expectation(stab) == 1 for stab in reference.stabilizers()
        )
        assert same_state(circuit, other) == same_state(other, circuit) == want
        assert same_state(circuit, circuit.copy())

    def test_non_clifford_rejected(self):
        circuit = Circuit(1).append(gates.T, 0)
        with pytest.raises(ValueError):
            StabilizerSimulator().affine_distribution(circuit)

    def test_wide_circuit_crosses_word_boundaries(self):
        """>64 qubits exercises multi-word rows."""
        n = 130
        circuit = Circuit(n).append(gates.H, 0)
        for q in range(n - 1):
            circuit.append(gates.CX, q, q + 1)
        _assert_same_form(circuit, list(range(n)))
        _stabilizers_with_phases(circuit)


#: widths whose rows end just before, on and just past a 64-bit word
EDGE_WIDTHS = (1, 31, 32, 33, 63, 64, 65, 127, 128, 129)

#: every gate the walk takes through its stabilizer decomposition
DECOMPOSED_1Q = [gates.SDG, gates.SX, gates.SXDG] + [
    power(0.5 * k) for power in (gates.XPow, gates.YPow, gates.ZPow) for k in range(4)
]
DECOMPOSED_2Q = [gates.CZ, gates.CY, gates.CZPow(1.0), gates.CZPow(2.0)] + [
    gates.ZZPow(0.5 * k) for k in range(4)
]


def _assert_same_readouts(circuit):
    n = circuit.n_qubits
    _assert_same_form(circuit, list(range(n)))
    _stabilizers_with_phases(circuit)
    rng = np.random.default_rng(n)
    labels = ["".join(rng.choice(list("IXYZ")) for _ in range(n)) for _ in range(4)]
    _assert_same_expectations(circuit, [PauliString.from_label(l) for l in labels])


class TestIntColumnEdges:
    """The walk's int columns span the rows a readout walks: bit for bit
    against the byte-per-bit reference at widths around the 64-bit word
    boundaries."""

    @pytest.mark.parametrize("n", EDGE_WIDTHS)
    def test_cx_ladder(self, n):
        circuit = Circuit(n).append(gates.H, 0)
        for q in range(n - 1):
            circuit.append(gates.CX, q, q + 1)
        circuit.append(gates.S, n - 1).append(gates.Y, 0)
        _assert_same_readouts(circuit)

    @pytest.mark.parametrize("n", EDGE_WIDTHS)
    def test_every_decomposed_gate(self, n):
        rng = np.random.default_rng(n)
        circuit = Circuit(n)
        for q in range(n):
            circuit.append(gates.H, q)
        for gate in DECOMPOSED_1Q + (DECOMPOSED_2Q if n > 1 else []):
            for _ in range(3):
                qubits = [int(q) for q in rng.choice(n, gate.num_qubits, replace=False)]
                circuit.append(gate, *qubits)
                if n > 1:  # spread the gate's effect over other rows' signs
                    circuit.append(gates.CX, qubits[0], (qubits[0] + 1) % n)
        _assert_same_readouts(circuit)

    @pytest.mark.parametrize("n", EDGE_WIDTHS)
    def test_bell_paired_ancillas(self, n):
        """A body on ``n`` wires after ``k`` extra wires are Bell-paired to
        its first ones: a partly measured, partly random form."""
        k = min(n, 3)
        body = random_clifford_circuit(n, 4, np.random.default_rng(n))
        circuit = Circuit(n + k)
        for ancilla, q in enumerate(range(k), start=n):
            circuit.append(gates.H, ancilla).append(gates.CX, ancilla, q)
        circuit.extend(Circuit(n + k, body.ops).ops)
        _assert_same_readouts(circuit)
        _assert_same_form(circuit, list(range(n + k))[::-1])


class TestLayerCompiler:
    @pytest.mark.parametrize("seed", range(10))
    def test_program_is_each_ops_decomposition_in_order(self, seed):
        """One-qubit runs are fused, so the steps differ; every Pauli row,
        forward and backward, comes out bit for bit as through the
        spelled-out decompositions."""
        rng = np.random.default_rng(seed)
        circuit = random_clifford_circuit(8, 10, rng)
        for gate in [gates.I] + DECOMPOSED_1Q + DECOMPOSED_2Q:
            qubits = rng.choice(8, size=gate.num_qubits, replace=False)
            circuit.append(gate, *(int(q) for q in qubits))
        expected = []
        for op in circuit.ops:
            name = op.gate.name
            if name in ("H", "S", "CX", "X", "Y", "Z"):
                steps = [(name, tuple(range(op.gate.num_qubits)))]
            else:
                steps = op.gate.stabilizer_decomposition()
            expected += [
                (step, *(op.qubits[w] for w in wires)) for step, wires in steps
            ]
        program = _compile_ops(circuit.table)
        x = rng.integers(0, 1 << 8, size=(40, 1), dtype=np.uint64)
        z = rng.integers(0, 1 << 8, size=(40, 1), dtype=np.uint64)
        for fused, spelled in (
            (program, expected),
            (inverse_program(program), inverse_program(expected)),
        ):
            for got, want in zip(_walk(fused, 8, x, z), _walk(spelled, 8, x, z)):
                np.testing.assert_array_equal(got, want)

    def test_non_clifford_gate_raises(self):
        circuit = Circuit(2).append(gates.H, 0).append(gates.T, 1)
        with pytest.raises(ValueError, match="non-Clifford"):
            _compile_ops(circuit.table)

    def test_cache_invalidates_on_append(self):
        circuit = Circuit(2).append(gates.H, 0)
        first = compile_clifford_layers(circuit)
        assert len(first) == 1
        circuit.append(gates.CX, 0, 1)
        second = compile_clifford_layers(circuit)
        assert len(second) == 2

    def test_cache_reused_when_unchanged(self):
        circuit = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        assert compile_clifford_layers(circuit) is compile_clifford_layers(circuit)

    def test_circuits_differing_in_one_op_compile_apart(self):
        """Two circuits of one length that differ in one op get their own
        programs and fingerprints."""
        from repro.backends.cache import circuit_fingerprint

        circuit = Circuit(1).append(gates.H, 0)
        other = Circuit(1).append(gates.S, 0)
        stale = compile_clifford_layers(circuit)
        fresh = compile_clifford_layers(other)
        assert fresh != stale and fresh[0][0] == "S"
        assert circuit_fingerprint(other) != circuit_fingerprint(circuit)
        assert StabilizerSimulator().expectation(other, PauliString.from_label("Z")) == 1


# -- einsum reconstruction vs the assignment-loop oracle ----------------------


def _tensors_for(circuit, cuts=None):
    sim = SuperSim()
    cc = sim.cut(circuit, cuts)
    data = sim._evaluator().evaluate_all(cc.fragments)
    keep = list(circuit.measured_qubits)
    keep_set = set(keep)
    kept_locals = [
        [lq for oq, lq in f.circuit_outputs if oq in keep_set]
        for f in cc.fragments
    ]
    tensors = [
        build_fragment_tensor(d, kl) for d, kl in zip(data, kept_locals)
    ]
    return cc, tensors, kept_locals, keep


def _chain_workload(blocks, width, depth, seed):
    """A chain of Clifford blocks linked by one cut qubit each."""
    rng = np.random.default_rng(seed)
    total = blocks * (width - 1) + 1
    circuit = Circuit(total)
    cuts = []
    for b in range(blocks):
        lo = b * (width - 1)
        if b > 0:
            boundary_ops = sum(1 for op in circuit.ops if lo in op.qubits)
            if boundary_ops == 0:
                circuit.append(gates.H, lo)
                boundary_ops = 1
            cuts.append(Cut(lo, boundary_ops))
        sub = random_clifford_circuit(width, depth, rng)
        circuit.extend(
            sub.map_qubits({i: lo + i for i in range(width)}, total).ops
        )
    circuit.measure_all()
    return circuit, cuts


def _assert_same_reconstruction(got, want):
    (dist, stats), (loop_dist, loop_stats) = got, want
    assert stats.terms_total == loop_stats.terms_total
    assert stats.terms_skipped == loop_stats.terms_skipped
    assert np.array_equal(dist.keys_array, loop_dist.keys_array)
    np.testing.assert_allclose(
        dist.values_array, loop_dist.values_array, rtol=0, atol=1e-9
    )


def _assert_reconstructions_match(cc, tensors, kept_locals, keep, prune):
    want = loop_reconstruct_distribution(
        cc, tensors, kept_locals, keep, prune_zeros=prune
    )
    got = reconstruct_distribution(cc, tensors, kept_locals, keep, prune_zeros=prune)
    _assert_same_reconstruction(got, want)
    return got[1]


class TestEinsumMatchesLoop:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("prune", [True, False])
    def test_random_isolate_cuts(self, seed, prune):
        rng = np.random.default_rng(seed)
        circuit = inject_t_gates(
            random_clifford_circuit(int(rng.integers(4, 8)), 5, rng),
            int(rng.integers(1, 3)),
            rng,
        )
        cc, tensors, kept_locals, keep = _tensors_for(circuit)
        _assert_reconstructions_match(cc, tensors, kept_locals, keep, prune)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("prune", [True, False])
    def test_random_chain_cuts(self, seed, prune):
        rng = np.random.default_rng(100 + seed)
        circuit, cuts = _chain_workload(
            blocks=int(rng.integers(3, 5)),
            width=int(rng.integers(3, 5)),
            depth=5,
            seed=200 + seed,
        )
        cc, tensors, kept_locals, keep = _tensors_for(circuit, cuts)
        assert cc.num_cuts >= 2
        _assert_reconstructions_match(cc, tensors, kept_locals, keep, prune)

    @pytest.mark.parametrize("prune", [True, False])
    def test_star_with_a_giant_fragment(self, prune):
        """One fragment carries every cut axis and >= 2**20 entries (the
        regime the deleted ``star_giant`` heuristic sent to the loop)."""
        rng = np.random.default_rng(7)
        circuit = random_clifford_circuit(18, 6, rng)
        for q in (3, 11):
            circuit.append(gates.T, q)
        cc, tensors, kept_locals, keep = _tensors_for(circuit.measure_all())
        sizes = [t.size for t in tensors]
        assert cc.num_cuts == 2 and max(sizes) >= 1 << 20
        assert 3 * max(sizes) >= 2 * sum(sizes)
        _assert_reconstructions_match(cc, tensors, kept_locals, keep, prune)

    def test_heavily_pruned_clifford_chain(self):
        """A GHZ chain cut four times: only I and Z cross a cut, so at most
        ``2**4`` of the ``4**4`` assignments survive (the regime the deleted
        ``_LOOP_SPARSITY`` heuristic sent to the loop)."""
        circuit = Circuit(10).append(gates.H, 0)
        for q in range(9):
            circuit.append(gates.CX, q, q + 1)
        cuts = [Cut(q, 1) for q in (2, 4, 6, 8)]
        cc, tensors, kept_locals, keep = _tensors_for(circuit.measure_all(), cuts)
        stats = _assert_reconstructions_match(cc, tensors, kept_locals, keep, True)
        survivors = stats.terms_total - stats.terms_skipped
        assert stats.terms_total == 256 and 0 < survivors * 16 <= stats.terms_total

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("prune", [True, False])
    def test_tensors_on_their_supports(self, seed, prune):
        """Contracting on the supports equals the loop (which scatters them
        into dense arrays first), in any requested bit order."""
        rng = np.random.default_rng(300 + seed)
        circuit = inject_t_gates(
            random_clifford_circuit(int(rng.integers(4, 8)), 3, rng),
            int(rng.integers(1, 3)),
            rng,
        )
        sim = SuperSim()
        cc = sim.cut(circuit)
        data = sim._evaluator().evaluate_all(cc.fragments)
        keep = [int(q) for q in rng.permutation(circuit.measured_qubits)]
        kept_locals = [
            [lq for oq, lq in f.circuit_outputs if oq in set(keep)]
            for f in cc.fragments
        ]
        on_support = [
            build_conditioned_fragment_tensor(d, kl, {})
            for d, kl in zip(data, kept_locals)
        ]
        want = loop_reconstruct_distribution(
            cc, on_support, kept_locals, keep, prune_zeros=prune
        )
        # every support full is the dense finalisation, anything less the
        # keyed one; mixing a bare array in must not matter either
        bare = dense_tensor(on_support[0], len(kept_locals[0]))
        rest = int(np.prod([len(t.support) for t in on_support[1:]]))
        for first, columns in (
            (on_support[0], len(on_support[0].support)),
            (bare, bare.shape[-1]),
        ):
            got = reconstruct_distribution(
                cc, [first] + on_support[1:], kept_locals, keep, prune_zeros=prune
            )
            _assert_same_reconstruction(got, want)
            assert got[1].peak_window_entries == columns * rest

    def test_distribution_has_no_explicit_near_zeros(self):
        rng = np.random.default_rng(5)
        circuit = inject_t_gates(random_clifford_circuit(5, 5, rng), 1, rng)
        cc, tensors, kept_locals, keep = _tensors_for(circuit)
        dist, _ = reconstruct_distribution(cc, tensors, kept_locals, keep)
        assert all(abs(v) > 1e-12 for v in dist.probs.values())


# -- packed-bit helpers --------------------------------------------------------


class TestPackedBitHelpers:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 80),
    )
    @settings(max_examples=40, deadline=None)
    def test_pack_bit_rows_matches_loop(self, seed, width, rows):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(rows, width)).astype(bool)
        keys = pack_bit_rows(bits)
        for row, key in zip(bits, keys):
            expected = 0
            for bit in row:
                expected = (expected << 1) | int(bit)
            assert int(key) == expected

    def test_pack_bit_rows_wide_uses_python_ints(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(5, 80)).astype(bool)
        keys = pack_bit_rows(bits)
        assert keys.dtype == object
        assert int(keys[0]) < 2**80

    def test_counts_from_bit_rows(self):
        bits = np.array([[1, 0], [1, 0], [0, 1]], dtype=bool)
        assert counts_from_bit_rows(bits) == {2: 2, 1: 1}
