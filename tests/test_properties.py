"""Property-based tests (hypothesis) over the framework's core invariants.

These complement the seed-parametrised random tests elsewhere: hypothesis
explores the circuit space adversarially and shrinks failures to minimal
programs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Distribution, hellinger_fidelity
from repro.chform import CHForm
from repro.circuits import Circuit, gates
from repro.core import CutConfig, SuperSim, cut_circuit, find_cuts
from repro.extended_stabilizer import StabilizerSum
from repro.mps import MPSSimulator
from repro.stabilizer import StabilizerSimulator
from repro.core.evaluator import FragmentData
from repro.core.fragments import Fragment
from repro.core.tomography import build_conditioned_fragment_tensor
from repro.stabilizer.tableau import PauliMap
from repro.statevector import StatevectorSimulator

SV = StatevectorSimulator()
STAB = StabilizerSimulator()

# -- circuit program strategies ------------------------------------------------

_CLIFFORD_1Q = [gates.H, gates.S, gates.SDG, gates.X, gates.Y, gates.Z,
                gates.SX, gates.SXDG]
_CLIFFORD_2Q = [gates.CX, gates.CZ, gates.CY, gates.SWAP]
_NON_CLIFFORD = [gates.T, gates.TDG, gates.ZPow(0.3), gates.XPow(0.7)]


def circuits(min_qubits=1, max_qubits=4, max_ops=12, allow_non_clifford=False):
    """Strategy generating (near-)Clifford circuits."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_qubits, max_qubits))
        circuit = Circuit(n)
        pool_1q = list(_CLIFFORD_1Q)
        if allow_non_clifford:
            pool_1q = pool_1q + _NON_CLIFFORD
        n_ops = draw(st.integers(0, max_ops))
        for _ in range(n_ops):
            if n >= 2 and draw(st.booleans()):
                gate = draw(st.sampled_from(_CLIFFORD_2Q))
                a = draw(st.integers(0, n - 1))
                b = draw(st.integers(0, n - 2))
                if b >= a:
                    b += 1
                circuit.append(gate, a, b)
            else:
                gate = draw(st.sampled_from(pool_1q))
                circuit.append(gate, draw(st.integers(0, n - 1)))
        return circuit

    return build()


# -- simulator equivalences ---------------------------------------------------


class TestSimulatorEquivalence:
    @given(circuits())
    @settings(max_examples=40, deadline=None)
    def test_tableau_matches_statevector(self, circuit):
        exact = SV.probabilities(circuit)
        tableau = STAB.probabilities(circuit)
        assert hellinger_fidelity(exact, tableau) > 1 - 1e-9

    @given(circuits())
    @settings(max_examples=40, deadline=None)
    def test_chform_matches_statevector_exactly(self, circuit):
        state = CHForm(circuit.n_qubits)
        state.apply_circuit(circuit)
        assert np.allclose(state.to_statevector(), SV.state(circuit), atol=1e-9)

    @given(circuits(allow_non_clifford=True))
    @settings(max_examples=30, deadline=None)
    def test_stabilizer_sum_matches_statevector(self, circuit):
        state = StabilizerSum(circuit.n_qubits, max_terms=2**14)
        state.apply_circuit(circuit)
        assert np.allclose(state.to_statevector(), SV.state(circuit), atol=1e-8)

    @given(circuits(allow_non_clifford=True))
    @settings(max_examples=30, deadline=None)
    def test_mps_matches_statevector(self, circuit):
        state = MPSSimulator().run(circuit)
        assert np.allclose(state.to_statevector(), SV.state(circuit), atol=1e-8)


class TestCuttingInvariants:
    @given(circuits(min_qubits=2, allow_non_clifford=True))
    @settings(max_examples=25, deadline=None)
    def test_cut_bound_and_op_conservation(self, circuit):
        cuts = find_cuts(circuit)
        assert len(cuts) <= 2 * circuit.num_non_clifford
        cc = cut_circuit(circuit, cuts)
        assert sum(len(f.circuit) for f in cc.fragments) == len(circuit)
        # every original qubit's terminal output lives in exactly one fragment
        owners = [
            oq for f in cc.fragments for oq, _lq in f.circuit_outputs
        ]
        assert sorted(owners) == list(range(circuit.n_qubits))

    @given(circuits(min_qubits=2, max_qubits=4, max_ops=10,
                    allow_non_clifford=True))
    @settings(max_examples=20, deadline=None)
    def test_reconstruction_matches_statevector(self, circuit):
        if len(find_cuts(circuit)) > 6:
            return  # keep runtime bounded; covered by unit tests
        result = SuperSim(cut=CutConfig(max_cuts=6)).run(circuit)
        exact = SV.probabilities(circuit)
        assert hellinger_fidelity(exact, result.distribution) > 1 - 1e-7

    @given(circuits(min_qubits=2, allow_non_clifford=True))
    @settings(max_examples=20, deadline=None)
    def test_fragment_boundary_counts(self, circuit):
        cuts = find_cuts(circuit)
        cc = cut_circuit(circuit, cuts)
        # each cut appears exactly once as an input and once as an output
        inputs = [c for f in cc.fragments for c, _ in f.quantum_inputs]
        outputs = [c for f in cc.fragments for c, _ in f.quantum_outputs]
        assert sorted(inputs) == list(range(len(cuts)))
        assert sorted(outputs) == list(range(len(cuts)))


class TestStabilizerInvariants:
    @given(circuits())
    @settings(max_examples=30, deadline=None)
    def test_expectations_in_allowed_set(self, circuit):
        tableau = STAB.run(circuit)
        rng = np.random.default_rng(0)
        from repro.paulis import PauliString

        for _ in range(5):
            label = "".join(rng.choice(list("IXYZ"))
                            for _ in range(circuit.n_qubits))
            assert tableau.expectation(PauliString.from_label(label)) in (-1, 0, 1)

    @given(circuits())
    @settings(max_examples=30, deadline=None)
    def test_affine_distribution_normalised(self, circuit):
        affine = STAB.affine_distribution(circuit)
        dist = affine.to_distribution(max_free=12)
        assert np.isclose(dist.total(), 1.0, atol=1e-12)
        # uniformity over the support
        values = set(round(v, 12) for v in dist.probs.values())
        assert len(values) == 1

    @given(circuits(), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_partial_probability_consistency(self, circuit, seed):
        """The point query of the circuit's Pauli map over some bits is
        their marginal's entry."""
        affine = STAB.affine_distribution(circuit)
        rng = np.random.default_rng(seed)
        n = circuit.n_qubits
        rows = rng.permutation(n)[: rng.integers(1, n + 1)].tolist()
        bits = rng.integers(0, 2, size=len(rows)).astype(bool)
        fragment = Fragment(
            index=0, circuit=circuit, circuit_outputs=[(q, q) for q in range(n)]
        )
        data = FragmentData(fragment, {}, PauliMap(circuit, [], []))
        point = build_conditioned_fragment_tensor(data, [], dict(zip(rows, bits)))
        key = int("".join("1" if bit else "0" for bit in bits), 2)
        assert float(point.values.sum()) == affine.marginal_distribution(rows)[key]


class TestDistributionInvariants:
    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_marginal_preserves_mass(self, weights):
        size = 1 << (len(weights) - 1).bit_length()
        weights = weights + [0.0] * (size - len(weights))
        arr = np.array(weights) / sum(weights)
        dist = Distribution.from_array(arr)
        keep = list(range(dist.n_bits - 1))
        assert np.isclose(dist.marginal(keep).total(), dist.total(), atol=1e-12)

    @given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_single_bit_marginals_consistent(self, weights):
        size = 1 << (len(weights) - 1).bit_length()
        weights = weights + [0.0] * (size - len(weights))
        arr = np.array(weights) / sum(weights)
        dist = Distribution.from_array(arr)
        marginals = dist.single_bit_marginals()
        for i in range(dist.n_bits):
            via_marginal = dist.marginal([i])
            assert np.isclose(marginals[i, 0], via_marginal[0], atol=1e-12)
            assert np.isclose(marginals[i, 1], via_marginal[1], atol=1e-12)
