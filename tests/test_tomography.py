"""Tests for fragment tensor construction and physicality projection."""

import numpy as np
import pytest

from repro.circuits import Circuit, gates
from repro.core import cut_circuit, find_cuts
from repro.core.evaluator import FragmentEvaluator
from repro.core.tomography import (
    _snap_vector,
    build_conditioned_fragment_tensor,
    build_fragment_tensor,
    project_physical,
)
from repro.statevector import StatevectorSimulator

SV = StatevectorSimulator()


def evaluated_fragments(circuit, shots=None, rng=None):
    cc = cut_circuit(circuit, find_cuts(circuit))
    evaluator = FragmentEvaluator(shots=shots, rng=rng)
    return cc, [evaluator.evaluate(f) for f in cc.fragments]


def t_mid_circuit():
    c = Circuit(2)
    c.append(gates.H, 0).append(gates.CX, 0, 1)
    c.append(gates.T, 1)
    c.append(gates.H, 1)
    return c


class TestSnap:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.9, 1.0), (1.0, 1.0), (0.3, 0.0), (0.0, 0.0), (-0.4, 0.0),
         (-0.8, -1.0), (0.51, 1.0), (-0.51, -1.0)],
    )
    def test_values(self, value, expected):
        # an expectation `value` seen at weight 1/2 snaps to `expected` there
        weight = np.array([0.5, 0.0])
        snapped = _snap_vector(np.array([0.5 * value, 0.0]), weight)
        assert snapped.tolist() == [0.5 * expected, 0.0]


class TestFragmentTensor:
    def test_identity_slice_is_probability_distribution(self):
        """T[I..., I...] marginalises to the variant's output distribution."""
        circuit = t_mid_circuit()
        cc, data = evaluated_fragments(circuit)
        for frag_data in data:
            fragment = frag_data.fragment
            kept = [lq for _oq, lq in fragment.circuit_outputs]
            tensor = build_fragment_tensor(frag_data, kept)
            identity_index = (0,) * (
                len(fragment.quantum_inputs) + len(fragment.quantum_outputs)
            )
            vec = tensor[identity_index]
            assert np.all(vec >= -1e-9)
            # total probability: 2 per quantum input (I = r0 + r1 has trace 2)
            expected_total = 2.0 ** len(fragment.quantum_inputs)
            assert np.isclose(vec.sum(), expected_total, atol=1e-9)

    def test_pauli_entries_bounded(self):
        circuit = t_mid_circuit()
        _cc, data = evaluated_fragments(circuit)
        for frag_data in data:
            fragment = frag_data.fragment
            kept = [lq for _oq, lq in fragment.circuit_outputs]
            tensor = build_fragment_tensor(frag_data, kept)
            bound = 2.0 ** len(fragment.quantum_inputs) + 1e-9
            assert np.all(np.abs(tensor) <= bound)

    def test_sparse_matches_dense(self):
        circuit = t_mid_circuit()
        _cc, data = evaluated_fragments(circuit)
        for frag_data in data:
            fragment = frag_data.fragment
            kept = [lq for _oq, lq in fragment.circuit_outputs]
            dense = build_fragment_tensor(frag_data, kept)
            sparse = build_conditioned_fragment_tensor(frag_data, kept, {})
            assert sparse.values.shape == dense.shape[:-1] + (len(sparse.support),)
            assert np.allclose(sparse.values, dense[..., sparse.support], atol=1e-9)
            # columns absent from the support must be zero
            absent = np.setdiff1d(np.arange(dense.shape[-1]), sparse.support)
            assert np.all(np.abs(dense[..., absent]) < 1e-9)

    def test_clifford_fragment_entries_snap_invariant(self):
        """On exact Clifford data, snapping must be a no-op."""
        circuit = t_mid_circuit()
        _cc, data = evaluated_fragments(circuit)
        clifford = [d for d in data if d.fragment.is_clifford]
        assert clifford
        for frag_data in clifford:
            kept = [lq for _oq, lq in frag_data.fragment.circuit_outputs]
            plain = build_fragment_tensor(frag_data, kept, snap_clifford=False)
            snapped = build_fragment_tensor(frag_data, kept, snap_clifford=True)
            assert np.allclose(plain, snapped, atol=1e-9)


class TestPhysicalityProjection:
    def test_exact_data_unchanged(self):
        """Exact fragment models are already physical: projection is identity."""
        circuit = t_mid_circuit()
        _cc, data = evaluated_fragments(circuit)
        for frag_data in data:
            fragment = frag_data.fragment
            qi = len(fragment.quantum_inputs)
            qo = len(fragment.quantum_outputs)
            if qi + qo == 0:
                continue
            kept = [lq for _oq, lq in fragment.circuit_outputs]
            tensor = build_fragment_tensor(frag_data, kept)
            projected = project_physical(tensor, qi, qo)
            assert np.allclose(projected, tensor, atol=1e-8)

    def test_idempotent(self):
        circuit = t_mid_circuit()
        _cc, data = evaluated_fragments(circuit, shots=200, rng=0)
        for frag_data in data:
            fragment = frag_data.fragment
            qi = len(fragment.quantum_inputs)
            qo = len(fragment.quantum_outputs)
            if qi + qo == 0:
                continue
            kept = [lq for _oq, lq in fragment.circuit_outputs]
            tensor = build_fragment_tensor(frag_data, kept)
            once = project_physical(tensor, qi, qo)
            twice = project_physical(once, qi, qo)
            assert np.allclose(once, twice, atol=1e-8)

    def test_projection_moves_toward_truth_on_noisy_data(self):
        rng = np.random.default_rng(5)
        circuit = t_mid_circuit()
        cc_exact, exact_data = evaluated_fragments(circuit)
        _cc, noisy_data = evaluated_fragments(circuit, shots=150, rng=rng)
        for exact, noisy in zip(exact_data, noisy_data):
            fragment = noisy.fragment
            qi = len(fragment.quantum_inputs)
            qo = len(fragment.quantum_outputs)
            if qi + qo == 0:
                continue
            kept = [lq for _oq, lq in fragment.circuit_outputs]
            truth = build_fragment_tensor(exact, kept)
            raw = build_fragment_tensor(noisy, kept)
            fixed = project_physical(raw, qi, qo)
            # Frobenius distance to the true tensor must not grow much
            assert np.linalg.norm(fixed - truth) <= np.linalg.norm(raw - truth) + 1e-6
