"""Tests for fragment tensor construction and physicality projection."""

import numpy as np

from repro.circuits import Circuit, gates, inject_t_gates, random_clifford_circuit
from repro.core import SamplingConfig, SuperSim, cut_circuit, find_cuts
from repro.core.evaluator import FragmentEvaluator
from repro.core.tomography import (
    build_conditioned_fragment_tensor,
    build_fragment_tensor,
    project_physical,
)
from repro.statevector import StatevectorSimulator

SV = StatevectorSimulator()


def evaluated_fragments(circuit, shots=None, rng=None):
    cc = cut_circuit(circuit, find_cuts(circuit))
    evaluator = FragmentEvaluator(SamplingConfig(shots=shots, seed=rng))
    return cc, [evaluator.evaluate(f) for f in cc.fragments]


def t_mid_circuit():
    c = Circuit(2)
    c.append(gates.H, 0).append(gates.CX, 0, 1)
    c.append(gates.T, 1)
    c.append(gates.H, 1)
    return c


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

    @staticmethod
    def _built_cut_tensors(monkeypatch, sampling):
        """``(data, kept, tensor)`` of every cut fragment's tensor that a
        ``run`` under ``sampling`` builds."""
        from repro.core import supersim

        built = []
        real = supersim.build_fragment_tensor

        def spy(data, kept, **kwargs):
            tensor = real(data, kept, **kwargs)
            built.append((data, kept, tensor))
            return tensor

        monkeypatch.setattr(supersim, "build_fragment_tensor", spy)
        rng = np.random.default_rng(17)
        circuit = inject_t_gates(random_clifford_circuit(4, 3, rng), 1, rng)
        SuperSim(sampling=sampling).run(circuit)
        cut = [
            entry
            for entry in built
            if entry[0].fragment.quantum_inputs or entry[0].fragment.quantum_outputs
        ]
        assert {data.fragment.is_clifford for data, _kept, _tensor in cut} == {
            True,
            False,
        }
        return cut

    def test_sampled_mode_projects_only_sampled_fragments(self, monkeypatch):
        """``tomography=True`` with shots: a Clifford fragment is exact, so
        its tensor is the unprojected one, byte for byte; the sampled
        non-Clifford fragment's tensor is projected."""
        sampling = SamplingConfig(shots=500, seed=3, tomography=True)
        for data, kept, tensor in self._built_cut_tensors(monkeypatch, sampling):
            project = not data.fragment.is_clifford
            want = build_fragment_tensor(data, kept, project=project)
            assert np.array_equal(tensor, want)

    def test_noisy_clifford_fragments_are_projected(self, monkeypatch):
        """Pauli-frame samples are sampled data: projected like the rest."""
        from repro.stabilizer import NoiseModel, PauliChannel

        noise = NoiseModel(after_gate_1q=PauliChannel.depolarizing(0.05))
        sampling = SamplingConfig(shots=500, seed=3, tomography=True, noise=noise)
        for data, kept, tensor in self._built_cut_tensors(monkeypatch, sampling):
            want = build_fragment_tensor(data, kept, project=True)
            assert np.array_equal(tensor, want)
