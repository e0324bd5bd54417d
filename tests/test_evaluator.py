"""Tests for fragment evaluation and the VariantData implementations."""

import numpy as np
import pytest

from repro.analysis import Distribution, hellinger_fidelity
from repro.circuits import Circuit, gates
from repro.core import SamplingConfig, cut_circuit, find_cuts
from repro.core.evaluator import (
    DenseVariantData,
    FragmentEvaluator,
    SampledVariantData,
)
from repro.stabilizer import StabilizerSimulator
from repro.stabilizer.tableau import PauliMap
from repro.testing.tomography import AffineVariantData


def fragments_of(circuit):
    return cut_circuit(circuit, find_cuts(circuit)).fragments


def bell_plus_t():
    c = Circuit(2)
    c.append(gates.H, 0).append(gates.CX, 0, 1)
    c.append(gates.T, 1)
    c.append(gates.H, 1)
    return c


class TestDispatch:
    def test_clifford_fragment_exact_is_one_map(self):
        frags = fragments_of(bell_plus_t())
        clifford = next(f for f in frags if f.is_clifford)
        data = FragmentEvaluator().evaluate(clifford)
        assert isinstance(data.pauli_map, PauliMap) and data.results == {}
        assert data.num_variants == clifford.num_variants

    def test_non_clifford_fragment_exact_is_dense(self):
        frags = fragments_of(bell_plus_t())
        ncl = next(f for f in frags if not f.is_clifford)
        data = FragmentEvaluator().evaluate(ncl)
        assert all(isinstance(v, DenseVariantData) for v in data.results.values())

    def test_clifford_fragment_sampled_is_one_map(self):
        # shots only reach non-Clifford fragments: a Clifford one is exact
        frags = fragments_of(bell_plus_t())
        clifford = next(f for f in frags if f.is_clifford)
        evaluator = FragmentEvaluator(SamplingConfig(shots=100, seed=0))
        assert evaluator.mode(clifford) == "exact"
        data = evaluator.evaluate(clifford)
        assert isinstance(data.pauli_map, PauliMap)
        _assignments, jobs = evaluator._build_jobs([clifford], root_seed=0)
        assert jobs and all(key[-1:] == ("exact",) for key in jobs)
        assert all(job.shots is None for job in jobs.values())

    def test_non_clifford_fragment_sampled_carries_shots(self):
        frags = fragments_of(bell_plus_t())
        ncl = next(f for f in frags if not f.is_clifford)
        evaluator = FragmentEvaluator(SamplingConfig(shots=100, seed=0))
        assert evaluator.mode(ncl) == "sampled"
        _assignments, jobs = evaluator._build_jobs([ncl], root_seed=0)
        assert all(key[-3:-1] == ("shots", 100) for key in jobs)
        assert all(job.shots == 100 for job in jobs.values())

    @pytest.mark.parametrize("clifford", [True, False], ids=["clifford", "non_clifford"])
    @pytest.mark.parametrize("kind", ["exact", "sampled", "noisy"])
    def test_mode_follows_cliffordness_then_sampling(self, clifford, kind):
        from repro.stabilizer import NoiseModel, PauliChannel

        sampling = {
            "exact": SamplingConfig(),
            "sampled": SamplingConfig(shots=100, seed=0),
            "noisy": SamplingConfig(
                shots=100,
                seed=0,
                noise=NoiseModel(after_gate_1q=PauliChannel.depolarizing(0.01)),
            ),
        }[kind]
        fragment = next(
            f for f in fragments_of(bell_plus_t()) if f.is_clifford == clifford
        )
        # noise reaches Clifford fragments only; shots reach all but the
        # noiseless Clifford ones
        want = {
            (True, "exact"): "exact",
            (True, "sampled"): "exact",
            (True, "noisy"): "noisy",
            (False, "exact"): "exact",
            (False, "sampled"): "sampled",
            (False, "noisy"): "sampled",
        }[clifford, kind]
        assert FragmentEvaluator(sampling).mode(fragment) == want

    def test_variant_count(self):
        frags = fragments_of(bell_plus_t())
        for fragment in frags:
            data = FragmentEvaluator().evaluate(fragment)
            assert data.num_variants == fragment.num_variants
            # per variant, or every variant at once in the body's map
            expected = 0 if data.pauli_map else fragment.num_variants
            assert len(data.results) == expected

    def test_noisy_clifford_fragment_is_frame_sampled(self):
        from repro.stabilizer import NoiseModel, PauliChannel

        frags = fragments_of(bell_plus_t())
        clifford = next(f for f in frags if f.is_clifford)
        noise = NoiseModel(after_gate_1q=PauliChannel.depolarizing(0.01))
        evaluator = FragmentEvaluator(SamplingConfig(shots=64, seed=0, noise=noise))
        assert evaluator.mode(clifford) == "noisy"
        data = evaluator.evaluate(clifford)
        assert all(isinstance(v, SampledVariantData) for v in data.results.values())
        assert all(v.shots == 64 for v in data.results.values())


class TestVariantDataAgreement:
    def test_affine_and_sampled_agree_in_the_limit(self):
        circuit = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        circuit.measure_all()
        affine = StabilizerSimulator().affine_distribution(circuit)
        exact = AffineVariantData(affine)
        sampled = SampledVariantData.from_bits(affine.sample_bits(40000, rng=0))
        cols = [0, 1]
        f = hellinger_fidelity(exact.joint(cols), sampled.joint(cols))
        assert f > 0.999

    def test_joint_column_order(self):
        # outcome 10 on (q0, q1): selecting [1, 0] must flip the key
        bits = np.array([[1, 0]] * 5, dtype=bool)
        data = SampledVariantData.from_bits(bits)
        assert data.joint([0, 1])[0b10] == 1.0
        assert data.joint([1, 0])[0b01] == 1.0

    def test_dense_joint(self):
        dist = Distribution(2, {0b10: 1.0})
        data = DenseVariantData(dist)
        assert data.joint([0])[1] == 1.0
        assert data.joint([1])[0] == 1.0

    def test_affine_marginal_subset(self):
        circuit = Circuit(3).append(gates.H, 0).append(gates.CX, 0, 1)
        circuit.measure_all()
        affine = StabilizerSimulator().affine_distribution(circuit)
        data = AffineVariantData(affine)
        joint = data.joint([0, 1])
        assert np.isclose(joint[0b00], 0.5)
        assert np.isclose(joint[0b11], 0.5)
        single = data.joint([2])
        assert single[0] == 1.0
