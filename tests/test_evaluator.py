"""Tests for fragment evaluation and the VariantData implementations."""

import numpy as np
import pytest

from repro.analysis import Distribution, hellinger_fidelity
from repro.circuits import Circuit, gates
from repro.core import SamplingConfig, cut_circuit, find_cuts
from repro.core.evaluator import (
    AffineVariantData,
    DenseVariantData,
    FragmentEvaluator,
    SampledVariantData,
)
from repro.stabilizer import StabilizerSimulator


def fragments_of(circuit):
    return cut_circuit(circuit, find_cuts(circuit)).fragments


def bell_plus_t():
    c = Circuit(2)
    c.append(gates.H, 0).append(gates.CX, 0, 1)
    c.append(gates.T, 1)
    c.append(gates.H, 1)
    return c


class TestDispatch:
    def test_clifford_fragment_exact_is_affine(self):
        frags = fragments_of(bell_plus_t())
        clifford = next(f for f in frags if f.is_clifford)
        data = FragmentEvaluator().evaluate(clifford)
        assert all(isinstance(v, AffineVariantData) for v in data.results.values())

    def test_non_clifford_fragment_exact_is_dense(self):
        frags = fragments_of(bell_plus_t())
        ncl = next(f for f in frags if not f.is_clifford)
        data = FragmentEvaluator().evaluate(ncl)
        assert all(isinstance(v, DenseVariantData) for v in data.results.values())

    def test_clifford_fragment_sampled_is_bits(self):
        frags = fragments_of(bell_plus_t())
        clifford = next(f for f in frags if f.is_clifford)
        data = FragmentEvaluator(SamplingConfig(shots=100, seed=0)).evaluate(clifford)
        assert all(isinstance(v, SampledVariantData) for v in data.results.values())

    def test_variant_count(self):
        frags = fragments_of(bell_plus_t())
        for fragment in frags:
            data = FragmentEvaluator().evaluate(fragment)
            assert data.num_variants == fragment.num_variants

    def test_clifford_shots_override(self):
        frags = fragments_of(bell_plus_t())
        clifford = next(f for f in frags if f.is_clifford)
        data = FragmentEvaluator(SamplingConfig(shots=1000, clifford_shots=16, seed=0)).evaluate(
            clifford
        )
        some = next(iter(data.results.values()))
        assert some.bits.shape[0] == 16


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
