"""Tests for Pauli channels and the Pauli-frame noisy sampler."""

import itertools

import numpy as np
import pytest

from repro.analysis import Distribution, hellinger_fidelity
from repro.analysis.distributions import total_variation_distance
from repro.circuits import Circuit, gates
from repro.paulis import PauliString
from repro.stabilizer import FrameSampler, NoiseModel, PauliChannel
from repro.statevector import StatevectorSimulator

SV = StatevectorSimulator()


def exact_noisy_distribution(circuit, noise):
    """Reference: enumerate every noise realisation with dense simulation."""
    sites = noise.locations(circuit)
    term_lists = []
    for _, channel, qubits in sites:
        options = [(channel.identity_probability, None, qubits)]
        options += [(p, label, qubits) for p, label in channel.terms]
        term_lists.append(options)
    accumulator: dict[int, float] = {}
    n_bits = len(circuit.measured_qubits)
    for combo in itertools.product(*term_lists):
        weight = 1.0
        noisy = Circuit(circuit.n_qubits)
        site_index = 0
        for i, op in enumerate(circuit.ops):
            noisy.append(op.gate, *op.qubits)
            while site_index < len(sites) and sites[site_index][0] == i:
                prob, label, qubits = combo[site_index]
                weight *= prob
                if label is not None:
                    for w, q in enumerate(qubits):
                        letter = label[w]
                        if letter != "I":
                            noisy.append(getattr(gates, letter), q)
                site_index += 1
        while site_index < len(sites):
            prob, label, qubits = combo[site_index]
            weight *= prob
            if label is not None:
                for w, q in enumerate(qubits):
                    if label[w] != "I":
                        noisy.append(getattr(gates, label[w]), q)
            site_index += 1
        if weight == 0.0:
            continue
        noisy.measure(circuit.measured_qubits)
        dist = SV.probabilities(noisy)
        for outcome, p in dist:
            accumulator[outcome] = accumulator.get(outcome, 0.0) + weight * p
    return Distribution(n_bits, accumulator)


class TestPauliChannel:
    def test_bit_flip(self):
        ch = PauliChannel.bit_flip(0.1)
        assert ch.terms == [(0.1, "X")]
        assert np.isclose(ch.identity_probability, 0.9)

    def test_depolarizing_mass(self):
        ch = PauliChannel.depolarizing(0.3)
        assert np.isclose(sum(p for p, _ in ch.terms), 0.3)
        assert len(ch.terms) == 3

    def test_depolarizing2(self):
        ch = PauliChannel.depolarizing2(0.15)
        assert len(ch.terms) == 15
        assert np.isclose(ch.identity_probability, 0.85)

    def test_identity_dropped(self):
        ch = PauliChannel(1, [(0.2, "I"), (0.1, "X")])
        assert len(ch.terms) == 1
        assert np.isclose(ch.identity_probability, 0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            PauliChannel(1, [(0.5, "XX")])
        with pytest.raises(ValueError):
            PauliChannel(1, [(-0.1, "X")])
        with pytest.raises(ValueError):
            PauliChannel(1, [(0.7, "X"), (0.7, "Z")])
        with pytest.raises(ValueError):
            PauliChannel(1, [(0.5, "Q")])

    def test_xz_masks(self):
        ch = PauliChannel(2, [(0.1, "XZ"), (0.1, "YI")])
        xm, zm = ch.xz_masks()
        assert xm.tolist() == [[True, False], [True, False]]
        assert zm.tolist() == [[False, True], [True, False]]

    def test_sample_indices_distribution(self):
        ch = PauliChannel.bit_flip(0.25)
        rng = np.random.default_rng(0)
        idx = ch.sample_indices(40000, rng)
        assert np.isclose((idx == 0).mean(), 0.25, atol=0.02)


class TestNoiseModel:
    def test_locations(self):
        circuit = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        model = NoiseModel(
            after_gate_1q=PauliChannel.depolarizing(0.01),
            after_gate_2q=PauliChannel.depolarizing2(0.02),
            before_measure=PauliChannel.bit_flip(0.03),
        )
        sites = model.locations(circuit)
        assert [s[0] for s in sites] == [0, 1, 2, 2]

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(after_gate_1q=PauliChannel.depolarizing2(0.1))
        with pytest.raises(ValueError):
            NoiseModel(after_gate_2q=PauliChannel.bit_flip(0.1))


class TestFrameSampler:
    def test_requires_clifford(self):
        with pytest.raises(ValueError):
            FrameSampler(Circuit(1).append(gates.T, 0), NoiseModel())

    def test_measurement_flip_rate(self):
        circuit = Circuit(1)
        noise = NoiseModel(before_measure=PauliChannel.bit_flip(0.2))
        dist = FrameSampler(circuit, noise).sample(50000, rng=0)
        assert np.isclose(dist[1], 0.2, atol=0.01)

    def test_phase_flip_invisible_in_z(self):
        circuit = Circuit(1).append(gates.X, 0)
        noise = NoiseModel(before_measure=PauliChannel.phase_flip(0.5))
        dist = FrameSampler(circuit, noise).sample(2000, rng=0)
        assert dist[1] == 1.0

    def test_noiseless_matches_exact(self):
        circuit = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        dist = FrameSampler(circuit, NoiseModel()).sample(40000, rng=0)
        assert np.isclose(dist[0b00], 0.5, atol=0.02)
        assert dist[0b01] == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_against_exact_noisy_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        circuit = Circuit(2)
        circuit.append(gates.H, 0).append(gates.CX, 0, 1).append(gates.S, 1)
        noise = NoiseModel(
            after_gate_1q=PauliChannel.depolarizing(0.15),
            after_gate_2q=PauliChannel.depolarizing2(0.2),
        )
        expected = exact_noisy_distribution(circuit, noise)
        sampled = FrameSampler(circuit, noise).sample(60000, rng=rng)
        assert hellinger_fidelity(expected, sampled) > 0.999

    def test_error_propagates_through_cx(self):
        # X error on control after H propagates to both qubits through CX
        circuit = Circuit(2).append(gates.I, 0).append(gates.CX, 0, 1)
        noise = NoiseModel(after_gate_1q=PauliChannel.bit_flip(1.0))
        dist = FrameSampler(circuit, noise).sample(500, rng=0)
        assert dist[0b11] == 1.0


class TestXFrames:
    """Bit flips reach the outcomes through the X part of the frames."""

    def test_bit_flip_and_depolarizing_against_exact_mixture(self):
        """Eight noise locations — depolarizing after each one-qubit gate,
        a bit flip on either wire after each CX, a bit flip before each
        measurement — against the exact mixture over every error
        configuration.  With ``N`` shots over ``K`` outcomes,
        ``P(TV >= t) <= 2^K exp(-2 N t^2)`` (the L1 deviation bound of the
        empirical distribution), so ``t`` below fails a correct sampler
        with probability ``1e-6``; the seed is fixed, so the verdict is
        too."""
        circuit = Circuit(3).append(gates.H, 0).append(gates.CX, 0, 1)
        circuit.append(gates.S, 1).append(gates.CX, 1, 2).append(gates.H, 2)
        noise = NoiseModel(
            after_gate_1q=PauliChannel.depolarizing(0.3),
            after_gate_2q=PauliChannel(2, [(0.1, "XI"), (0.1, "IX")]),
            before_measure=PauliChannel.bit_flip(0.1),
        )
        assert len(noise.locations(circuit)) == 8
        expected = exact_noisy_distribution(circuit, noise)
        shots, outcomes = 20000, 2**3
        bound = np.sqrt((outcomes * np.log(2) + np.log(1e6)) / (2 * shots))
        sampled = FrameSampler(circuit, noise).sample(shots, rng=0)
        assert total_variation_distance(expected, sampled) < bound
        noiseless = SV.probabilities(circuit)
        assert total_variation_distance(expected, noiseless) > 4 * bound
