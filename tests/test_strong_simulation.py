"""Tests for strong simulation and the extension backends (paper §V-C, §XI)."""

import numpy as np
import pytest

from repro.analysis import hellinger_fidelity
from repro.apps.hwea import HWEA
from repro.circuits import Circuit, gates, inject_t_gates, random_clifford_circuit
from repro.core import (
    ExecutionConfig,
    ReconstructionConfig,
    SamplingConfig,
    SuperSim,
)
from repro.mps import MPSSimulator
from repro.stabilizer import NoiseModel, PauliChannel
from repro.statevector import StatevectorSimulator

SV = StatevectorSimulator()
EXACT = SuperSim()


class TestStrongSimulation:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_statevector_pointwise(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        circuit = inject_t_gates(random_clifford_circuit(n, 4, rng), 1, rng)
        expected = SV.probabilities(circuit)
        for outcome in rng.integers(0, 2**n, size=6):
            bits = [(int(outcome) >> (n - 1 - i)) & 1 for i in range(n)]
            p = EXACT.probability_of(circuit, bits)
            assert np.isclose(p, expected[int(outcome)], atol=1e-9)

    def test_wide_ghz_point_query(self):
        """Point queries stay cheap at widths where 2^n is unthinkable."""
        n = 60
        circuit = Circuit(n).append(gates.H, 0)
        for q in range(n - 1):
            circuit.append(gates.CX, q, q + 1)
        circuit.append(gates.T, n // 2)
        assert np.isclose(EXACT.probability_of(circuit, [0] * n), 0.5, atol=1e-9)
        assert np.isclose(EXACT.probability_of(circuit, [1] * n), 0.5, atol=1e-9)
        assert EXACT.probability_of(circuit, [1] + [0] * (n - 1)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_bitstring_length_validation(self):
        circuit = Circuit(2).append(gates.H, 0)
        with pytest.raises(ValueError):
            EXACT.probability_of(circuit, [0])

    def test_non_bits_are_rejected(self):
        circuit = Circuit(4).append(gates.H, 0).append(gates.T, 0)
        for bits in (
            [0, 2, 0, 0],
            [0, -1, 0, 0],
            [0.9, 0, 0, 0],
            [0, 1.5, 0, 0],
            [0, 0, 1.0, 0],
            [0, 0, 0, "2"],
        ):
            with pytest.raises(ValueError, match="0 or 1"):
                EXACT.probability_of(circuit, bits)
        assert EXACT.probability_of(circuit, [False, 0, np.int64(0), 0]) == (
            pytest.approx(0.5, abs=1e-12)
        )
        assert EXACT.probability_of(circuit, "1000") == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "sampling",
        [SamplingConfig(), SamplingConfig(shots=3000, seed=5)],
        ids=["exact", "sampled"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_full_distributions_entry(self, seed, sampling):
        """A point query is the full reconstruction read at one outcome —
        zero entries included — whatever the fragment data is."""
        rng = np.random.default_rng(100 + seed)
        n = 6
        circuit = inject_t_gates(random_clifford_circuit(n, 5, rng), 2, rng)
        sim = SuperSim(sampling=sampling)
        full = sim.run(circuit).raw_distribution
        occurring = full.key_ints()
        missing = sorted(set(range(2**n)) - set(occurring))
        assert occurring and missing
        for outcome in occurring[:8] + missing[:4]:
            bits = [(outcome >> (n - 1 - i)) & 1 for i in range(n)]
            assert sim.probability_of(circuit, bits) == pytest.approx(
                full[outcome], abs=1e-12
            )

    def test_200_qubit_hwea_point_query(self):
        rng = np.random.default_rng(0)
        circuit = HWEA(200, 5).near_clifford_instance(num_t=1, rng=rng).measure_all()
        # a beam of one walks down to an outcome that does occur and to its
        # exact joint probability (2**-59: nothing may be pruned as zero)
        beam = SuperSim(
            reconstruction=ReconstructionConfig(mode="recursive", qubit_limit=8, top_k=1),
            execution=ExecutionConfig(prune_zeros=False),
        ).run(circuit)
        ((outcome, prob),) = list(beam.distribution)
        bits = [(outcome >> (199 - q)) & 1 for q in range(200)]
        assert 0.0 < prob < 1e-30
        assert EXACT.probability_of(circuit, bits) == pytest.approx(prob, rel=1e-9)

    def test_measured_subset_point_query(self):
        circuit = Circuit(3).append(gates.H, 0).append(gates.CX, 0, 1)
        circuit.append(gates.T, 1).append(gates.CX, 1, 2)
        circuit.measure([0, 2])
        expected = SV.probabilities(circuit)
        for key in range(4):
            bits = [(key >> 1) & 1, key & 1]
            assert np.isclose(
                EXACT.probability_of(circuit, bits), expected[key], atol=1e-9
            )


def pin_nonclifford(plan, simulator):
    """The plan with every non-Clifford fragment pinned to ``simulator``."""
    for fragment in plan.cut_circuit.fragments:
        if not fragment.is_clifford:
            plan = plan.with_backend(fragment.index, simulator)
    return plan


class TestPluggableBackends:
    def test_mps_as_nonclifford_backend(self):
        rng = np.random.default_rng(9)
        circuit = inject_t_gates(random_clifford_circuit(4, 4, rng), 1, rng)
        expected = SV.probabilities(circuit)
        plan = pin_nonclifford(SuperSim().plan(circuit), MPSSimulator())
        got = plan.execute().distribution
        assert hellinger_fidelity(expected, got) > 1 - 1e-8

    def test_mps_backend_sampled(self):
        rng = np.random.default_rng(10)
        circuit = inject_t_gates(random_clifford_circuit(3, 3, rng), 1, rng)
        sim = SuperSim(sampling=SamplingConfig(shots=4000, seed=1))
        expected = SV.probabilities(circuit)
        plan = pin_nonclifford(sim.plan(circuit), MPSSimulator())
        got = plan.execute().distribution
        assert hellinger_fidelity(expected, got) > 0.95


class TestNoisySuperSim:
    def test_noise_requires_shots(self):
        with pytest.raises(ValueError):
            SamplingConfig(noise=NoiseModel())  # exact mode cannot be noisy

    def test_noiseless_noise_model_matches_exact(self):
        rng = np.random.default_rng(11)
        circuit = inject_t_gates(random_clifford_circuit(3, 3, rng), 1, rng)
        sim = SuperSim(sampling=SamplingConfig(shots=20000, noise=NoiseModel(), seed=2))
        expected = SV.probabilities(circuit)
        got = sim.run(circuit).distribution
        assert hellinger_fidelity(expected, got) > 0.99

    def test_noise_changes_output(self):
        # |0> -> H T H ... with heavy depolarizing noise flattens outcomes
        circuit = Circuit(2)
        circuit.append(gates.X, 0).append(gates.X, 1)
        circuit.append(gates.T, 0)
        noise = NoiseModel(before_measure=PauliChannel.bit_flip(0.4))
        noiseless = SuperSim(sampling=SamplingConfig(shots=30000, seed=3)).run(circuit).distribution
        noisy = SuperSim(
            sampling=SamplingConfig(shots=30000, noise=noise, seed=3)
        ).run(circuit).distribution
        assert noiseless[0b11] > 0.99
        # the T-gate fragment is noiseless, but the Clifford fragment's
        # measured qubits flip with probability 0.4
        assert noisy[0b11] < 0.75

    def test_noisy_rates_quantitative(self):
        """Readout flip on a 1-fragment Clifford circuit matches analytics."""
        circuit = Circuit(1).append(gates.T, 0)  # single non-Clifford fragment
        circuit2 = Circuit(2).append(gates.CX, 0, 1).append(gates.T, 1)
        noise = NoiseModel(before_measure=PauliChannel.bit_flip(0.25))
        dist = SuperSim(
            sampling=SamplingConfig(shots=60000, noise=noise, seed=4)
        ).run(circuit2).distribution
        # qubit 0 lives in the Clifford fragment: P(1) = 0.25
        marginals = dist.single_bit_marginals()
        assert np.isclose(marginals[0, 1], 0.25, atol=0.02)
