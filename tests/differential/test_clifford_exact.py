"""Clifford fragments are exact in every mode.

Shots reach only non-Clifford fragments and noisy (Pauli-frame) ones, so on
an all-Clifford circuit sampled mode *is* exact mode: the same distribution
bytes, from the same cache entries.  An exact job's key carries no seed or
shot count, so an exact-mode ``SuperSim`` that shares a sampled one's cache
finds every variant there and simulates nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.distributions import hellinger_fidelity
from repro.backends import VariantCache
from repro.circuits import gates, random_clifford_circuit
from repro.core import (
    ExecutionConfig,
    ReconstructionConfig,
    SamplingConfig,
    SuperSim,
)
from repro.core.fragments import Cut
from repro.paulis import PauliString
from repro.statevector import StatevectorSimulator


def _cut_clifford_circuit(n: int, seed: int):
    """A random Clifford circuit tied together by a CX chain, and two cuts
    halfway along two of its wires."""
    rng = np.random.default_rng(seed)
    circuit = random_clifford_circuit(n, 3, rng)
    for q in range(n - 1):
        circuit.append(gates.CX, q, q + 1)
    circuit.extend(random_clifford_circuit(n, 2, rng).ops)
    cuts = []
    for q in (n // 2 - 1, n // 2 + 1):
        on_wire = sum(q in op.qubits for op in circuit.ops)
        cuts.append(Cut(q, on_wire // 2))
    return circuit.measure_all(), cuts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_mode_is_exact_mode_on_clifford_circuits(seed):
    circuit, cuts = _cut_clifford_circuit(7, seed)
    shared = VariantCache()
    sampled_sim = SuperSim(
        sampling=SamplingConfig(shots=500, seed=seed),
        execution=ExecutionConfig(cache=shared),
    )
    plan = sampled_sim.plan(circuit, cuts=cuts)
    assert plan.num_cuts == 2
    assert set(plan.fragment_modes) == {"exact"}
    sampled = plan.execute()
    assert sampled.cache_hits == 0 and sampled.cache_misses > 0

    exact = SuperSim().run(circuit, cuts=cuts)
    for got, want in (
        (sampled.raw_distribution, exact.raw_distribution),
        (sampled.distribution, exact.distribution),
    ):
        assert np.array_equal(got.keys_array, want.keys_array)
        assert np.array_equal(got.values_array, want.values_array)
    truth = StatevectorSimulator().probabilities(circuit)
    assert hellinger_fidelity(truth, sampled.distribution) > 1 - 1e-9

    # the exact keys the sampled run stored are the ones exact mode asks for
    warm = SuperSim(execution=ExecutionConfig(cache=shared)).run(circuit, cuts=cuts)
    assert warm.cache_misses == 0
    assert warm.cache_hits == sampled.cache_misses
    assert np.array_equal(
        warm.raw_distribution.values_array, exact.raw_distribution.values_array
    )


def _bytes(value) -> tuple[bytes, ...]:
    """A result as bytes: a distribution's keys and values, or an array."""
    if isinstance(value, list):
        return tuple(part for item in value for part in _bytes(item))
    if hasattr(value, "keys_array"):
        return (value.keys_array.tobytes(), value.values_array.tobytes())
    return (np.asarray(value, dtype=float).tobytes(),)


def _most_likely(circuit) -> list[int]:
    dist = SuperSim().probabilities(circuit)
    key = int(dist.keys_array[np.argmax(dist.values_array)])
    n = dist.n_bits
    return [(key >> (n - 1 - i)) & 1 for i in range(n)]


#: every SuperSim entry point, as ``(reconstruction, ask(sim, circuit, cuts))``
ENTRY_POINTS = {
    "run-full": (None, lambda sim, c, cuts: sim.run(c, cuts=cuts).raw_distribution),
    "run-windowed": (
        ReconstructionConfig(mode="windowed", window=(0, 3, 5)),
        lambda sim, c, cuts: sim.run(c, cuts=cuts).raw_distribution,
    ),
    "run-recursive": (
        ReconstructionConfig(mode="recursive", qubit_limit=3, top_k=8),
        lambda sim, c, cuts: sim.run(c, cuts=cuts).raw_distribution,
    ),
    "marginal_probabilities": (
        None,
        lambda sim, c, cuts: sim.marginal_probabilities(
            c, [[0], [2, 4], [6, 1, 3]], cuts=cuts
        ),
    ),
    "single_qubit_marginals": (
        None,
        lambda sim, c, _cuts: sim.single_qubit_marginals(c),
    ),
    "sparse_probabilities": (
        None,
        lambda sim, c, _cuts: sim.sparse_probabilities(c),
    ),
    "probability_of": (
        None,
        lambda sim, c, _cuts: sim.probability_of(c, _most_likely(c)),
    ),
    "expectation": (
        None,
        lambda sim, c, _cuts: sim.expectation(c, PauliString.from_label("ZZIXIZY")),
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_is_exact_in_sampled_mode(entry):
    # 64 equally likely outcomes: no count out of 200 shots hits 1/64
    circuit, cuts = _cut_clifford_circuit(7, 5)
    reconstruction, ask = ENTRY_POINTS[entry]
    exact = ask(SuperSim(reconstruction=reconstruction), circuit, cuts)
    sampled_sim = SuperSim(
        sampling=SamplingConfig(shots=200, seed=11, tomography=True),
        reconstruction=reconstruction,
    )
    assert _bytes(ask(sampled_sim, circuit, cuts)) == _bytes(exact)


@pytest.mark.parametrize("shots,seed", [(1, 0), (64, 1), (5000, 2)])
def test_shots_and_seed_never_reach_a_clifford_fragment(shots, seed):
    circuit, cuts = _cut_clifford_circuit(7, 4)
    exact = SuperSim().run(circuit, cuts=cuts).raw_distribution
    sim = SuperSim(sampling=SamplingConfig(shots=shots, seed=seed))
    assert _bytes(sim.run(circuit, cuts=cuts).raw_distribution) == _bytes(exact)
