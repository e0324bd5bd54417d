"""``marginal_probabilities`` against the uncut circuit's statevector.

The first cell of the differential matrix: cut + evaluate + batched
reconstruction must give the marginals of the circuit it was cut from.
Each circuit reads out a ``H T H`` wire that a CX then ties into a
random Clifford register, so the marginals hold a non-stabilizer value
(``P(1) = sin^2(pi/8)``) that only a correct T fragment reproduces — the
test checks that swapping the T for an S moves the reference, so the
comparison can fail.

* Exact mode: every window within ``1e-9`` (max abs) of the statevector,
  also for a wire that carries a ``Y`` term across its cuts
  (:func:`_y_readout_circuit`).
* Sampled mode: every window's Hellinger infidelity under
  :func:`hellinger_bound`, derived from the shot count.
* The conditioned path, exact: a recursive ``run`` whose levels pin the
  Clifford fragment's bits, ``sparse_probabilities`` and ``probability_of``,
  each within ``1e-9`` of the statevector.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.distributions import hellinger_fidelity, total_variation_distance
from repro.circuits import Circuit, gates, random_clifford_circuit
from repro.core import ReconstructionConfig, SamplingConfig, SuperSim
from repro.core import tomography
from repro.statevector import StatevectorSimulator

SHOTS = 200_000
#: standard deviations a chi-square statistic may stray above its mean
Z = 6.0


def _t_readout_circuit(n: int, seed: int, magic=gates.T) -> Circuit:
    """``H magic H`` on wire 0, CX'd into a random Clifford register 1..n-1."""
    rng = np.random.default_rng(seed)
    register = {q: q + 1 for q in range(n - 1)}
    circuit = Circuit(n)
    circuit.extend(random_clifford_circuit(n - 1, 3, rng).map_qubits(register, n).ops)
    circuit.append(gates.H, 0).append(magic, 0).append(gates.H, 0)
    circuit.append(gates.CX, 0, 1)
    circuit.extend(random_clifford_circuit(n - 1, 2, rng).map_qubits(register, n).ops)
    return circuit.measure_all()


def _y_readout_circuit(n: int, seed: int, magic=gates.T) -> Circuit:
    """``H S`` puts wire 0 in |+i>, a ``Y`` eigenstate, in front of
    ``magic``, which turns part of that ``Y`` into ``X``, and an ``H``
    behind it reads ``X`` out: the Y term of the first cut reaches the
    output only through the second cut's X term, so its sign shows."""
    rng = np.random.default_rng(seed)
    register = {q: q + 1 for q in range(n - 1)}
    circuit = Circuit(n)
    circuit.extend(random_clifford_circuit(n - 1, 3, rng).map_qubits(register, n).ops)
    circuit.append(gates.H, 0).append(gates.S, 0).append(magic, 0)
    circuit.append(gates.H, 0)
    circuit.append(gates.CX, 0, 1)
    circuit.extend(random_clifford_circuit(n - 1, 2, rng).map_qubits(register, n).ops)
    return circuit.measure_all()


def _windows(n: int) -> list[list[int]]:
    return [[0], [1, 0], [0, 1, n - 1], [n - 1], [2, 3], [0], [n - 2, 0]]


def _uncut_marginals(circuit: Circuit, windows) -> list:
    full = StatevectorSimulator().probabilities(circuit)
    return [full.marginal(window) for window in windows]


def hellinger_bound(shots: int, outcomes: int, cuts: int, z: float = Z) -> float:
    """Hellinger infidelity a reconstructed marginal stays under.

    An ``N``-shot histogram over ``d`` outcomes has ``4N (1 - F_H)``
    asymptotically chi-square with ``d - 1`` degrees of freedom (``F_H =
    BC^2`` and ``1 - BC ~ chi^2 / 8N``): mean ``d - 1``, standard
    deviation ``sqrt(2 (d - 1))``.  The reconstruction is a
    quasi-probability combination: per cut, ``1/2 sum_P Tr[P .] P`` with
    every prepared Pauli expanded into eigenstates (``I = |0> + |1>``,
    ``X = 2|+> - |0> - |1>``, ...) has coefficient 1-norm ``gamma = (2 + 4
    + 4 + 2) / 2 = 6``, and such an estimate's variance is at most
    ``gamma^2`` times a plain histogram's — ``N / 36^k`` effective shots.
    """
    dof = outcomes - 1
    effective = shots / 36.0**cuts
    return (dof + z * math.sqrt(2 * dof)) / (4 * effective)


@pytest.mark.parametrize("seed", [0, 1])
def test_swapping_t_for_s_moves_the_reference(seed):
    windows = _windows(8)
    with_t = _uncut_marginals(_t_readout_circuit(8, seed), windows)
    with_s = _uncut_marginals(_t_readout_circuit(8, seed, magic=gates.S), windows)
    moved = max(
        float(np.abs(t.to_array() - s.to_array()).max()) for t, s in zip(with_t, with_s)
    )
    assert moved > 0.3


@pytest.mark.parametrize("n, seed", [(6, 0), (9, 1)])
def test_a_y_term_across_the_cuts_equals_the_statevector(n, seed, eliminations):
    """The Y slices of the Clifford fragments' tensors decide this cell: the
    marginals and the sparse joint of the uncut circuit, within ``1e-9``."""
    circuit = _y_readout_circuit(n, seed)
    windows = _windows(n)
    sim = SuperSim()
    assert sim.cut(circuit).num_cuts == 2
    with_s = _uncut_marginals(_y_readout_circuit(n, seed, magic=gates.S), windows)
    references = _uncut_marginals(circuit, windows)
    assert abs(references[0][1] - with_s[0][1]) > 0.1
    for window, dist, reference in zip(
        windows, sim.marginal_probabilities(circuit, windows), references
    ):
        error = np.abs(dist.to_array() - reference.to_array()).max()
        assert error <= 1e-9, (window, error)
    keep = [0, n - 1, 1]
    sparse = sim.sparse_probabilities(circuit, keep)
    assert total_variation_distance(sparse, _uncut_marginals(circuit, [keep])[0]) <= 1e-9
    assert eliminations


@pytest.mark.parametrize("n, seed", [(8, 0), (12, 1)])
def test_exact_marginals_equal_the_statevector(n, seed):
    circuit = _t_readout_circuit(n, seed)
    windows = _windows(n)
    sim = SuperSim()
    assert sim.cut(circuit).num_cuts > 0
    got = sim.marginal_probabilities(circuit, windows)
    references = _uncut_marginals(circuit, windows)
    for window, dist, reference in zip(windows, got, references):
        error = np.abs(dist.to_array() - reference.to_array()).max()
        assert error <= 1e-9, (window, error)


@pytest.mark.parametrize("n, seed", [(8, 0), (12, 1)])
def test_sampled_marginals_within_the_shot_bound(n, seed):
    circuit = _t_readout_circuit(n, seed)
    windows = _windows(n)
    sim = SuperSim(sampling=SamplingConfig(shots=SHOTS, seed=seed))
    cuts = sim.cut(circuit).num_cuts
    got = sim.marginal_probabilities(circuit, windows)
    references = _uncut_marginals(circuit, windows)
    with_s = _uncut_marginals(_t_readout_circuit(n, seed, magic=gates.S), windows)
    for window, dist, reference, wrong in zip(windows, got, references, with_s):
        bound = hellinger_bound(SHOTS, 2 ** len(window), cuts)
        infidelity = 1.0 - hellinger_fidelity(dist, reference)
        assert infidelity <= bound, (window, infidelity, bound)
        if 0 in window:
            # the bound is tight enough to tell the T from an S
            assert 1.0 - hellinger_fidelity(wrong, reference) > bound


# -- the conditioned path: recursive levels, sparse and point queries ------------


@pytest.fixture
def eliminations(monkeypatch):
    """Counts the map eliminations of Clifford fragments, so that a cell
    shows it ran the path it checks."""
    calls = []
    solve = tomography._solve_map

    def counted(pauli_map, windows):
        calls.append(len(windows))
        return solve(pauli_map, windows)

    monkeypatch.setattr(tomography, "_solve_map", counted)
    return calls


@pytest.mark.parametrize("n, seed", [(8, 0), (12, 1)])
def test_exact_recursive_run_equals_the_statevector(n, seed, eliminations):
    circuit = _t_readout_circuit(n, seed)
    reference = StatevectorSimulator().probabilities(circuit)
    # levels of 3 bits pin the Clifford fragment's; top_k keeps every outcome
    sim = SuperSim(
        reconstruction=ReconstructionConfig(mode="recursive", qubit_limit=3, top_k=2**n)
    )
    result = sim.run(circuit)
    wrong = StatevectorSimulator().probabilities(_t_readout_circuit(n, seed, gates.S))
    assert total_variation_distance(wrong, reference) > 0.1
    assert result.reconstruction_mode == "recursive"
    assert len(eliminations) > 1
    assert total_variation_distance(result.distribution, reference) <= 1e-9
    assert result.covered_probability == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n, seed", [(8, 0), (12, 1)])
def test_exact_sparse_probabilities_equal_the_statevector(n, seed, eliminations):
    circuit = _t_readout_circuit(n, seed)
    keep = [n - 1, 0, 2, 1]
    reference = StatevectorSimulator().probabilities(circuit).marginal(keep)
    got = SuperSim().sparse_probabilities(circuit, keep)
    wrong = StatevectorSimulator().probabilities(_t_readout_circuit(n, seed, gates.S))
    assert total_variation_distance(wrong.marginal(keep), reference) > 0.1
    assert eliminations
    assert total_variation_distance(got, reference) <= 1e-9


@pytest.mark.parametrize("n, seed", [(8, 0), (12, 1)])
def test_exact_point_probabilities_equal_the_statevector(n, seed, eliminations):
    circuit = _t_readout_circuit(n, seed)
    reference = StatevectorSimulator().probabilities(circuit)
    wrong = StatevectorSimulator().probabilities(_t_readout_circuit(n, seed, gates.S))
    rng = np.random.default_rng(seed)
    seen = [outcome for outcome, prob in reference if prob > 1e-12]
    # outcomes that occur, and (mostly) some that do not
    outcomes = [seen[int(i)] for i in rng.integers(0, len(seen), 6)]
    outcomes += [int(x) for x in rng.integers(0, 2**n, 4)]
    sim = SuperSim()
    for outcome in outcomes:
        bits = [(outcome >> (n - 1 - q)) & 1 for q in range(n)]
        got = sim.probability_of(circuit, bits)
        assert abs(got - reference[outcome]) <= 1e-9, (outcome, got)
    assert eliminations
    assert max(abs(wrong[o] - reference[o]) for o in outcomes) > 0.01
