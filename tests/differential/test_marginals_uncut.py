"""``marginal_probabilities`` against the uncut circuit's statevector.

The first cell of the differential matrix: cut + evaluate + batched
reconstruction must give the marginals of the circuit it was cut from.
Each circuit reads out a ``H T H`` wire that a CX then ties into a
random Clifford register, so the marginals hold a non-stabilizer value
(``P(1) = sin^2(pi/8)``) that only a correct T fragment reproduces — the
test checks that swapping the T for an S moves the reference, so the
comparison can fail.

* Exact mode: every window within ``1e-9`` (max abs) of the statevector.
* Sampled mode: every window's Hellinger infidelity under
  :func:`hellinger_bound`, derived from the shot count.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.distributions import hellinger_fidelity
from repro.circuits import Circuit, gates, random_clifford_circuit
from repro.core import SamplingConfig, SuperSim
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
