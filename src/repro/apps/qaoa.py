"""QAOA for Sherrington–Kirkpatrick MaxCut (paper §IV-B, §VI-B).

The SK model puts a random +-1 coupling on every edge of the complete graph;
the QAOA ansatz matches the model exactly, so each round needs all-to-all
two-qubit connectivity — the property that makes this benchmark hard for
MPS simulators (long-range gates -> SWAP routing -> entanglement growth)
and easy for SuperSim once the single injected T gate is cut out.

Angle conventions: the cost layer applies ``exp(-i gamma w_ij Z_i Z_j)`` and
the mixer ``exp(-i beta X_q)``; in ZPow-exponent units ("turns of pi")
``t_cost = 2 gamma w / pi`` and ``t_mix = 2 beta / pi``, so Clifford points
are gamma, beta in multiples of pi/4.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.circuits.random import inject_t_gates


def sk_model(
    n: int, rng: np.random.Generator | int | None = None
) -> dict[tuple[int, int], int]:
    """Random +-1 couplings on the complete graph over ``n`` vertices."""
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    couplings: dict[tuple[int, int], int] = {}
    for i in range(n):
        for j in range(i + 1, n):
            couplings[(i, j)] = int(rng.choice([-1, 1]))
    return couplings


def qaoa_circuit(
    n: int,
    couplings: dict[tuple[int, int], int],
    gammas,
    betas,
) -> Circuit:
    """QAOA ansatz with one cost+mixer round per (gamma, beta) pair."""
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if gammas.shape != betas.shape:
        raise ValueError("gamma and beta lists must have equal length")
    circuit = Circuit(n)
    for q in range(n):
        circuit.append(gates.H, q)
    for gamma, beta in zip(gammas, betas):
        for (i, j), weight in couplings.items():
            t = 2.0 * gamma * weight / math.pi
            if t % 2.0 != 0.0:
                circuit.append(gates.ZZPow(t), i, j)
        for q in range(n):
            t = 2.0 * beta / math.pi
            if t % 2.0 != 0.0:
                circuit.append(gates.XPow(t), q)
    return circuit


def clifford_qaoa_circuit(
    n: int,
    couplings: dict[tuple[int, int], int],
    gamma_steps: int = 1,
    beta_steps: int = 1,
    rounds: int = 1,
) -> Circuit:
    """QAOA at a Clifford point: angles are ``steps * pi/4``."""
    gamma = gamma_steps * math.pi / 4
    beta = beta_steps * math.pi / 4
    return qaoa_circuit(n, couplings, [gamma] * rounds, [beta] * rounds)


def near_clifford_qaoa(
    n: int,
    rounds: int = 1,
    num_t: int = 1,
    rng: np.random.Generator | int | None = None,
) -> Circuit:
    """The paper's Fig. 6 benchmark: 1-round Clifford QAOA + injected T."""
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    couplings = sk_model(n, rng)
    gamma_steps = int(rng.integers(1, 4))
    beta_steps = int(rng.integers(1, 4))
    base = clifford_qaoa_circuit(n, couplings, gamma_steps, beta_steps, rounds)
    return inject_t_gates(base, num_t, rng)


def maxcut_value(couplings: dict[tuple[int, int], int], bits) -> float:
    """Cut value of an assignment: sum of weights of crossing edges."""
    bits = list(bits)
    return float(
        sum(w for (i, j), w in couplings.items() if bits[i] != bits[j])
    )


def expected_cut(couplings: dict[tuple[int, int], int], distribution) -> float:
    """Expected cut value under an outcome distribution over all vertices.

    One vectorised pass over the distribution's support: the packed keys
    expand to a bit matrix once, and every edge's crossing indicator is a
    column comparison — no per-outcome Python loop.
    """
    bits = distribution.bit_matrix()
    probs = distribution.values_array
    edges = list(couplings.items())
    left = bits[:, [i for (i, _j), _w in edges]]
    right = bits[:, [j for (_i, j), _w in edges]]
    weights = np.array([w for _e, w in edges], dtype=np.float64)
    return float(probs @ ((left != right) @ weights))


def expected_cut_from_correlations(
    couplings: dict[tuple[int, int], int],
    circuit: Circuit,
    backend=None,
) -> float:
    """``E[cut] = sum_ij w_ij (1 - <Z_i Z_j>)/2`` via narrow reconstructions.

    Scales to widths where the full output distribution is out of reach:
    each edge needs only a two-qubit marginal, so a SuperSim scorer keeps
    every reconstruction narrow regardless of circuit width.  ``backend``
    is anything :func:`repro.apps.vqe.as_scorer` accepts (default: an
    exact ``SuperSim()``); a ``SuperSim`` built from typed configs sets
    how the fragments are evaluated.
    """
    from repro.apps.vqe import as_scorer, pauli_expectation
    from repro.core.supersim import SuperSim
    from repro.paulis.pauli import PauliString

    backend = SuperSim() if backend is None else as_scorer(backend)
    n = circuit.n_qubits
    total = 0.0
    for (i, j), w in couplings.items():
        label = "".join("Z" if q in (i, j) else "I" for q in range(n))
        zz = pauli_expectation(circuit, PauliString.from_label(label), backend)
        total += w * (1 - zz) / 2
    return total


def expected_cut_from_marginals(
    couplings: dict[tuple[int, int], int],
    circuit: Circuit,
    sim=None,
) -> float:
    """Exact ``E[cut]`` from two-qubit windowed marginals, one pass.

    Each edge ``(i, j)`` only needs ``P(b_i != b_j)``, and
    :meth:`~repro.core.supersim.SuperSim.marginal_probabilities`
    reconstructs every edge's two-qubit marginal from a *single*
    fragment-evaluation pass — unlike
    :func:`expected_cut_from_correlations`, which re-runs the pipeline
    per edge.  Cost scales with edges x 4-entry windows, never
    ``2**n``, so this is the QAOA scorer for wide cut circuits.
    """
    if sim is None:
        from repro.core.supersim import SuperSim

        sim = SuperSim()
    edges = list(couplings.items())
    marginals = sim.marginal_probabilities(
        circuit, [(i, j) for (i, j), _w in edges]
    )
    total = 0.0
    for ((_i, _j), w), dist in zip(edges, marginals):
        total += w * (dist[0b01] + dist[0b10])
    return total


def expected_cut_from_samples(
    couplings: dict[tuple[int, int], int],
    bit_batches,
    n_qubits: int,
) -> float:
    """Streaming ``E[cut]`` over batches of sampled outcome bits.

    ``bit_batches`` yields ``(shots, n_qubits)`` bool matrices (chunks of
    a sampler's output, per-variant shot matrices, ...).  Batches fold
    into per-edge two-bit marginals via
    :class:`repro.analysis.StreamingAccumulator`, so memory stays at four
    floats per edge regardless of total shots or width.
    """
    from repro.analysis import StreamingAccumulator

    edges = list(couplings.items())
    accumulator = StreamingAccumulator(
        n_qubits, marginals=[(i, j) for (i, j), _w in edges]
    )
    for batch in bit_batches:
        accumulator.update(bits=batch)
    total = 0.0
    for (i, j), w in edges:
        marginal = accumulator.marginal((i, j))
        total += w * (marginal[0b01] + marginal[0b10])
    return total
