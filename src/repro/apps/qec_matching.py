"""Bit-flip repetition code with multi-round syndromes and matching decoding.

The paper's §XII roadmap calls for benchmarks beyond the single-round phase
code — codes "that also correct bit-flip errors" with repeated syndrome
extraction.  This module provides that workload within the terminal-
measurement circuit model: each syndrome round uses *fresh* ancilla qubits
(no mid-circuit measurement needed), and the decoder performs minimum-weight
matching of space-time syndrome defects via networkx.

Qubit layout for distance ``d`` with ``r`` rounds:

* data qubits ``0 .. d-1``;
* round ``k`` ancillas ``d + k*(d-1) .. d + (k+1)*(d-1) - 1``; ancilla ``i``
  of a round measures ``Z_i Z_{i+1}``.
"""

from __future__ import annotations

import numpy as np

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.stabilizer.frames import FrameSampler
from repro.stabilizer.noise import NoiseModel, PauliChannel


def bit_flip_repetition_code(distance: int, rounds: int = 1) -> Circuit:
    """``rounds`` rounds of Z x Z parity extraction on a distance-``d`` code."""
    if distance < 2 or rounds < 1:
        raise ValueError("need distance >= 2 and rounds >= 1")
    d = distance
    n = d + rounds * (d - 1)
    circuit = Circuit(n)
    for k in range(rounds):
        base = d + k * (d - 1)
        for i in range(d - 1):
            ancilla = base + i
            circuit.append(gates.CX, i, ancilla)
            circuit.append(gates.CX, i + 1, ancilla)
    circuit.measure_all()
    return circuit


def syndrome_defects(bits, distance: int, rounds: int) -> list[tuple[int, int]]:
    """Space-time defects: (round, position) where the syndrome *changes*.

    A defect at round 0 is a fired ancilla; at later rounds, a difference
    from the previous round's value.  A virtual final round computed from
    the data readout terminates error chains.
    """
    d = distance
    bits = list(bits)
    data = bits[:d]
    syndromes = []
    for k in range(rounds):
        base = d + k * (d - 1)
        syndromes.append(bits[base : base + d - 1])
    # final round derived from the data measurement itself
    syndromes.append([data[i] ^ data[i + 1] for i in range(d - 1)])
    defects = []
    previous = [0] * (d - 1)
    for k, row in enumerate(syndromes):
        for i in range(d - 1):
            if row[i] ^ previous[i]:
                defects.append((k, i))
        previous = row
    return defects


def match_defects(
    defects: list[tuple[int, int]], distance: int
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Minimum-weight matching of defects (boundaries included).

    Each defect either pairs with another defect (cost = space-time L1
    distance) or with the nearest code boundary (cost = distance to it).
    Implemented as max-weight matching on negated costs via networkx.
    """
    if not defects:
        return []
    # imported where it is used: networkx costs every importer of
    # repro.apps ~14 MiB of resident memory and ~0.1 s
    import networkx as nx

    graph = nx.Graph()
    big = 10 * (distance + len(defects))
    for a_idx, a in enumerate(defects):
        for b_idx in range(a_idx + 1, len(defects)):
            b = defects[b_idx]
            cost = abs(a[0] - b[0]) + abs(a[1] - b[1])
            graph.add_edge(("d", a_idx), ("d", b_idx), weight=big - cost)
        boundary_cost = min(a[1] + 1, distance - 1 - a[1])
        graph.add_edge(("d", a_idx), ("b", a_idx), weight=big - boundary_cost)
        # boundary nodes can pair among themselves for free
    for a_idx in range(len(defects)):
        for b_idx in range(a_idx + 1, len(defects)):
            graph.add_edge(("b", a_idx), ("b", b_idx), weight=big)
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    pairs = []
    for u, v in matching:
        if u[0] == "d" and v[0] == "d":
            pairs.append((defects[u[1]], defects[v[1]]))
        elif u[0] == "d":
            pairs.append((defects[u[1]], ("boundary", defects[u[1]])))
        elif v[0] == "d":
            pairs.append((defects[v[1]], ("boundary", defects[v[1]])))
    return pairs


def decode_correction(
    defects: list[tuple[int, int]], distance: int
) -> np.ndarray:
    """Data-qubit correction mask implied by the matched defects."""
    correction = np.zeros(distance, dtype=bool)
    for a, b in match_defects(defects, distance):
        if isinstance(b[0], str):  # boundary match
            defect = a
            left_cost = defect[1] + 1
            right_cost = distance - 1 - defect[1]
            if left_cost <= right_cost:
                correction[: defect[1] + 1] ^= True
            else:
                correction[defect[1] + 1 :] ^= True
        else:
            lo, hi = sorted((a[1], b[1]))
            correction[lo + 1 : hi + 1] ^= True
    return correction


def logical_bit_flip_error_rate(
    distance: int,
    bit_flip_probability: float,
    rounds: int = 1,
    shots: int = 2000,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Monte-Carlo logical X error rate with matching decoding.

    X noise is injected after every gate via Pauli frames; the encoded state
    is |0>_L, so a logical error is a decoded data word of majority 1.
    """
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    circuit = bit_flip_repetition_code(distance, rounds)
    noise = NoiseModel(
        after_gate_2q=PauliChannel(
            2,
            [
                (bit_flip_probability / 2, "XI"),
                (bit_flip_probability / 2, "IX"),
            ],
        ),
        before_measure=PauliChannel.bit_flip(bit_flip_probability),
    )
    sampler = FrameSampler(circuit, noise)
    bits = sampler.sample_bits(shots, rng)
    errors = 0
    for row in bits:
        defects = syndrome_defects(row, distance, rounds)
        correction = decode_correction(defects, distance)
        data = np.asarray(row[:distance], dtype=bool) ^ correction
        if int(data.sum()) > distance // 2:
            errors += 1
    return errors / shots
