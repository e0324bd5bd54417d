"""The ``4^k`` assignment loop and the window loop: the recombination oracles.

Paper §V-C as written — one term per Pauli assignment of the ``k`` cuts,
each the outer product of the fragments' slices, dead assignments (§IX)
skipped one by one.  Production contracts the same network in one einsum
(:func:`repro.core.reconstruction.reconstruct_distribution`); the loop
lives here as the reference that contraction is property-tested
(``tests/test_packed_equivalence.py``) and benchmarked
(``benchmarks/perf_smoke.py``) against.  It counts the assignments it
skips itself, so ``terms_skipped`` is checked too, and it works on dense
tensors: one on its support is scattered into zeros first
(:func:`dense_tensor`).

The batched window contraction
(:func:`repro.core.reconstruction.reconstruct_windows`) has its oracles
here too: :func:`loop_reconstruct_windows`, one ``reconstruct_distribution``
call per window, and :func:`per_window_reconstruct_windows`, the batched
contraction with the per-window tail it had before its answer became
rows (one :class:`Distribution` per window, and
:func:`per_window_clipped` for the negative-mass rule) — what
:class:`~repro.core.reconstruction.WindowMarginals` must equal byte for
byte.

So has the recursive driver
(:func:`repro.core.reconstruction.reconstruct_dynamic`), which contracts
each level's bins in equal-shape batches and reads the next frontier off
the accumulator rows as arrays: :func:`per_bin_reconstruct_dynamic` is
the driver it replaced, one ``reconstruct_distribution`` call and one
:class:`Distribution` per frontier bin, whose output and every
:class:`~repro.core.reconstruction.ReconstructionStats` field the batched
driver must equal byte for byte.  And so has its level builder
(``SuperSim._dynamic_tensor_builder``), which reads a Clifford fragment on
its support at every level, the top window included:
:func:`dense_unpinned_level_builder` gives every fragment nothing of which
is pinned one dense tensor for the level.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from repro.analysis.distributions import Distribution
from repro.core.fragments import CutCircuit
from repro.core.reconstruction import (
    DEFAULT_MAX_DENSE_BITS,
    ZERO_THRESHOLD,
    ReconstructionStats,
    SupportTensor,
    _axis_cuts,
    _count_survivors,
    _dense_einsum,
    _outcomes,
    _output_order,
    check_dense_width,
    reconstruct_distribution,
)
from repro.core.tomography import (
    build_conditioned_window_tensors,
    build_fragment_tensor,
)


def dense_tensor(tensor: np.ndarray | SupportTensor, width: int) -> np.ndarray:
    """The ``(4,)*(qi+qo) + (2**width,)`` array a fragment tensor over
    ``width`` kept bits stands for: a :class:`SupportTensor`'s values at its
    support's columns, zero elsewhere (a bare array is that already)."""
    if not isinstance(tensor, SupportTensor):
        return tensor
    dense = np.zeros(tensor.values.shape[:-1] + (2**width,))
    dense[..., tensor.support] = tensor.values
    return dense


def _dense_loop(
    tensors: list[np.ndarray],
    axis_cuts: list[list[int]],
    k: int,
    total_bits: int,
    masks: list[np.ndarray] | None,
) -> tuple[np.ndarray, int]:
    """Term-by-term recombination; returns ``(accumulator, terms skipped)``.

    ``masks[f]`` flags fragment ``f``'s live Pauli slices (``None``: every
    assignment is evaluated).
    """
    accumulator = np.zeros(2**total_bits)
    skipped = 0
    for assignment in itertools.product(range(4), repeat=k):
        vectors = []
        skip = False
        for f_index, tensor in enumerate(tensors):
            index = tuple(assignment[c] for c in axis_cuts[f_index])
            if masks is not None and not masks[f_index][index]:
                skip = True
                break
            vectors.append(tensor[index])
        if skip:
            skipped += 1
            continue
        term = vectors[0]
        for vec in vectors[1:]:
            term = np.multiply.outer(term, vec)
        accumulator += term.reshape(-1)
    return accumulator, skipped


def loop_reconstruct_distribution(
    cut_circuit: CutCircuit,
    tensors: list[np.ndarray | SupportTensor],
    kept_locals: list[list[int]],
    keep_qubits: list[int],
    prune_zeros: bool = True,
    zero_threshold: float = 1e-12,
) -> tuple[Distribution, ReconstructionStats]:
    """:func:`~repro.core.reconstruction.reconstruct_distribution` by the
    assignment loop over the dense ``2**total_bits`` accumulator."""
    fragments = cut_circuit.fragments
    k = cut_circuit.num_cuts
    axis_cuts = _axis_cuts(fragments)
    order = _output_order(fragments, kept_locals, keep_qubits)
    total_bits = len(order)
    tensors = [dense_tensor(t, len(kl)) for t, kl in zip(tensors, kept_locals)]
    masks = None
    if prune_zeros:
        masks = [np.max(np.abs(t), axis=-1) > zero_threshold for t in tensors]
    accumulator, skipped = _dense_loop(tensors, axis_cuts, k, total_bits, masks)
    accumulator /= 2.0**k
    stats = ReconstructionStats(
        terms_total=4**k,
        terms_skipped=skipped,
        windows=1,
        peak_window_entries=2**total_bits,
    )

    if total_bits:
        accumulator = np.transpose(
            accumulator.reshape((2,) * total_bits), order
        ).reshape(-1)
    threshold = zero_threshold if prune_zeros else 0.0
    live = np.flatnonzero(np.abs(accumulator) > threshold)
    distribution = Distribution.from_arrays(
        total_bits, live.astype(np.uint64), accumulator[live], assume_sorted=True
    )
    return distribution, stats


def loop_reconstruct_windows(
    cut_circuit: CutCircuit,
    tensors: list[list[np.ndarray]],
    windows: list[list[int]],
    prune_zeros: bool = True,
    max_dense_bits: int | None = DEFAULT_MAX_DENSE_BITS,
) -> list[Distribution]:
    """:func:`~repro.core.reconstruction.reconstruct_windows` by the window
    loop: one :func:`~repro.core.reconstruction.reconstruct_distribution`
    call per window, ``tensors[f][w]`` being fragment ``f``'s tensor for
    ``windows[w]``."""
    out = []
    for w, window in enumerate(windows):
        kept_locals = [
            [lq for oq, lq in fragment.circuit_outputs if oq in window]
            for fragment in cut_circuit.fragments
        ]
        dist, _stats = reconstruct_distribution(
            cut_circuit,
            [of_fragment[w] for of_fragment in tensors],
            kept_locals,
            window,
            prune_zeros=prune_zeros,
            max_dense_bits=max_dense_bits,
        )
        out.append(dist)
    return out


def per_window_reconstruct_windows(
    cut_circuit: CutCircuit,
    tensors: list[list[np.ndarray]],
    layouts: list[tuple[list[list[int]], list[int]]],
    prune_zeros: bool = True,
    max_dense_bits: int | None = DEFAULT_MAX_DENSE_BITS,
) -> tuple[list[Distribution], ReconstructionStats]:
    """:func:`~repro.core.reconstruction.reconstruct_windows` with a
    per-window tail: the same batched contraction per window shape, then
    one :func:`~repro.core.reconstruction._outcomes` call — one
    :class:`Distribution` — per window."""
    k = cut_circuit.num_cuts
    axis_cuts = _axis_cuts(cut_circuit.fragments)
    threshold = ZERO_THRESHOLD if prune_zeros else 0.0
    stats = ReconstructionStats(terms_total=4**k, mode="windowed")
    groups: dict[tuple, list[int]] = {}
    for w in range(len(layouts)):
        groups.setdefault(tuple(t[w].shape for t in tensors), []).append(w)
    out: list[Distribution] = [None] * len(layouts)  # type: ignore[list-item]
    for members in groups.values():
        batch = len(members)
        check_dense_width(len(layouts[members[0]][1]), max_dense_bits)
        operands = []
        for of_fragment in tensors:
            first = of_fragment[members[0]]
            if all(of_fragment[w] is first for w in members):
                operands.append(np.broadcast_to(first, (batch,) + first.shape))
            else:
                operands.append(np.stack([of_fragment[w] for w in members]))
        stats.windows += 1
        entries = math.prod(op.shape[-1] for op in operands)
        stats.peak_window_entries = max(stats.peak_window_entries, entries)
        if prune_zeros:
            alive = _count_survivors(operands, axis_cuts, k, batch)
            stats.terms_skipped = max(stats.terms_skipped, 4**k - int(alive.min()))
        # a group whose every tensor is shared may come back as a
        # read-only broadcast view: divide into a new array
        accumulators = _dense_einsum(operands, axis_cuts, k, batch) / 2.0**k
        for w, accumulator in zip(members, accumulators):
            out[w] = _outcomes(accumulator, layouts[w][1], threshold)
    return out, stats


def per_window_clipped(marginals: list[Distribution]) -> list[Distribution]:
    """The windows readout's negative-mass rule, window by window:
    :meth:`Distribution.clipped`, an empty window left empty."""
    return [dist.clipped() if len(dist) else dist for dist in marginals]


def per_bin_reconstruct_dynamic(
    cut_circuit: CutCircuit,
    tensor_builder,
    keep_qubits: list[int],
    *,
    qubit_limit: int = 16,
    top_k: int = 64,
    prune_zeros: bool = True,
) -> tuple[Distribution, ReconstructionStats]:
    """:func:`~repro.core.reconstruction.reconstruct_dynamic` bin by bin:
    one :func:`~repro.core.reconstruction.reconstruct_distribution` call —
    one contraction, one :class:`Distribution` — per frontier bin, pulled
    from the builder one at a time, and the next frontier built from the
    bins' outcomes as Python ``(key, probability)`` pairs."""
    keep = list(keep_qubits)
    if any(
        isinstance(q, bool) or not isinstance(q, numbers.Integral) for q in keep
    ):
        raise ValueError(f"keep_qubits must be integers, got {keep!r}")
    if len(set(keep)) != len(keep):
        raise ValueError("keep_qubits contains duplicates")
    if not keep:
        raise ValueError("keep_qubits must not be empty")
    if qubit_limit < 1:
        raise ValueError("qubit_limit must be at least 1")
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    windows = [keep[i : i + qubit_limit] for i in range(0, len(keep), qubit_limit)]

    k = cut_circuit.num_cuts
    stats = ReconstructionStats(terms_total=4**k, mode="recursive")
    # frontier bins: (prefix key over the bits defined so far, exact joint
    # probability of the bin)
    frontier: list[tuple[int, float]] = [(0, 1.0)]
    fixed_qubits: list[int] = []
    for level, window in enumerate(windows):
        final = level == len(windows) - 1
        width = len(window)
        n_fixed = len(fixed_qubits)
        fixed_rows = np.array(
            [
                [(prefix >> (n_fixed - 1 - j)) & 1 for j in range(n_fixed)]
                for prefix, _prob in frontier
            ],
            dtype=bool,
        )
        candidates: list[tuple[int, float]] = []
        level_tensors = tensor_builder(window, fixed_qubits, fixed_rows)
        for (prefix, _prob), (tensors, kept_locals) in zip(frontier, level_tensors):
            dist, sub = reconstruct_distribution(
                cut_circuit,
                tensors,
                kept_locals,
                window,
                prune_zeros=prune_zeros,
                max_dense_bits=None,
            )
            stats.windows += 1
            stats.terms_skipped = max(stats.terms_skipped, sub.terms_skipped)
            stats.peak_window_entries = max(
                stats.peak_window_entries, sub.peak_window_entries
            )
            for key, prob in zip(dist.key_ints(), dist.values_array.tolist()):
                if final or prob > 0.0:
                    candidates.append(((prefix << width) | key, prob))
        # heaviest bins first; ties broken by outcome key so seeded runs
        # are bit-for-bit reproducible
        candidates.sort(key=lambda c: (-c[1], c[0]))
        frontier = candidates[:top_k]
        fixed_qubits = fixed_qubits + window
        if not frontier:
            break
    stats.refinements = max(stats.windows - 1, 0)

    probs = dict(frontier)
    stats.covered_probability = float(sum(probs.values()))
    return Distribution(len(keep), probs), stats


def dense_unpinned_level_builder(cut_circuit: CutCircuit, fragment_data):
    """A level builder for :func:`~repro.core.reconstruction.reconstruct_dynamic`
    over exact ``fragment_data``: a fragment holding some of the fixed
    qubits streams its conditioned tensors
    (:func:`~repro.core.tomography.build_conditioned_window_tensors`), any
    other — a Clifford one too, and every fragment of the top window — has
    one dense tensor for the level
    (:func:`~repro.core.tomography.build_fragment_tensor`), rebuilt at
    every level.  No projection, no memory limit."""

    def build(window, fixed_qubits, fixed_rows):
        column = {q: j for j, q in enumerate(fixed_qubits)}
        kept_locals = [
            [lq for oq, lq in fragment.circuit_outputs if oq in window]
            for fragment in cut_circuit.fragments
        ]
        streams = []
        for fragment, data, kept in zip(
            cut_circuit.fragments, fragment_data, kept_locals
        ):
            pinned = [
                (lq, column[oq]) for oq, lq in fragment.circuit_outputs if oq in column
            ]
            if pinned:
                streams.append(
                    build_conditioned_window_tensors(
                        data,
                        kept,
                        [lq for lq, _ in pinned],
                        fixed_rows[:, [j for _, j in pinned]],
                        max_dense_bits=None,
                    )
                )
            else:
                tensor = build_fragment_tensor(data, kept, max_dense_bits=None)
                streams.append(itertools.repeat(tensor))
        for _ in range(len(fixed_rows)):
            yield [next(stream) for stream in streams], kept_locals

    return build
