"""Distribution reconstruction: the ``4^k`` recombination (paper §V-C).

Across each cut the identity channel decomposes over the Pauli basis,

    rho  =  (1/2) * sum_{P in {I,X,Y,Z}}  Tr[P rho] P ,

so the probability of outcome ``x`` of the uncut circuit is

    p(x) = 2^-k * sum_{assignments P: cuts -> Pauli}
                 prod_fragments  T_F[ P|incident ](x_F) .

**One representation.**  ``T_F`` is a *fragment tensor on its support*
(:class:`SupportTensor`): ``values`` of shape ``(4,)*qi + (4,)*qo +
(len(support),)`` — one size-4 axis per incident cut, one axis over kept
outcomes — plus ``support``, the sorted keys of the kept outcomes ``x_F``
those columns belong to, in the layouts the data plane stores (``uint64``
up to 62 kept bits, chunked rows beyond;
:func:`~repro.analysis.distributions.pack_keys`).  Outcomes off the
support have ``T_F = 0`` for every Pauli and are simply not there.  The
support is *full* when it holds all ``2**kept`` keys; a dense tensor is
that case and may be handed over as a bare array, its column index being
its key.  A support may be empty (a pinned assignment the fragment cannot
produce), and a fragment that keeps no qubit has the one-key support
``[0]``.

**One contraction.**  The ``4^k`` sum happens once, in
:func:`_dense_einsum`: summing over all Pauli assignments *is* contracting
the shared cut axes of the fragments' ``values``, so the whole network
goes to ``np.einsum`` with a memoized greedy pairwise order, and what comes
back is the accumulator over the product of the supports — never over
``2**total_bits`` unless every support is full.  The kept bits partition
across the fragments, so an accumulator entry's outcome is its fragments'
keys side by side, permuted into the requested qubit order; entries at or
below :data:`ZERO_THRESHOLD` are dropped and the rest go to
``Distribution.from_arrays`` (:func:`_outcomes`).  When every support is
full the accumulator already *is* the dense distribution and the
permutation is a reshape/transpose; that is the only run-time choice, and
it is read off the tensors.  Many windows at once
(:func:`reconstruct_windows`, what a plan's windows readout asks for)
are the same contraction with a batch axis: the windows whose fragment
tensors have the same shapes are contracted together, along the
one-window path, each pairwise step one batched ``np.matmul`` — bit for
bit what one contraction per window gives.  Their answer stays arrays,
one ``(windows, 2**width)`` array of rows per window width
(:class:`WindowMarginals`), and so does the negative-mass rule
(:meth:`WindowMarginals.clipped`): a window's :class:`Distribution` is
built from its row only when someone reads it.

The Section IX zero-term optimization is accounting here, not a second
engine: Pauli slices whose magnitude is (near) zero — guaranteed for many
Pauli observables of stabilizer states — are flagged fragment-wise and
the assignments they kill counted by one indicator contraction
(:func:`_count_survivors`) into ``stats.terms_skipped``, per window when
many are batched.  (Should a shape ever need the pruning *speed*, slice
each cut axis to its live Pauli indices before the einsum — the masks
already know them.)

:func:`reconstruct_dynamic` is the one driver on top (CutQC-style
"dynamic definition"): output width is its own scale axis, so it
reconstructs a coarse distribution over the first ``qubit_limit`` qubits,
recurses only into the heaviest bins of positive probability (the fragment
tensors conditioned on the bits defined so far), and returns a calibrated
top-k :class:`Distribution`.  Its tensors are on their supports, a
handful of columns each: a Clifford fragment's at every level, the coarse
window's included, and any fragment's once some of its bits are pinned.
It works level by level: all bins of a level pin the same qubits, so the
driver hands its tensor callback the level's whole frontier at once
(``tensor_builder(window, fixed_qubits, fixed_rows)``) and pulls the bins'
tensors from the returned iterator in chunks of at most
:data:`_BATCH_ENTRIES` entries, contracting each chunk's bins of equal
operand shapes as one batch (the windows readout's batched contraction)
and dropping them before asking for more.  The frontier is a bit matrix,
one row per bin: the next one is read off the accumulator rows as arrays
and cut to the ``top_k`` heaviest, and a :class:`Distribution` is built
once, of the last level.  What a level costs to prepare — one visit per
fragment variant — is the callback's business; the driver never holds
more than a chunk's tensors.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro import kernels as _kernels
from repro.analysis.distributions import Distribution, full_keys, pack_keys, unpack_keys
from repro.core.fragments import CutCircuit
from repro.errors import ReconstructionMemoryError

#: widest output the dense accumulator may allocate by default
#: (2^26 float64 ≈ 0.5 GB); callers opt out with ``max_dense_bits=None``
DEFAULT_MAX_DENSE_BITS = 26

#: reconstructed outcomes at or below this are dropped (under
#: ``prune_zeros``), and so are fragment slices in the §IX term count
ZERO_THRESHOLD = 1e-12

#: rough seconds per accumulator-entry update of the recombination —
#: only used to rank dense vs recursive cost in estimates, so the
#: absolute scale matters less than both modes sharing it
_SECONDS_PER_TERM_ENTRY = 2e-9

#: operand and accumulator entries the recursive driver contracts in one
#: chunk of a level's bins (a larger bin is a chunk of its own): 0.5 MiB
#: of float64
_BATCH_ENTRIES = 2**16


def check_dense_width(total_bits: int, max_dense_bits: int | None) -> None:
    """Raise :class:`ReconstructionMemoryError` for unservable dense widths.

    Shared by :func:`reconstruct_distribution` and the execute pipeline —
    the pipeline checks *before* tomography, because the per-fragment
    dense tensors (``2**kept_bits`` per variant) blow up first on wide
    fragments, long before the final accumulator would.
    """
    if max_dense_bits is not None and total_bits > max_dense_bits:
        raise ReconstructionMemoryError(
            f"dense reconstruction over {total_bits} kept bits needs a "
            f"2**{total_bits}-entry accumulator (limit: {max_dense_bits} "
            "bits); use ReconstructionConfig(mode='recursive', "
            "qubit_limit=...) for a bounded-memory top-k reconstruction, "
            "SuperSim.marginal_probabilities for exact small marginals, or "
            "raise max_dense_bits explicitly if you really have the memory"
        )


class SupportTensor(NamedTuple):
    """A fragment tensor on its support (see the module docstring)."""

    #: shape ``(4,)*qi + (4,)*qo + (len(support),)``
    values: np.ndarray
    #: sorted kept-outcome keys: ``uint64 (m,)``, or chunked ``uint64 (m, c)``
    support: np.ndarray


@dataclass
class ReconstructionStats:
    """Diagnostics of one reconstruction.

    ``terms_total`` is ``4^k`` and ``terms_skipped`` how many of those
    Pauli assignments §IX zero-pruning found dead (the most of any bin in
    recursive mode).  ``mode`` is what ran (``full`` / ``windowed`` /
    ``recursive``), ``windows`` counts what was reconstructed — the one
    window of a full reconstruction, the batched window shapes of a
    windowed one, the refined bins of a recursive one (the coarse top
    window included; a level's bins are contracted in batches, so that is
    not the number of contractions) — ``refinements`` the refined bins
    beyond the coarse top window, ``peak_window_entries`` the largest
    accumulator any single window or bin needed — the product of its
    fragments' support sizes: ``2**kept bits`` for a dense tensor (full
    and windowed modes, and a recursive window's non-Clifford fragment
    with nothing pinned), a handful for a
    Clifford fragment or a conditioned bin, never ``2**total_bits`` of a
    wide output — and ``covered_probability`` the total mass of the
    returned outcomes (1.0 for exact full reconstructions; below 1.0 when
    recursive top-k truncation dropped light bins).
    """

    terms_total: int = 0
    terms_skipped: int = 0
    mode: str = "full"
    windows: int = 0
    refinements: int = 0
    peak_window_entries: int = 0
    covered_probability: float = 1.0


@functools.lru_cache(maxsize=None)
def _einsum_path(signature: tuple) -> list:
    """Greedy ``np.einsum_path`` of one shape/subscript signature, memoized.

    ``signature`` is ``((shape, subscript), ..., out_subscript)``.  The
    path depends on nothing else, and the recursive driver contracts the
    same shapes once per frontier bin.
    """
    operands: list = []
    for shape, sub in signature[:-1]:
        operands += [np.broadcast_to(0.0, shape), list(sub)]
    operands.append(list(signature[-1]))
    return np.einsum_path(*operands, optimize="greedy")[0]


def _cached_einsum_path(operands: list) -> list:
    """:func:`_einsum_path` of an interleaved ``[tensor, subscript, ...,
    out_subscript]`` operand list."""
    pairs = zip(operands[:-1:2], operands[1:-1:2])
    signature = tuple((t.shape, tuple(sub)) for t, sub in pairs)
    return _einsum_path(signature + (tuple(operands[-1]),))


def _axis_cuts(fragments) -> list[list[int]]:
    """Per fragment: the cut ids of its Pauli axes, in tensor axis order."""
    return [
        [c for c, _ in f.quantum_inputs] + [c for c, _ in f.quantum_outputs]
        for f in fragments
    ]


def _output_order(fragments, kept_locals, keep_qubits) -> list[int]:
    """Where each of ``keep_qubits`` sits among the contraction's output bits.

    Those run fragment by fragment — fragment 0's kept bits, fragment 1's,
    ... — and together must be exactly the requested qubits.
    """
    concat_qubits: list[int] = []
    for fragment, kl in zip(fragments, kept_locals):
        local_to_orig = {lq: oq for oq, lq in fragment.circuit_outputs}
        concat_qubits.extend(local_to_orig[lq] for lq in kl)
    if sorted(concat_qubits) != sorted(keep_qubits):
        raise ValueError("kept fragment outputs do not match requested qubits")
    return [concat_qubits.index(q) for q in keep_qubits]


def _count_survivors(
    tensors: list[np.ndarray], axis_cuts: list[list[int]], k: int, batch: int = 0
) -> np.ndarray:
    """Number of Pauli assignments with every fragment slice nonzero.

    A fragment's slice is live when some entry's magnitude exceeds
    :data:`ZERO_THRESHOLD`; one einsum over the 0/1 indicator tensors —
    the same contraction as the reconstruction itself, but over tiny
    ``4^axes`` masks, and accounting rather than a kernel call — counts
    the assignments.  With ``batch`` every tensor carries a leading axis
    of one slice per window, and the count comes back per window.
    """
    lead = [k] if batch else []
    operands: list = []
    for tensor, cuts in zip(tensors, axis_cuts):
        live = (np.abs(tensor) > ZERO_THRESHOLD).any(axis=-1)
        operands += [live.astype(np.float64), lead + list(cuts)]
    operands.append(lead)
    path = _cached_einsum_path(operands)
    return np.rint(np.einsum(*operands, optimize=path)).astype(np.int64)


def output_sites(cut_circuit: CutCircuit) -> dict[int, tuple[int, int, int]]:
    """Every original qubit -> ``(rank, fragment, local qubit)`` holding it.

    ``rank`` counts the outputs fragment by fragment, each fragment's in
    its ``circuit_outputs`` order: the order a contraction lays its kept
    bits out in.  Computed once per request, it places any number of
    windows (:func:`window_layout`).
    """
    sites: dict[int, tuple[int, int, int]] = {}
    for f_index, fragment in enumerate(cut_circuit.fragments):
        for oq, lq in fragment.circuit_outputs:
            sites[oq] = (len(sites), f_index, lq)
    return sites


def window_layout(
    sites: dict[int, tuple[int, int, int]], n_fragments: int, window
) -> tuple[list[list[int]], list[int]]:
    """``(kept_locals, order)`` of one window of original qubits.

    ``kept_locals[f]`` lists fragment ``f``'s local qubits in the window,
    in its ``circuit_outputs`` order, and ``order`` where each window qubit
    sits among the contraction's output bits (see :func:`_output_order`).
    """
    placed = sorted(range(len(window)), key=lambda j: sites[window[j]][0])
    kept_locals: list[list[int]] = [[] for _ in range(n_fragments)]
    order = [0] * len(window)
    for position, j in enumerate(placed):
        _rank, f_index, lq = sites[window[j]]
        kept_locals[f_index].append(lq)
        order[j] = position
    return kept_locals, order


def _dense_einsum(
    tensors: list[np.ndarray], axis_cuts: list[list[int]], k: int, batch: int = 0
) -> np.ndarray:
    """Contract all fragment tensors over shared cut axes in one einsum.

    Cut ``c`` is axis label ``c``; fragment ``f``'s kept-outcome axis is
    label ``k + f`` and survives to the output (fragment order), so the
    result flattens to the accumulator over the product of the supports,
    fragment 0's outcome most significant.  The pairwise order comes from
    the memoized greedy ``np.einsum_path`` (see
    :func:`_cached_einsum_path`) and the contraction itself dispatches
    through :mod:`repro.kernels` so an accelerated tier can take over.

    With ``batch`` the call serves that many windows at once: every tensor
    carries a leading axis of one slice per window (label ``k +
    len(tensors)``, first in the output too), and the result is ``(batch,
    entries)``.  The pairwise order is still the one-window path, memoized
    on one slice's shapes, and numpy's optimized einsum contracts each of
    its pairwise steps as one ``np.matmul`` batched over that axis — the
    matmul of the window's own contraction, slice for slice — so every
    row is bit for bit the accumulator of its window alone.
    """
    lead = [k + len(tensors)] if batch else []
    operands: list = []
    one_window: list = []
    out_sub: list[int] = []
    for f_index, tensor in enumerate(tensors):
        sub = list(axis_cuts[f_index]) + [k + f_index]
        operands += [tensor, lead + sub]
        one_window += [tensor[0] if batch else tensor, sub]
        out_sub.append(k + f_index)
    operands.append(lead + out_sub)
    one_window.append(out_sub)
    path = _cached_einsum_path(one_window)
    result = _kernels.dense_contract(operands, path)
    return result.reshape((batch, -1) if batch else -1)


def _entry_bits(supports, picks, kept_locals, rows=None) -> np.ndarray:
    """The outcome bits of accumulator entries: their fragments' support
    keys side by side, fragment by fragment.

    ``picks[f]`` holds each entry's index into fragment ``f``'s support,
    which is ``None`` when full (the index is the key).  With ``rows`` the
    supports are stacked one per bin and entry ``i`` reads bin
    ``rows[i]``'s.
    """
    return np.concatenate(
        [
            unpack_keys(
                pick.astype(np.uint64)
                if support is None
                else support[pick] if rows is None else support[rows, pick],
                len(kept),
            )
            for support, pick, kept in zip(supports, picks, kept_locals)
        ],
        axis=1,
    )


def _outcomes(
    accumulator: np.ndarray, order: list[int], threshold: float, sparse=None
) -> Distribution:
    """The distribution an accumulator holds: its entries above
    ``threshold`` as outcomes over the requested qubits, ``order`` placing
    them (:func:`_output_order`).

    ``sparse`` is ``None`` when every support is full — the accumulator
    then *is* the dense distribution once its bit axes are in the requested
    order — and ``(supports, sizes, kept_locals)`` otherwise, an entry's
    outcome being its fragments' support keys side by side.
    """
    total_bits = len(order)
    if sparse is None and total_bits:
        accumulator = np.transpose(
            accumulator.reshape((2,) * total_bits), order
        ).reshape(-1)
    # only the surviving entries become outcomes — materialising every
    # explicit (near-)zero of the accumulator as an entry defeats the
    # sparse representation downstream
    live = np.flatnonzero(np.abs(accumulator) > threshold)
    if sparse is None:
        full = len(live) == len(accumulator)
        keys = full_keys(total_bits) if full else live.astype(np.uint64)
    else:
        supports, sizes, kept_locals = sparse
        bits = _entry_bits(supports, np.unravel_index(live, sizes), kept_locals)
        keys = pack_keys(bits[:, order])
    return Distribution.from_arrays(
        total_bits, keys, accumulator[live], assume_sorted=sparse is None
    )


def reconstruct_distribution(
    cut_circuit: CutCircuit,
    tensors: list[np.ndarray | SupportTensor],
    kept_locals: list[list[int]],
    keep_qubits: list[int],
    prune_zeros: bool = True,
    max_dense_bits: int | None = DEFAULT_MAX_DENSE_BITS,
) -> tuple[Distribution, ReconstructionStats]:
    """Recombine fragment tensors into the distribution over ``keep_qubits``.

    ``tensors[f]`` is fragment f's tensor over the outcomes of
    ``kept_locals[f]``, its kept circuit-output qubits — a
    :class:`SupportTensor`, or a bare array of shape ``(4,)*qi_f +
    (4,)*qo_f + (2**len(kept_locals[f]),)`` when the support is full;
    together the kept qubits must cover ``keep_qubits`` exactly.  The
    accumulator holds one entry per combination of the fragments' support
    keys (``stats.peak_window_entries``).

    ``max_dense_bits`` guards the ``2**total_bits`` accumulator of full
    supports: wider requests raise :class:`ReconstructionMemoryError` up
    front instead of dying in allocation.  Pass ``None`` to disable:
    callers contracting smaller supports bound their product themselves
    (``SuperSim.sparse_probabilities(max_support=...)``).
    """
    fragments = cut_circuit.fragments
    k = cut_circuit.num_cuts
    stats = ReconstructionStats(terms_total=4**k, windows=1)
    axis_cuts = _axis_cuts(fragments)
    order = _output_order(fragments, kept_locals, keep_qubits)

    # a bare array is values on the full support: column index = key
    values, supports = zip(
        *(t if isinstance(t, SupportTensor) else (t, None) for t in tensors)
    )
    sizes = [v.shape[-1] for v in values]
    full = all(size == 2 ** len(kl) for size, kl in zip(sizes, kept_locals))
    if full:
        check_dense_width(len(order), max_dense_bits)
    stats.peak_window_entries = math.prod(sizes)

    if prune_zeros:
        stats.terms_skipped = 4**k - int(_count_survivors(values, axis_cuts, k))
    accumulator = _dense_einsum(values, axis_cuts, k)
    accumulator /= 2.0**k
    distribution = _outcomes(
        accumulator,
        order,
        ZERO_THRESHOLD if prune_zeros else 0.0,
        None if full else (supports, sizes, kept_locals),
    )
    return distribution, stats


def _values(tensor: np.ndarray | SupportTensor) -> np.ndarray:
    """A fragment tensor's values (a bare array is its own)."""
    return tensor.values if isinstance(tensor, SupportTensor) else tensor


def _batch(arrays: list[np.ndarray]) -> np.ndarray:
    """``arrays`` along a new leading axis: the first broadcast when they
    are all one object, else stacked."""
    if all(array is arrays[0] for array in arrays):
        return np.broadcast_to(arrays[0], (len(arrays),) + arrays[0].shape)
    return np.stack(arrays)


class WindowMarginals(Sequence):
    """Marginals of many windows, each window width's rows one array.

    ``rows[width]`` is a ``(windows of that width, 2**width)`` array, its
    rows in request order: row ``i`` is that width's ``i``-th window's
    marginal in the window's bit order (the column index is the outcome
    key), zero where the distribution has no outcome.  ``index[w]`` is
    window ``w``'s ``(width, row)``.  As a sequence it holds one
    :class:`Distribution` per window, each built from its row on first
    read (:meth:`Distribution.from_array`) and kept, so code that reads
    the rows (:meth:`array`) builds none.
    """

    def __init__(self, rows: dict[int, np.ndarray], index: list[tuple[int, int]]):
        self.rows = rows
        self.index = index
        self._built: list[Distribution | None] = [None] * len(index)

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, w: int) -> Distribution:
        dist = self._built[w]
        if dist is None:
            width, row = self.index[w]
            dist = self._built[w] = Distribution.from_array(self.rows[width][row])
        return dist

    def array(self, width: int) -> np.ndarray:
        """The ``(windows, 2**width)`` rows of windows all ``width`` qubits
        wide, in request order (a copy)."""
        if set(self.rows) - {width}:
            raise ValueError(f"not every window is {width} qubits wide")
        return self.rows.get(width, np.zeros((0, 2**width))).copy()

    def clipped(self) -> WindowMarginals:
        """:meth:`Distribution.clipped` of every window, row by row at once;
        an empty window stays empty.

        Entries at or below zero become zeros and the rest are divided by
        their total, summed as :meth:`Distribution.total` sums them: over
        the positive entries alone, in ascending key order.  A row sum with
        zeros in their place is the same float only below 8 entries (NumPy
        sums 8 or more pairwise, in blocks that the zeros would shift), so
        windows of 3 or more qubits sum their positive entries row by row.
        A window with entries but none positive raises, as
        :meth:`Distribution.normalized` does.
        """
        out = {}
        for width, rows in self.rows.items():
            positive = rows > 0
            if width <= 2:
                totals = np.where(positive, rows, 0.0).sum(axis=1)
            else:
                totals = np.array(
                    [row[keep].sum() for row, keep in zip(rows, positive)]
                )
            empty = ~rows.any(axis=1)
            if (totals[~empty] <= 0).any():
                raise ValueError("cannot normalise an all-zero distribution")
            totals[empty] = 1.0
            out[width] = np.where(positive, rows / totals[:, None], 0.0)
        return WindowMarginals(out, self.index)


def reconstruct_windows(
    cut_circuit: CutCircuit,
    tensors: list[list[np.ndarray]],
    layouts: list[tuple[list[list[int]], list[int]]],
    prune_zeros: bool = True,
    max_dense_bits: int | None = DEFAULT_MAX_DENSE_BITS,
) -> tuple[WindowMarginals, ReconstructionStats]:
    """:func:`reconstruct_distribution` for many windows, batched, as rows.

    ``tensors[f][w]`` is fragment ``f``'s dense tensor for window ``w``
    (what :func:`~repro.core.tomography.build_window_tensors` returns, one
    array shared by identical windows) and ``layouts[w]`` the window's
    ``(kept_locals, order)`` (:func:`window_layout`).  Windows whose
    tensors have the same shapes in every fragment form a group, and each
    group is one contraction (:func:`_dense_einsum` with a batch axis):
    a fragment whose tensor is one array for the whole group is broadcast
    over the batch, only the others are stacked.  The group's accumulator
    stays one ``(windows, 2**width)`` array: its rows go to the window bit
    order with one transpose per distinct ``order`` and into their
    width's rows of the returned :class:`WindowMarginals`, and entries at
    or below :data:`ZERO_THRESHOLD` (under ``prune_zeros``; else exact
    zeros) become ``0.0``.  No :class:`Distribution` is built: window
    ``w``'s, when read, is bit for bit what :func:`reconstruct_distribution`
    returns for that window alone.  The statistics count the batched
    contractions run (``windows``), the largest one window's accumulator
    (``peak_window_entries``) and the most Pauli assignments any window
    found dead (``terms_skipped``), in mode ``windowed``; of one window
    they are what :func:`reconstruct_distribution` reports for it.
    """
    k = cut_circuit.num_cuts
    axis_cuts = _axis_cuts(cut_circuit.fragments)
    threshold = ZERO_THRESHOLD if prune_zeros else 0.0
    stats = ReconstructionStats(terms_total=4**k, mode="windowed")
    groups: dict[tuple, list[int]] = {}
    for w in range(len(layouts)):
        groups.setdefault(tuple(t[w].shape for t in tensors), []).append(w)
    # each window's (width, row): request order within its width
    index: list[tuple[int, int]] = []
    per_width: dict[int, int] = {}
    for _kept, order in layouts:
        width = len(order)
        per_width[width] = per_width.get(width, 0) + 1
        index.append((width, per_width[width] - 1))
    rows = {width: np.empty((count, 2**width)) for width, count in per_width.items()}
    for members in groups.values():
        batch = len(members)
        width = len(layouts[members[0]][1])
        check_dense_width(width, max_dense_bits)
        operands = [_batch([of[w] for w in members]) for of in tensors]
        stats.windows += 1
        entries = math.prod(op.shape[-1] for op in operands)
        stats.peak_window_entries = max(stats.peak_window_entries, entries)
        if prune_zeros:
            alive = _count_survivors(operands, axis_cuts, k, batch)
            stats.terms_skipped = max(stats.terms_skipped, 4**k - int(alive.min()))
        # a group whose every tensor is shared may come back as a
        # read-only broadcast view: divide into a new array
        accumulators = _dense_einsum(operands, axis_cuts, k, batch) / 2.0**k
        by_order: dict[tuple, list[int]] = {}
        for i, w in enumerate(members):
            by_order.setdefault(tuple(layouts[w][1]), []).append(i)
        for order, picks in by_order.items():
            block = accumulators[picks].reshape((len(picks),) + (2,) * width)
            block = block.transpose([0] + [1 + o for o in order])
            rows[width][[index[members[i]][1] for i in picks]] = block.reshape(
                len(picks), -1
            )
    for width, of_width in rows.items():
        rows[width] = np.where(np.abs(of_width) > threshold, of_width, 0.0)
    return WindowMarginals(rows, index), stats


def _level_chunks(bins):
    """A level's ``(bin, tensors, kept_locals)`` items, pulled into lists
    whose operands and accumulators hold at most :data:`_BATCH_ENTRIES`
    entries together (a bin larger than that is a list of its own)."""
    chunk: list = []
    held = 0
    for item in bins:
        values = [_values(t) for t in item[1]]
        entries = sum(v.size for v in values) + math.prod(v.shape[-1] for v in values)
        if chunk and held + entries > _BATCH_ENTRIES:
            yield chunk
            chunk, held = [], 0
        chunk.append(item)
        held += entries
    if chunk:
        yield chunk


def _refine_bins(cut_circuit, window, chunk, prune_zeros, positive, stats):
    """Contract a chunk of one level's bins, one batched contraction per
    group of bins whose tensors have equal shapes in every fragment (as
    :func:`reconstruct_windows` does), and return each group's surviving
    accumulator entries as ``(bin, window bits, probability)`` arrays:
    entries above :data:`ZERO_THRESHOLD` (under ``prune_zeros``; else
    nonzero ones) and, if ``positive``, above zero."""
    fragments = cut_circuit.fragments
    k = cut_circuit.num_cuts
    axis_cuts = _axis_cuts(fragments)
    threshold = ZERO_THRESHOLD if prune_zeros else 0.0
    groups: dict[tuple, list] = {}
    for item in chunk:
        _bin, tensors, kept_locals = item
        shapes = tuple(_values(t).shape for t in tensors)
        groups.setdefault((shapes, tuple(map(tuple, kept_locals))), []).append(item)
    found = []
    for (shapes, kept_locals), members in groups.items():
        batch = len(members)
        operands, supports = [], []
        for f, kept in enumerate(kept_locals):
            tensors = [item[1][f] for item in members]
            operands.append(_batch([_values(t) for t in tensors]))
            # a full support's column index is its key
            full = shapes[f][-1] == 2 ** len(kept)
            supports.append(None if full else _batch([t.support for t in tensors]))
        sizes = [shape[-1] for shape in shapes]
        stats.windows += batch
        stats.peak_window_entries = max(stats.peak_window_entries, math.prod(sizes))
        if prune_zeros:
            alive = _count_survivors(operands, axis_cuts, k, batch)
            stats.terms_skipped = max(stats.terms_skipped, 4**k - int(alive.min()))
        # a group whose every tensor is shared may come back as a
        # read-only broadcast view: divide into a new array
        accumulators = _dense_einsum(operands, axis_cuts, k, batch) / 2.0**k
        live = np.abs(accumulators) > threshold
        if positive:
            live &= accumulators > 0.0
        row, entry = np.nonzero(live)
        bits = _entry_bits(supports, np.unravel_index(entry, sizes), kept_locals, row)
        order = _output_order(fragments, kept_locals, window)
        bins = np.array([item[0] for item in members], dtype=np.intp)
        found.append((bins[row], bits[:, order], accumulators[row, entry]))
    return found


def reconstruct_dynamic(
    cut_circuit: CutCircuit,
    tensor_builder,
    keep_qubits: list[int],
    *,
    qubit_limit: int = 16,
    top_k: int = 64,
    prune_zeros: bool = True,
) -> tuple[Distribution, ReconstructionStats]:
    """Recursive dynamic-definition reconstruction (CutQC-style).

    ``keep_qubits`` is split into consecutive windows of at most
    ``qubit_limit`` qubits.  The first window's distribution is
    reconstructed coarsely (all other qubits merged — i.e. marginalised);
    each bin of positive probability is then refined by reconstructing
    the next window *conditioned* on the bin's bits, keeping at most
    ``top_k`` bins per level.  Every per-bin value is the
    exact joint probability of the bits defined so far, so the final
    outcomes are calibrated — no renormalisation hides the truncated
    mass, which ``stats.covered_probability`` reports.

    ``tensor_builder(window, fixed_qubits, fixed_rows)`` is called once
    per level with the window's original qubits, the qubits every earlier
    window defined, and a ``(bins, len(fixed_qubits))`` bit matrix — one
    row per frontier bin, heaviest first.  It must return an iterable
    that yields, in row order, ``(tensors, kept_locals)`` for the window
    with that row's bits pinned — on their supports, where a pinned fragment
    has few outcomes left (see ``SuperSim._dynamic_tensor_builder``).

    A level is contracted in batches, not bin by bin: the driver pulls
    bins until they hold :data:`_BATCH_ENTRIES` operand and accumulator
    entries (or the level ends), and the bins of such a chunk whose
    tensors have equal shapes are stacked and contracted at once
    (:func:`_dense_einsum` with a batch axis) — bit for bit each bin's own
    contraction.  A fragment whose tensor is one object for every bin of
    the batch is broadcast, not stacked.  So the driver holds at most a
    chunk's tensors, about ``_BATCH_ENTRIES`` entries or a single bin's
    where one bin is larger, and a builder that yields as it goes keeps
    tomography memory at that rather than a level's — let alone
    ``2**total_bits``.  The next frontier is read off the accumulator
    rows as arrays: each entry's bits are its bin's row followed by its
    fragments' support keys placed in window order; no
    :class:`Distribution` is built before the last level.

    To define fewer qubits, pass fewer: a prefix of ``keep_qubits``
    reconstructs the same coarse levels.
    """
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

    stats = ReconstructionStats(terms_total=4**cut_circuit.num_cuts, mode="recursive")
    # the frontier: one row per bin, its bits over the qubits defined so
    # far, and each bin's exact joint probability
    rows = np.zeros((1, 0), dtype=bool)
    probs = np.ones(1)
    fixed_qubits: list[int] = []
    for level, window in enumerate(windows):
        final = level == len(windows) - 1
        level_tensors = tensor_builder(window, fixed_qubits, rows)
        bins = (
            (b, tensors, kept_locals)
            for b, (tensors, kept_locals) in zip(range(len(rows)), level_tensors)
        )
        found = [
            group
            for chunk in _level_chunks(bins)
            for group in _refine_bins(
                cut_circuit, window, chunk, prune_zeros, not final, stats
            )
        ]
        picked, bits, probs = (np.concatenate(parts) for parts in zip(*found))
        rows = np.hstack([rows[picked], bits])
        keys = pack_keys(rows)
        # heaviest bins first; ties broken by outcome key so seeded runs
        # are bit-for-bit reproducible
        columns = (keys,) if keys.ndim == 1 else tuple(keys.T[::-1])
        heaviest = np.lexsort(columns + (-probs,))[:top_k]
        rows, probs = rows[heaviest], probs[heaviest]
        fixed_qubits = fixed_qubits + window
        if not len(rows):
            break
    stats.refinements = max(stats.windows - 1, 0)

    # summed as floats in frontier order, heaviest first
    stats.covered_probability = float(sum(probs.tolist()))
    if not len(rows):  # maybe before the last level
        rows = np.zeros((0, len(keep)), dtype=bool)
    return Distribution.from_arrays(len(keep), pack_keys(rows), probs), stats


def auto_mode(total_bits: int, max_dense_bits: int = DEFAULT_MAX_DENSE_BITS) -> str:
    """The engine ``mode="auto"`` runs for an output ``total_bits`` wide:
    dense (``"full"``) while it fits ``max_dense_bits``, ``"recursive"``
    beyond.  The one rule: ``execute()`` and the estimate both ask it."""
    return "recursive" if total_bits > max_dense_bits else "full"


def estimate_reconstruction_cost(
    num_cuts: int,
    total_bits: int,
    *,
    qubit_limit: int = 16,
    top_k: int = 64,
    mode: str = "auto",
    max_support: int = 1_000_000,
) -> float:
    """Predicted seconds of the recombination stage (output-width aware).

    Dense work is ``4^k · 2**total_bits`` accumulator updates; recursive
    work is one coarse window plus up to ``top_k`` refinements per
    remaining level at ``4^k · 2**qubit_limit`` each; a ``"sparse"``
    contraction's accumulator is the product of its supports, which the
    readout bounds by ``max_support``: ``4^k · min(2**total_bits,
    max_support)``.  ``"auto"`` charges the engine ``execute()`` runs
    (:func:`auto_mode`), so ``ExecutionPlan.estimate()`` stays honest for
    wide circuits instead of quoting an impossible dense pass.
    """
    if mode == "auto":
        mode = auto_mode(total_bits)
    terms = 4.0**num_cuts
    window_bits = min(qubit_limit, total_bits)
    if mode == "full":
        units = terms * 2.0**total_bits
    elif mode == "windowed":
        units = terms * 2.0**window_bits
    elif mode == "sparse":
        units = terms * min(2.0**total_bits, max_support)
    else:
        levels = max(1, -(-total_bits // qubit_limit))
        units = (1 + (levels - 1) * top_k) * terms * 2.0**window_bits
    return units * _SECONDS_PER_TERM_ENTRY
