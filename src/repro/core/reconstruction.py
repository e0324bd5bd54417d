"""Distribution reconstruction: the ``4^k`` recombination (paper §V-C).

Across each cut the identity channel decomposes over the Pauli basis,

    rho  =  (1/2) * sum_{P in {I,X,Y,Z}}  Tr[P rho] P ,

so the probability of outcome ``x`` of the uncut circuit is

    p(x) = 2^-k * sum_{assignments P: cuts -> Pauli}
                 prod_fragments  T_F[ P|incident ](x_F) .

The sum has ``4^k`` terms, but it *is* a tensor-network contraction: each
fragment tensor carries one size-4 axis per incident cut plus one axis
over its kept output bits, and summing over all Pauli assignments is
exactly contracting the shared cut axes.  The dense path therefore hands
the whole network to ``np.einsum`` with a greedy contraction-order
heuristic — pairwise fragment contractions instead of a ``4^k`` Python
loop — and falls back to the legacy assignment loop only when the
Section IX zero-term pruning would skip so many assignments that
term-by-term evaluation is cheaper than the dense contraction.

The Section IX zero-term optimization lives here: slices whose magnitude
is (near) zero — guaranteed for many Pauli observables of stabilizer
states — are detected fragment-wise, counted via a cheap indicator
contraction (that count is what drives the einsum/loop choice), and near-
zero accumulator entries are dropped before the distribution is built.

Output width is its own scale axis, independent of fragment width: the
dense accumulator holds ``2**total_bits`` floats, so anything past ~30
kept bits is unservable no matter how fast the contraction is.  Two
bounded-memory engines lift that ceiling (CutQC-style "dynamic
definition"):

* :func:`reconstruct_marginal` — the *windowed* contraction: the exact
  marginal over any small subset of the kept qubits, obtained by summing
  each fragment tensor over its traced-out kept bits *before* the cut-axis
  contraction, so no ``2**total_bits`` object ever exists;
* :func:`reconstruct_dynamic` — the *recursive* driver: reconstruct a
  coarse distribution over the first ``qubit_limit`` qubits, recurse only
  into the heaviest bins (conditioning the fragment tensors on the bits
  defined so far), and return a calibrated top-k :class:`Distribution`
  whose peak memory is ``O(4^k · 2^qubit_limit)`` at any output width.
  It works level by level: all bins of a level pin the same qubits, so
  the driver hands its tensor callback the level's whole frontier at once
  (``tensor_builder(window, fixed_qubits, fixed_rows)``) and pulls the
  bins' tensors from the returned iterator one at a time, contracting
  and dropping each before asking for the next.  What a level costs to
  prepare — one visit per fragment variant — is the callback's business;
  the driver never holds more than one bin's tensors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro import kernels as _kernels
from repro.analysis.distributions import Distribution
from repro.core.fragments import CutCircuit
from repro.errors import ReconstructionMemoryError

_ONE = np.uint64(1)

# fall back to the assignment loop when fewer than 1/_LOOP_SPARSITY of the
# 4^k terms survive zero-pruning: at that density enumerating survivors
# beats a dense contraction that cannot exploit the zeros
_LOOP_SPARSITY = 16

# minimum buffered-entry count before the sparse path folds its term
# buffers into their union support (bounds peak memory at ~the floor,
# not at surviving-terms x per-term support)
_SPARSE_COMPACT_FLOOR = 1 << 21

#: widest output the dense accumulator may allocate by default
#: (2^26 float64 ≈ 0.5 GB); callers opt out with ``max_dense_bits=None``
DEFAULT_MAX_DENSE_BITS = 26

#: rough seconds per accumulator-entry update of the recombination —
#: only used to rank dense vs recursive cost in estimates, so the
#: absolute scale matters less than both modes sharing it
_SECONDS_PER_TERM_ENTRY = 2e-9


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
            "reconstruct_marginal for exact small marginals, or raise "
            "max_dense_bits explicitly if you really have the memory"
        )


@dataclass
class ReconstructionStats:
    """Diagnostics of one reconstruction.

    The windowed/recursive engines extend the dense counters: ``mode`` is
    the engine that ran, ``windows`` counts window contractions (one per
    refined bin), ``refinements`` the contractions beyond the coarse top
    window, ``peak_window_entries`` the largest dense accumulator any
    single contraction allocated (the memory bound: ``2**qubit_limit``,
    never ``2**total_bits``), and ``covered_probability`` the total mass
    of the returned outcomes (1.0 for exact full reconstructions; below
    1.0 when recursive top-k truncation dropped light bins).
    """

    terms_total: int = 0
    terms_skipped: int = 0
    mode: str = "full"
    windows: int = 0
    refinements: int = 0
    peak_window_entries: int = 0
    covered_probability: float = 1.0
    path_cache_hits: int = 0
    path_cache_misses: int = 0


# -- einsum contraction-path cache -------------------------------------------
#
# `np.einsum_path` re-derives the greedy pairwise order on every call; for
# the recursive dynamic-definition engine that is once per window per
# frontier bin over *identical* shapes.  The path depends only on the
# operand shapes and subscripts, so it is memoized here and handed to the
# contraction kernel pre-computed.

_EINSUM_PATH_CACHE: dict[tuple, list] = {}
_PATH_CACHE_HITS = 0
_PATH_CACHE_MISSES = 0


def clear_einsum_path_cache() -> None:
    """Drop all memoized contraction paths and reset the hit counters."""
    global _PATH_CACHE_HITS, _PATH_CACHE_MISSES
    _EINSUM_PATH_CACHE.clear()
    _PATH_CACHE_HITS = 0
    _PATH_CACHE_MISSES = 0


def einsum_path_cache_counters() -> tuple[int, int]:
    """Cumulative ``(hits, misses)`` of the contraction-path cache."""
    return _PATH_CACHE_HITS, _PATH_CACHE_MISSES


def _cached_einsum_path(tag: str, operands: list):
    """Memoized ``np.einsum_path`` for an interleaved operand list.

    ``operands`` is ``[tensor, subscript, ..., out_subscript]``; the cache
    key is the shape/subscript signature (plus ``tag``, so differently
    shaped uses of coincidentally equal signatures cannot collide across
    call sites).
    """
    global _PATH_CACHE_HITS, _PATH_CACHE_MISSES
    signature: list = [tag]
    for i in range(0, len(operands) - 1, 2):
        signature.append((operands[i].shape, tuple(operands[i + 1])))
    signature.append(tuple(operands[-1]))
    key = tuple(signature)
    path = _EINSUM_PATH_CACHE.get(key)
    if path is None:
        _PATH_CACHE_MISSES += 1
        path = np.einsum_path(*operands, optimize="greedy")[0]
        _EINSUM_PATH_CACHE[key] = path
    else:
        _PATH_CACHE_HITS += 1
    return path


def _axis_cuts(fragments) -> list[list[int]]:
    """Per fragment: the cut ids of its Pauli axes, in tensor axis order."""
    return [
        [c for c, _ in f.quantum_inputs] + [c for c, _ in f.quantum_outputs]
        for f in fragments
    ]


def _nonzero_masks(
    tensors: list[np.ndarray], zero_threshold: float
) -> list[np.ndarray]:
    """Per fragment: boolean indicator over cut-axis combos of live slices."""
    return [
        np.max(np.abs(tensor), axis=-1) > zero_threshold for tensor in tensors
    ]


def _count_survivors(masks: list[np.ndarray], axis_cuts: list[list[int]]) -> int:
    """Number of Pauli assignments with every fragment slice nonzero.

    One einsum over the 0/1 indicator tensors — the same contraction as
    the reconstruction itself, but over tiny ``4^axes`` masks.
    """
    operands: list = []
    for mask, cuts in zip(masks, axis_cuts):
        operands.append(mask.astype(np.float64))
        operands.append(list(cuts))
    operands.append([])
    path = _cached_einsum_path("survivors", operands)
    return int(round(float(_kernels.dense_contract(operands, path))))


def _dense_einsum(
    tensors: list[np.ndarray], axis_cuts: list[list[int]], k: int
) -> np.ndarray:
    """Contract all fragment tensors over shared cut axes in one einsum.

    Cut ``c`` is axis label ``c``; fragment ``f``'s kept-bit axis is label
    ``k + f`` and survives to the output (fragment order), so the result
    flattens to the concatenated kept-bit accumulator.  The pairwise
    order comes from the memoized greedy ``np.einsum_path`` (see
    :func:`_cached_einsum_path`) and the contraction itself dispatches
    through :mod:`repro.kernels` so an accelerated tier can take over.
    """
    operands: list = []
    out_sub: list[int] = []
    for f_index, tensor in enumerate(tensors):
        operands.append(tensor)
        operands.append(list(axis_cuts[f_index]) + [k + f_index])
        out_sub.append(k + f_index)
    operands.append(out_sub)
    path = _cached_einsum_path("dense", operands)
    return _kernels.dense_contract(operands, path).reshape(-1)


def _dense_loop(
    tensors: list[np.ndarray],
    axis_cuts: list[list[int]],
    k: int,
    total_bits: int,
    masks: list[np.ndarray] | None,
) -> np.ndarray:
    """Legacy term-by-term recombination, skipping masked-out assignments.

    Kept as the sparsity fallback and as the reference implementation the
    einsum path is property-tested against.
    """
    accumulator = np.zeros(2**total_bits)
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
            continue
        term = vectors[0]
        for vec in vectors[1:]:
            term = np.multiply.outer(term, vec)
        accumulator += term.reshape(-1)
    return accumulator


def reconstruct_distribution(
    cut_circuit: CutCircuit,
    tensors: list[np.ndarray],
    kept_locals: list[list[int]],
    keep_qubits: list[int],
    prune_zeros: bool = True,
    zero_threshold: float = 1e-12,
    method: str = "auto",
    max_dense_bits: int | None = DEFAULT_MAX_DENSE_BITS,
) -> tuple[Distribution, ReconstructionStats]:
    """Recombine fragment tensors into the distribution over ``keep_qubits``.

    ``tensors[f]`` has shape ``(4,)*qi_f + (4,)*qo_f + (2**len(kept_locals[f]),)``
    and ``kept_locals[f]`` lists fragment f's kept circuit-output qubits;
    together they must cover ``keep_qubits`` exactly.

    ``method`` selects the dense engine: ``"einsum"`` (tensor-network
    contraction), ``"loop"`` (legacy ``4^k`` assignment loop), or
    ``"auto"`` (einsum unless zero-pruning leaves under ``1/16`` of the
    terms alive, where the loop wins).

    ``max_dense_bits`` guards the ``2**total_bits`` accumulator: wider
    requests raise :class:`ReconstructionMemoryError` up front instead of
    dying in allocation.  Pass ``None`` to disable (the bounded-memory
    engines do, their windows being small by construction).
    """
    if method not in ("auto", "einsum", "loop"):
        raise ValueError(f"unknown reconstruction method {method!r}")
    fragments = cut_circuit.fragments
    k = cut_circuit.num_cuts
    total_terms = 4**k
    stats = ReconstructionStats(terms_total=total_terms)
    hits0, misses0 = einsum_path_cache_counters()

    axis_cuts = _axis_cuts(fragments)
    kept_sizes = [len(kl) for kl in kept_locals]
    total_bits = sum(kept_sizes)
    check_dense_width(total_bits, max_dense_bits)
    stats.windows = 1
    stats.peak_window_entries = 2**total_bits

    masks = None
    survivors = total_terms
    if prune_zeros:
        masks = _nonzero_masks(tensors, zero_threshold)
        survivors = _count_survivors(masks, axis_cuts)
        stats.terms_skipped = total_terms - survivors

    # the loop wins in two regimes: heavy zero-pruning (it skips dead
    # assignments outright) and star topologies where one giant fragment
    # carries every cut axis (einsum would transpose/reduce the giant
    # repeatedly; slicing it per assignment streams it once)
    sizes = [t.size for t in tensors]
    giant = max(sizes)
    star_giant = giant >= (1 << 20) and giant * 3 >= 2 * sum(sizes)
    if method == "loop" or (
        method == "auto"
        and (
            (prune_zeros and survivors * _LOOP_SPARSITY <= total_terms)
            or star_giant
        )
    ):
        accumulator = _dense_loop(tensors, axis_cuts, k, total_bits, masks)
    else:
        accumulator = _dense_einsum(tensors, axis_cuts, k)
    accumulator /= 2.0**k

    # bit order of `accumulator`: fragment 0 kept bits, fragment 1 kept bits, ...
    # reorder to the requested original-qubit order
    concat_qubits: list[int] = []
    for fragment, kl in zip(fragments, kept_locals):
        local_to_orig = {lq: oq for oq, lq in fragment.circuit_outputs}
        concat_qubits.extend(local_to_orig[lq] for lq in kl)
    if sorted(concat_qubits) != sorted(keep_qubits):
        raise ValueError("kept fragment outputs do not match requested qubits")
    if total_bits:
        tensor_view = accumulator.reshape((2,) * total_bits)
        order = [concat_qubits.index(q) for q in keep_qubits]
        tensor_view = np.transpose(tensor_view, order)
        accumulator = tensor_view.reshape(-1)
    # build the sparse Distribution directly from the surviving entries —
    # materialising every explicit (near-)zero of the 2^n accumulator as
    # an entry defeats the sparse representation downstream
    threshold = zero_threshold if prune_zeros else 0.0
    nonzero = np.flatnonzero(np.abs(accumulator) > threshold)
    distribution = Distribution.from_arrays(
        len(keep_qubits),
        nonzero.astype(np.uint64),
        accumulator[nonzero],
        assume_sorted=True,
    )
    hits1, misses1 = einsum_path_cache_counters()
    stats.path_cache_hits = hits1 - hits0
    stats.path_cache_misses = misses1 - misses0
    return distribution, stats


def reconstruct_sparse_distribution(
    cut_circuit: CutCircuit,
    tensors: list[dict],
    kept_locals: list[list[int]],
    keep_qubits: list[int],
    prune_zeros: bool = True,
    zero_threshold: float = 1e-12,
    max_support: int = 1_000_000,
) -> tuple[Distribution, ReconstructionStats]:
    """Sparse recombination: array-valued fragment tensors, any width.

    ``tensors[f]`` maps Pauli combos to sparse slices — the array-backed
    :class:`~repro.core.tomography.SparseKeyedVector` the tomography stage
    emits (plain ``{outcome: value}`` dicts are still accepted and
    converted) — so each assignment's cross-fragment product is an array
    outer product and the final merge is one ``np.unique``-keyed
    accumulation instead of a Python dict-merge per term.  Support grows
    as the product of per-fragment supports; a guard raises when it
    exceeds ``max_support`` (dense circuits should use marginal
    reconstruction instead).
    """
    fragments = cut_circuit.fragments
    k = cut_circuit.num_cuts
    stats = ReconstructionStats(terms_total=4**k)
    axis_cuts = _axis_cuts(fragments)
    kept_sizes = [len(kl) for kl in kept_locals]
    total_bits = sum(kept_sizes)
    # uint64 keys cover the common case; Python-int (object) keys keep
    # arbitrary widths working
    use_object = total_bits > 62
    key_dtype = object if use_object else np.uint64

    frag_arrays: list[dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, float]]] = []
    for tensor in tensors:
        entry = {}
        for combo, vec in tensor.items():
            if isinstance(vec, dict):
                keys = np.array(list(vec.keys()), dtype=key_dtype)
                vals = np.array(list(vec.values()), dtype=np.float64)
            else:  # SparseKeyedVector or a bare (keys, vals) pair
                keys, vals = (
                    (vec.keys, vec.vals) if hasattr(vec, "vals") else vec
                )
                vals = np.asarray(vals, dtype=np.float64)
                if use_object:
                    # Python-int keys: numpy int shifts would overflow
                    keys = np.array(
                        [int(key) for key in keys], dtype=object
                    )
                else:
                    keys = np.asarray(keys).astype(np.uint64)
            maxabs = float(np.max(np.abs(vals))) if len(vals) else 0.0
            entry[combo] = (keys, vals, maxabs)
        frag_arrays.append(entry)

    all_keys: list[np.ndarray] = []
    all_vals: list[np.ndarray] = []
    buffered = 0
    # bound peak memory: fold buffered terms into their union support
    # whenever the raw buffers outgrow the floor (the per-term guard
    # below only bounds individual terms, not their sum over 4^k)
    compact_limit = _SPARSE_COMPACT_FLOOR

    def _compact() -> None:
        nonlocal all_keys, all_vals, buffered
        keys = np.concatenate(all_keys)
        vals = np.concatenate(all_vals)
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        all_keys = [unique_keys]
        all_vals = [np.bincount(inverse, weights=vals)]
        buffered = unique_keys.size

    for assignment in itertools.product(range(4), repeat=k):
        parts = []
        skip = False
        for f_index, entry in enumerate(frag_arrays):
            index = tuple(assignment[c] for c in axis_cuts[f_index])
            keys, vals, maxabs = entry[index]
            if prune_zeros and maxabs <= zero_threshold:
                skip = True
                break
            parts.append((keys, vals, kept_sizes[f_index]))
        if skip:
            stats.terms_skipped += 1
            continue
        term_keys, term_vals, _ = parts[0]
        for keys, vals, shift in parts[1:]:
            if use_object:
                term_keys = (
                    (term_keys[:, None] * (1 << shift)) | keys[None, :]
                ).ravel()
            else:
                term_keys = (
                    (term_keys[:, None] << np.uint64(shift)) | keys[None, :]
                ).ravel()
            term_vals = (term_vals[:, None] * vals[None, :]).ravel()
            if term_keys.size > max_support:
                raise ValueError(
                    "sparse reconstruction support exceeded max_support; "
                    "use marginal reconstruction for dense outputs"
                )
        all_keys.append(term_keys)
        all_vals.append(term_vals)
        buffered += term_keys.size
        if buffered > compact_limit:
            _compact()
    scale = 2.0**-k

    # reorder concatenated fragment bits into the requested qubit order
    concat_qubits: list[int] = []
    for fragment, kl in zip(fragments, kept_locals):
        local_to_orig = {lq: oq for oq, lq in fragment.circuit_outputs}
        concat_qubits.extend(local_to_orig[lq] for lq in kl)
    if sorted(concat_qubits) != sorted(keep_qubits):
        raise ValueError("kept fragment outputs do not match requested qubits")
    if not all_keys:
        return Distribution(len(keep_qubits), {}), stats
    keys = np.concatenate(all_keys)
    vals = np.concatenate(all_vals)
    source_pos = {q: i for i, q in enumerate(concat_qubits)}
    m = len(keep_qubits)
    if use_object:
        out: dict[int, float] = {}
        for key, val in zip(keys, vals):
            new_key = 0
            for q in keep_qubits:
                bit = (int(key) >> (total_bits - 1 - source_pos[q])) & 1
                new_key = (new_key << 1) | bit
            out[new_key] = out.get(new_key, 0.0) + val * scale
        if prune_zeros:
            out = {kk: vv for kk, vv in out.items() if abs(vv) > zero_threshold}
        return Distribution(m, out), stats
    # vectorized bit permutation into the requested order
    new_keys = np.zeros_like(keys)
    for out_pos, q in enumerate(keep_qubits):
        src = np.uint64(total_bits - 1 - source_pos[q])
        dst = np.uint64(m - 1 - out_pos)
        new_keys |= ((keys >> src) & _ONE) << dst
    unique_keys, inverse = np.unique(new_keys, return_inverse=True)
    sums = np.bincount(inverse, weights=vals) * scale
    if prune_zeros:
        live = np.abs(sums) > zero_threshold
    else:
        live = sums != 0.0
    distribution = Distribution.from_arrays(
        m, unique_keys[live], sums[live], assume_sorted=True
    )
    return distribution, stats


# -- bounded-memory engines (dynamic definition) ----------------------------


def _reduce_window_tensors(
    cut_circuit: CutCircuit,
    tensors: list[np.ndarray],
    kept_locals: list[list[int]],
    window: list[int],
    fixed: dict[int, int],
) -> tuple[list[np.ndarray], list[list[int]]]:
    """Per-fragment tensors marginalised onto ``window`` (``fixed`` pinned).

    The kept output bits partition across fragments, so marginalising the
    reconstructed distribution commutes with reducing each fragment tensor
    independently: traced-out kept bits are summed, ``fixed`` bits are
    sliced, and only the window bits survive on the last axis.  The
    subsequent cut-axis contraction then never sees more than
    ``2**len(window)`` output entries.
    """
    window_set = set(window)
    new_tensors: list[np.ndarray] = []
    new_kept: list[list[int]] = []
    for fragment, kept, tensor in zip(
        cut_circuit.fragments, kept_locals, tensors
    ):
        local_to_orig = {lq: oq for oq, lq in fragment.circuit_outputs}
        orig = [local_to_orig[lq] for lq in kept]
        m = len(kept)
        head = tensor.shape[:-1]
        t = tensor.reshape(head + (2,) * m)
        base = len(head)
        # reduce from the last bit axis backward so earlier axis indices
        # stay valid as axes disappear
        axes: list[int] = []
        bits: list[int] = []
        for j in range(m - 1, -1, -1):
            q = orig[j]
            if q in window_set:
                continue
            axes.append(base + j)
            bits.append(int(fixed[q]) if q in fixed else -1)
        if axes:
            t = _kernels.window_reduce(t, axes, bits)
        survivors = [j for j in range(m) if orig[j] in window_set]
        t = t.reshape(head + (2 ** len(survivors),))
        new_tensors.append(np.ascontiguousarray(t))
        new_kept.append([kept[j] for j in survivors])
    return new_tensors, new_kept


def reconstruct_marginal(
    cut_circuit: CutCircuit,
    tensors: list[np.ndarray],
    kept_locals: list[list[int]],
    window: list[int],
    fixed: dict[int, int] | None = None,
    prune_zeros: bool = True,
    zero_threshold: float = 1e-12,
    method: str = "auto",
) -> tuple[Distribution, ReconstructionStats]:
    """Exact marginal over ``window`` without the full accumulator.

    ``tensors`` / ``kept_locals`` are the usual full fragment tensors (as
    fed to :func:`reconstruct_distribution`); ``window`` lists the kept
    qubits (original indices, output bit order) to marginalise onto, and
    ``fixed`` optionally pins other kept qubits to bit values — the
    returned values are then joint probabilities ``P(fixed, window)``,
    which is what the recursive driver conditions on.  Traced-out bins
    are summed fragment-side before the contraction, so peak memory is
    ``O(4^k · 2**len(window))`` regardless of the total kept width.
    """
    window = [int(q) for q in window]
    fixed = {int(q): int(b) for q, b in (fixed or {}).items()}
    if not window:
        raise ValueError("window must name at least one kept qubit")
    if len(set(window)) != len(window):
        raise ValueError("window contains duplicate qubits")
    overlap = set(window) & set(fixed)
    if overlap:
        raise ValueError(f"window and fixed qubits overlap: {sorted(overlap)}")
    covered: set[int] = set()
    for fragment, kept in zip(cut_circuit.fragments, kept_locals):
        local_to_orig = {lq: oq for oq, lq in fragment.circuit_outputs}
        covered.update(local_to_orig[lq] for lq in kept)
    missing = (set(window) | set(fixed)) - covered
    if missing:
        raise ValueError(
            f"window/fixed qubits not among kept outputs: {sorted(missing)}"
        )
    reduced, reduced_kept = _reduce_window_tensors(
        cut_circuit, tensors, kept_locals, window, fixed
    )
    distribution, stats = reconstruct_distribution(
        cut_circuit,
        reduced,
        reduced_kept,
        window,
        prune_zeros=prune_zeros,
        zero_threshold=zero_threshold,
        method=method,
        max_dense_bits=None,
    )
    stats.mode = "windowed"
    return distribution, stats


def reconstruct_dynamic(
    cut_circuit: CutCircuit,
    tensor_builder,
    keep_qubits: list[int],
    *,
    qubit_limit: int = 16,
    top_k: int = 64,
    recursion_depth: int | None = None,
    refine_threshold: float = 0.0,
    prune_zeros: bool = True,
    zero_threshold: float = 1e-12,
) -> tuple[Distribution, ReconstructionStats]:
    """Recursive dynamic-definition reconstruction (CutQC-style).

    ``keep_qubits`` is split into consecutive windows of at most
    ``qubit_limit`` qubits.  The first window's distribution is
    reconstructed coarsely (all other qubits merged — i.e. marginalised);
    each bin with probability above ``refine_threshold`` is then refined
    by reconstructing the next window *conditioned* on the bin's bits,
    keeping at most ``top_k`` bins per level.  Every per-bin value is the
    exact joint probability of the bits defined so far, so the final
    outcomes are calibrated — no renormalisation hides the truncated
    mass, which ``stats.covered_probability`` reports.

    ``tensor_builder(window, fixed_qubits, fixed_rows)`` is called once
    per level with the window's original qubits, the qubits every earlier
    window defined, and a ``(bins, len(fixed_qubits))`` bit matrix — one
    row per frontier bin, heaviest first.  It must return an iterable
    that yields, in row order, ``(tensors, kept_locals)`` for the window
    with that row's bits pinned (see ``SuperSim._dynamic_tensor_builder``).
    The driver consumes it lazily, one bin at a time, so a builder that
    yields as it goes keeps tomography memory at one bin's tensors rather
    than a level's — let alone ``2**total_bits``.

    ``recursion_depth`` caps the number of window levels; when it stops
    short of the full width the result is a (coarse) distribution over
    the first ``recursion_depth * qubit_limit`` kept qubits only.
    """
    keep = [int(q) for q in keep_qubits]
    if len(set(keep)) != len(keep):
        raise ValueError("keep_qubits contains duplicates")
    if not keep:
        raise ValueError("keep_qubits must not be empty")
    if qubit_limit < 1:
        raise ValueError("qubit_limit must be at least 1")
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    windows = [keep[i : i + qubit_limit] for i in range(0, len(keep), qubit_limit)]
    if recursion_depth is not None:
        if recursion_depth < 1:
            raise ValueError("recursion_depth must be at least 1 or None")
        windows = windows[:recursion_depth]
    defined = [q for w in windows for q in w]

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
                zero_threshold=zero_threshold,
                max_dense_bits=None,
            )
            stats.windows += 1
            stats.terms_skipped = max(stats.terms_skipped, sub.terms_skipped)
            stats.peak_window_entries = max(stats.peak_window_entries, 2**width)
            stats.path_cache_hits += sub.path_cache_hits
            stats.path_cache_misses += sub.path_cache_misses
            for key, prob in zip(dist.key_ints(), dist.values_array.tolist()):
                if final or prob > refine_threshold:
                    candidates.append(((prefix << width) | key, prob))
        # heaviest bins first; ties broken by outcome key so seeded runs
        # are bit-for-bit reproducible at any parallelism
        candidates.sort(key=lambda c: (-c[1], c[0]))
        frontier = candidates[:top_k]
        fixed_qubits = fixed_qubits + window
        if not frontier:
            break
    stats.refinements = max(stats.windows - 1, 0)

    probs = dict(frontier)
    stats.covered_probability = float(sum(probs.values()))
    return Distribution(len(defined), probs), stats


def estimate_reconstruction_cost(
    num_cuts: int,
    total_bits: int,
    *,
    qubit_limit: int = 16,
    top_k: int = 64,
    mode: str = "auto",
) -> float:
    """Predicted seconds of the recombination stage (output-width aware).

    Dense work is ``4^k · 2**total_bits`` accumulator updates; recursive
    work is one coarse window plus up to ``top_k`` refinements per
    remaining level at ``4^k · 2**qubit_limit`` each.  ``"auto"`` charges
    the cheaper of the two — the same choice ``execute()`` makes — so
    ``ExecutionPlan.estimate()`` stays honest for wide circuits instead
    of silently quoting an impossible dense pass.
    """
    terms = 4.0**num_cuts
    window_bits = min(qubit_limit, total_bits)
    dense = terms * 2.0**total_bits
    levels = max(1, -(-total_bits // qubit_limit))
    recursive = (1 + (levels - 1) * top_k) * terms * 2.0**window_bits
    if mode == "full":
        units = dense
    elif mode == "windowed":
        units = terms * 2.0**window_bits
    elif mode == "recursive":
        units = recursive
    else:
        units = min(dense, recursive)
    return units * _SECONDS_PER_TERM_ENTRY
