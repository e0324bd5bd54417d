"""Probability distributions over measurement outcomes.

A :class:`Distribution` maps bitstrings to probabilities.  Bitstrings are
stored as Python integers with the **first measured qubit in the most
significant bit** — the same big-endian convention used by the statevector
simulator (qubit 0 is the most significant index bit).

The paper quantifies accuracy with the Hellinger fidelity, evaluated on the
complete distribution for sparse outputs and on single-qubit marginals for
dense (VQA-style) outputs; both metrics live here.

Storage is array-native: a distribution holds packed parallel arrays —
sorted outcome keys plus ``float64`` probabilities — instead of a Python
dict, so the hot operations (marginalisation, sampling, per-bit marginals,
fidelity metrics) are single NumPy kernels.  Outcomes up to 62 bits pack
into one ``uint64`` key per entry; wider outcomes use the chunked-key
scheme of :func:`pack_bit_rows_chunked` (62 bits per ``uint64`` column,
most-significant chunk first).  The mapping-like surface (``probs``,
``__getitem__``, iteration over ``(outcome, p)`` pairs) is preserved on
top of the arrays.  Keys are never written after construction: a
distribution supported on every outcome of its width holds the one
read-only :func:`full_keys` array of that width, shared, and only its
values are its own.
"""

from __future__ import annotations

import functools
from typing import Iterable, Mapping

import numpy as np

from repro import kernels as _kernels

#: bits per packed key chunk (62 keeps every per-chunk dot product exact
#: in uint64 arithmetic, with headroom for the weight accumulation)
CHUNK_BITS = 62


def _num_chunks(n_bits: int) -> int:
    return max(1, -(-n_bits // CHUNK_BITS))


def _chunk_widths(n_bits: int) -> list[int]:
    """Bit widths of each key chunk, most-significant chunk first."""
    return [
        min(CHUNK_BITS, n_bits - CHUNK_BITS * j) for j in range(_num_chunks(n_bits))
    ]


def pack_bit_rows(bits: np.ndarray) -> np.ndarray:
    """Per-row big-endian integer keys of a ``(rows, width)`` bit matrix.

    A packed-bits dot product replaces per-row Python loops: widths below
    63 use a ``uint64`` weight vector; wider selections fall back to
    object-dtype Python integers (matrix width is unbounded here).
    """
    bits = np.asarray(bits, dtype=bool)
    width = bits.shape[1]
    if width < 63:
        weights = (1 << np.arange(width - 1, -1, -1)).astype(np.uint64)
        return bits.astype(np.uint64) @ weights
    # wide rows: uint64 dot products per 62-bit chunk, then shift-or the
    # chunk keys into Python ints — far cheaper than an object-dtype matmul
    acc = None
    for start in range(0, width, CHUNK_BITS):
        sub = bits[:, start : start + CHUNK_BITS]
        w = sub.shape[1]
        weights = (1 << np.arange(w - 1, -1, -1)).astype(np.uint64)
        vals = sub.astype(np.uint64) @ weights
        acc = vals.astype(object) if acc is None else (acc << w) | vals.astype(object)
    return acc


def pack_bit_rows_chunked(bits: np.ndarray) -> np.ndarray:
    """``(rows, chunks)`` uint64 keys of a ``(rows, width)`` bit matrix.

    The chunked twin of :func:`pack_bit_rows`: instead of shift-or-ing the
    per-chunk values into Python ints, the 62-bit chunk columns are kept as
    a 2-D ``uint64`` array (most-significant chunk first) so downstream
    ``np.unique(..., axis=0)`` accumulation stays fully vectorised at any
    width.
    """
    bits = np.asarray(bits, dtype=bool)
    width = bits.shape[1]
    columns = []
    for start in range(0, max(width, 1), CHUNK_BITS):
        sub = bits[:, start : start + CHUNK_BITS]
        w = sub.shape[1]
        weights = (1 << np.arange(w - 1, -1, -1)).astype(np.uint64)
        columns.append(sub.astype(np.uint64) @ weights)
    return np.stack(columns, axis=1)


def pack_keys(bits: np.ndarray) -> np.ndarray:
    """Keys of a ``(rows, width)`` bit matrix in the layout a
    :class:`Distribution` of that width stores: 1-D ``uint64`` up to 62
    bits, chunked rows beyond."""
    bits = np.asarray(bits, dtype=bool)
    if bits.shape[1] <= CHUNK_BITS:
        return pack_bit_rows(bits)
    return pack_bit_rows_chunked(bits)


def unpack_keys(
    keys: np.ndarray, n_bits: int, positions: Iterable[int] | None = None
) -> np.ndarray:
    """Inverse of :func:`pack_keys`: the ``(rows, len(positions))`` bool
    matrix of ``n_bits``-bit keys in either layout.  ``positions``
    (default: every bit, in order) counts from the most significant bit."""
    positions = list(range(n_bits)) if positions is None else list(positions)
    out = np.empty((len(keys), len(positions)), dtype=bool)
    if keys.ndim == 1:
        for col, pos in enumerate(positions):
            shift = np.uint64(n_bits - 1 - pos)
            out[:, col] = (keys >> shift) & np.uint64(1)
        return out
    widths = _chunk_widths(n_bits)
    for col, pos in enumerate(positions):
        chunk = pos // CHUNK_BITS
        shift = np.uint64(widths[chunk] - 1 - (pos - chunk * CHUNK_BITS))
        out[:, col] = (keys[:, chunk] >> shift) & np.uint64(1)
    return out


def split_keys(keys: np.ndarray, n_bits: int, low: int):
    """``(keys >> low, keys & (2**low - 1))`` of ``n_bits``-bit keys in either
    layout: the high part comes back in the layout of its own width, the
    low part (``low <= 62``) as plain indices."""
    if keys.ndim == 1:
        mask = np.uint64((1 << low) - 1)
        return keys >> np.uint64(low), (keys & mask).astype(np.intp)
    bits = unpack_keys(keys, n_bits)
    high = n_bits - low
    return pack_keys(bits[:, :high]), pack_bit_rows(bits[:, high:]).astype(np.intp)


def enumerated_bit_rows(n: int) -> np.ndarray:
    """All ``2^n`` big-endian bit rows as a ``(2^n, n)`` bool matrix.

    The standard operand for batch-enumerated readout (dense CH-form /
    extended-stabilizer probabilities, ``to_statevector``).
    """
    index = np.arange(2**n, dtype=np.uint64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    return ((index[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool)


@functools.lru_cache(maxsize=8)
def full_keys(n_bits: int) -> np.ndarray:
    """Every ``n_bits``-bit key in ascending order: one read-only array
    that every distribution supported on all of them shares (only their
    values differ), so a full ``2^n``-entry window holds half the bytes.
    The last few widths asked for stay cached."""
    keys = np.arange(2**n_bits, dtype=np.uint64)
    keys.flags.writeable = False
    return keys


def pack_bit_cols(bits_t: np.ndarray) -> np.ndarray:
    """Keys of a **bit-major** ``(width, rows)`` matrix (row = one bit).

    The transposed twin of :func:`pack_bit_rows` /
    :func:`pack_bit_rows_chunked`: samplers that build their outcome bits
    one *bit position* at a time (each position a contiguous vector over
    shots) can pack without ever materialising the shot-major layout.
    Returns 1-D ``uint64`` keys below 63 bits, chunked ``(rows, c)`` keys
    beyond.
    """
    bits_t = np.asarray(bits_t, dtype=bool)
    width = bits_t.shape[0]
    if width < 63:
        weights = (1 << np.arange(width - 1, -1, -1)).astype(np.uint64)
        return weights @ bits_t.astype(np.uint64)
    columns = []
    for start in range(0, width, CHUNK_BITS):
        sub = bits_t[start : start + CHUNK_BITS]
        w = sub.shape[0]
        weights = (1 << np.arange(w - 1, -1, -1)).astype(np.uint64)
        columns.append(weights @ sub.astype(np.uint64))
    return np.stack(columns, axis=1)


def pack_shots(bits: np.ndarray) -> np.ndarray:
    """Shot words of a ``(shots, m)`` bit matrix: ``uint64[m, ceil(shots/64)]``,
    bit ``s & 63`` of word ``s >> 6`` in row ``i`` = bit ``i`` of shot ``s``,
    bits past ``shots`` zero.  The layout finite-shot Clifford data is drawn,
    cached and shipped in; :func:`unpack_shots` is the inverse."""
    bits = np.asarray(bits, dtype=bool)
    shots, m = bits.shape
    u8 = np.zeros((m, ((shots + 63) >> 6) * 8), dtype=np.uint8)
    u8[:, : (shots + 7) >> 3] = np.packbits(bits.T, axis=1, bitorder="little")
    return u8.view("<u8").astype(np.uint64, copy=False)


def unpack_shots(words: np.ndarray, shots: int) -> np.ndarray:
    """Bit-major ``(m, shots)`` 0/1 bytes of ``(m, n_words)`` shot words —
    what :func:`pack_bit_cols` takes; transpose for one shot per row."""
    u8 = np.ascontiguousarray(words.astype("<u8", copy=False)).view(np.uint8)
    return np.unpackbits(u8, axis=1, bitorder="little")[:, :shots]


def chunked_keys_to_ints(keys: np.ndarray, n_bits: int) -> list[int]:
    """Python-int outcomes of a ``(rows, chunks)`` chunked key array."""
    widths = _chunk_widths(n_bits)
    acc = keys[:, 0].astype(object)
    for j in range(1, keys.shape[1]):
        acc = (acc << widths[j]) | keys[:, j].astype(object)
    return list(acc)


def ints_to_chunked_keys(outcomes: Iterable[int], n_bits: int) -> np.ndarray:
    """``(rows, chunks)`` chunked key array of an iterable of outcomes."""
    if n_bits <= CHUNK_BITS:
        return np.array(list(outcomes), dtype=np.uint64).reshape(-1, 1)
    widths = _chunk_widths(n_bits)
    shifts = np.cumsum([0] + widths[::-1][:-1])[::-1]  # shift of each chunk
    outcomes = list(outcomes)
    out = np.empty((len(outcomes), len(widths)), dtype=np.uint64)
    for j, (width, shift) in enumerate(zip(widths, shifts)):
        mask = (1 << width) - 1
        out[:, j] = [int((key >> int(shift)) & mask) for key in outcomes]
    return out


def counts_from_bit_rows(bits: np.ndarray) -> dict[int, int]:
    """Outcome-key counts of a ``(shots, width)`` bit matrix."""
    keys, counts = np.unique(pack_bit_rows(bits), return_counts=True)
    return {int(k): int(c) for k, c in zip(keys, counts)}


def _sort_order(keys: np.ndarray) -> np.ndarray:
    """Ascending-outcome argsort of a 1-D or chunked key array.

    For chunked keys ``np.lexsort`` with the most-significant chunk as the
    primary key is exactly ascending numeric order.
    """
    if keys.ndim == 1:
        return np.argsort(keys, kind="stable")
    return np.lexsort(tuple(keys[:, j] for j in range(keys.shape[1] - 1, -1, -1)))


def _sorted_group_starts(keys: np.ndarray):
    """``(sorted_keys, group_start_indices)`` of a chunked key array.

    Row-sorts in ascending outcome order and finds group boundaries with
    one row comparison — substantially faster than ``np.unique(axis=0)``'s
    structured-dtype sort.
    """
    order = _sort_order(keys)
    sk = keys[order]
    if not len(sk):
        return sk, np.empty(0, dtype=np.intp), order
    change = np.empty(len(sk), dtype=bool)
    change[0] = True
    np.any(sk[1:] != sk[:-1], axis=1, out=change[1:])
    return sk, np.flatnonzero(change), order


def _unique_accumulate(keys: np.ndarray, weights: np.ndarray):
    """Sum ``weights`` over equal keys; returns sorted ``(keys, sums)``.

    ``keys`` is either a 1-D ``uint64`` array or a 2-D chunked key array;
    both come back sorted in ascending outcome order.
    """
    if keys.ndim == 1:
        unique, inverse = np.unique(keys, return_inverse=True)
        sums = np.bincount(inverse, weights=weights, minlength=len(unique))
        return unique, sums
    sk, starts, order = _sorted_group_starts(keys)
    if not len(sk):
        return sk, np.zeros(0)
    sums = np.add.reduceat(np.asarray(weights, dtype=np.float64)[order], starts)
    return sk[starts], sums


def _unique_counts(keys: np.ndarray):
    """Sorted unique keys and multiplicities (1-D or chunked rows)."""
    if keys.ndim == 1:
        return np.unique(keys, return_counts=True)
    sk, starts, _order = _sorted_group_starts(keys)
    if not len(sk):
        return sk, np.zeros(0, dtype=np.intp)
    counts = np.diff(np.append(starts, len(sk)))
    return sk[starts], counts


class Distribution:
    """A (sparse) probability distribution over ``n_bits``-bit outcomes.

    Internally key/probability parallel arrays (see the module docstring);
    externally still mapping-like: ``dist[outcome]``, ``len(dist)``,
    ``for outcome, p in dist`` and the ``probs`` dict view all work as
    before.
    """

    __slots__ = ("n_bits", "_keys", "_vals", "_dict")

    def __init__(self, n_bits: int, probs: Mapping[int, float]):
        self.n_bits = int(n_bits)
        items = [(int(k), float(v)) for k, v in probs.items() if v != 0.0]
        vals = np.array([v for _, v in items], dtype=np.float64)
        if self.n_bits <= CHUNK_BITS:
            keys = np.array([k for k, _ in items], dtype=np.uint64)
        else:
            keys = ints_to_chunked_keys((k for k, _ in items), self.n_bits)
        order = _sort_order(keys)
        self._keys = keys[order]
        self._vals = vals[order]
        self._dict: dict[int, float] | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        n_bits: int,
        keys: np.ndarray,
        vals: np.ndarray,
        *,
        dedupe: bool = False,
        assume_sorted: bool = False,
        filter_zeros: bool = True,
    ) -> "Distribution":
        """Build directly from key/value arrays — the hot constructor.

        ``keys`` is 1-D ``uint64`` (``n_bits <= 62``) or 2-D chunked;
        ``dedupe`` accumulates duplicate keys, ``assume_sorted`` skips the
        canonical sort when the caller already produced ascending keys.
        """
        self = cls.__new__(cls)
        self.n_bits = int(n_bits)
        keys = np.asarray(keys)
        vals = np.asarray(vals, dtype=np.float64)
        if self.n_bits > CHUNK_BITS and keys.ndim == 1:
            # wide outcomes handed over as plain ints: re-chunk so the
            # stored representation always matches ``chunked``
            keys = ints_to_chunked_keys([int(k) for k in keys], self.n_bits)
        if dedupe:
            keys, vals = _unique_accumulate(keys, vals)
        elif not assume_sorted:
            order = _sort_order(keys)
            keys = keys[order]
            vals = vals[order]
        if filter_zeros and len(vals):
            live = vals != 0.0
            if not live.all():
                keys = keys[live]
                vals = vals[live]
        self._keys = keys
        self._vals = vals
        self._dict = None
        return self

    @classmethod
    def from_bit_rows(
        cls,
        bits: np.ndarray,
        weights: np.ndarray | None = None,
        n_bits: int | None = None,
    ) -> "Distribution":
        """Distribution of a ``(rows, width)`` bit matrix — no dict round trip.

        Without ``weights`` each row counts ``1/rows`` (the empirical
        distribution of a shot matrix); with ``weights`` each row carries
        its own probability mass (duplicated rows accumulate).
        """
        bits = np.asarray(bits, dtype=bool)
        rows, width = bits.shape
        if n_bits is None:
            n_bits = width
        keys = pack_keys(bits)
        if weights is None:
            # integer counts divided once — exact where 1/rows weights
            # would accumulate float error
            if rows == 0:
                raise ValueError("empty bit matrix")
            unique, counts = _unique_counts(keys)
            return cls.from_arrays(
                n_bits, unique, counts / rows, assume_sorted=True
            )
        return cls.from_arrays(n_bits, keys, weights, dedupe=True)

    @classmethod
    def from_bit_cols(cls, bits_t: np.ndarray) -> "Distribution":
        """Empirical distribution of a bit-major ``(width, rows)`` matrix.

        The transposed twin of :meth:`from_bit_rows` for samplers that
        produce one contiguous vector per bit position (see
        :func:`pack_bit_cols`).
        """
        width, rows = np.asarray(bits_t).shape
        if rows == 0:
            raise ValueError("empty bit matrix")
        unique, counts = _unique_counts(pack_bit_cols(bits_t))
        return cls.from_arrays(width, unique, counts / rows, assume_sorted=True)

    @classmethod
    def from_counts(cls, n_bits: int, counts: Mapping[int, int]) -> "Distribution":
        total = sum(counts.values())
        if total <= 0:
            raise ValueError("empty counts")
        return cls(n_bits, {k: v / total for k, v in counts.items()})

    @classmethod
    def from_array(cls, probabilities: np.ndarray) -> "Distribution":
        """From a dense array of length ``2^n`` (index = big-endian bits)."""
        probabilities = np.asarray(probabilities, dtype=np.float64)
        size = len(probabilities)
        n_bits = size.bit_length() - 1
        if 2**n_bits != size:
            raise ValueError("array length must be a power of 2")
        nz = np.flatnonzero(probabilities)
        keys = full_keys(n_bits) if len(nz) == size else nz.astype(np.uint64)
        return cls.from_arrays(n_bits, keys, probabilities[nz], assume_sorted=True)

    @classmethod
    def point(cls, n_bits: int, outcome: int) -> "Distribution":
        return cls(n_bits, {outcome: 1.0})

    def __getstate__(self):
        # protocol 5 carries an array's read-only flag to the receiver: the
        # shared full key range travels as a writeable array of its own
        return self.n_bits, np.require(self._keys, requirements="W"), self._vals

    def __setstate__(self, state) -> None:
        self.n_bits, self._keys, self._vals = state
        self._dict = None

    # -- array views ----------------------------------------------------------

    @property
    def keys_array(self) -> np.ndarray:
        """Sorted outcome keys: ``uint64 (m,)`` or chunked ``uint64 (m, c)``."""
        return self._keys

    @property
    def values_array(self) -> np.ndarray:
        """Probabilities aligned with :attr:`keys_array`."""
        return self._vals

    @property
    def chunked(self) -> bool:
        """Whether keys are stored as multi-chunk rows (``n_bits > 62``)."""
        return self._keys.ndim == 2

    def key_ints(self) -> list[int]:
        """Outcome keys as Python ints (sorted ascending)."""
        if self.chunked:
            return chunked_keys_to_ints(self._keys, self.n_bits)
        return self._keys.tolist()

    @property
    def probs(self) -> dict[int, float]:
        """Dict view ``{outcome: probability}`` (built lazily, cached)."""
        if self._dict is None:
            self._dict = dict(zip(self.key_ints(), self._vals.tolist()))
        return self._dict

    # -- queries --------------------------------------------------------------

    def __getitem__(self, outcome: int) -> float:
        outcome = int(outcome)
        if self.chunked:
            if outcome < 0 or outcome >> self.n_bits:
                return 0.0
            row = ints_to_chunked_keys([outcome], self.n_bits)[0]
            hits = np.flatnonzero((self._keys == row).all(axis=1))
            return float(self._vals[hits[0]]) if len(hits) else 0.0
        if outcome < 0 or outcome >> CHUNK_BITS:
            return 0.0
        i = int(np.searchsorted(self._keys, np.uint64(outcome)))
        if i < len(self._keys) and int(self._keys[i]) == outcome:
            return float(self._vals[i])
        return 0.0

    def __len__(self) -> int:
        return len(self._vals)

    def __iter__(self):
        return iter(zip(self.key_ints(), self._vals.tolist()))

    def total(self) -> float:
        return float(self._vals.sum())

    def to_array(self) -> np.ndarray:
        if self.n_bits > 26:
            raise ValueError("distribution too wide for dense conversion")
        out = np.zeros(2**self.n_bits)
        out[self._keys.astype(np.int64)] = self._vals
        return out

    def bits(self, outcome: int) -> tuple[int, ...]:
        """Bit tuple of an outcome (first measured qubit first)."""
        return tuple(
            (outcome >> (self.n_bits - 1 - i)) & 1 for i in range(self.n_bits)
        )

    def bit_matrix(self, positions: Iterable[int] | None = None) -> np.ndarray:
        """``(m, len(positions))`` bool matrix of the support's bits.

        ``positions`` (default: all bit positions, in order) indexes bits
        with the usual convention — position 0 is the first measured qubit,
        i.e. the most significant key bit.
        """
        return unpack_keys(self._keys, self.n_bits, positions)

    # -- transformations --------------------------------------------------------

    def normalized(self) -> "Distribution":
        total = self.total()
        if total <= 0:
            raise ValueError("cannot normalise an all-zero distribution")
        return Distribution.from_arrays(
            self.n_bits, self._keys, self._vals / total, assume_sorted=True
        )

    def positive(self) -> "Distribution":
        """Drop negative quasi-probabilities (reconstruction noise) and
        zeros, without renormalising."""
        positive = self._vals > 0
        if positive.all():
            return self
        return Distribution.from_arrays(
            self.n_bits, self._keys[positive], self._vals[positive],
            assume_sorted=True,
        )

    def clipped(self) -> "Distribution":
        """Drop negative quasi-probabilities (reconstruction noise) and renormalise."""
        return self.positive().normalized()

    def marginal(self, keep: Iterable[int]) -> "Distribution":
        """Marginalise onto bit positions ``keep`` (in the given order)."""
        keep = list(keep)
        nk = len(keep)
        if not self.chunked and nk <= CHUNK_BITS:
            # single-word fast path: gather each kept bit straight from the
            # packed keys into its output position — no bit matrix at all
            srcs = np.array(
                [self.n_bits - 1 - pos for pos in keep], dtype=np.uint64
            )
            dsts = np.array(
                [nk - 1 - out_pos for out_pos in range(nk)], dtype=np.uint64
            )
            new_keys = _kernels.bit_gather(self._keys, srcs, dsts)
            return Distribution.from_arrays(nk, new_keys, self._vals, dedupe=True)
        return Distribution.from_bit_rows(
            self.bit_matrix(keep), weights=self._vals, n_bits=nk
        )

    def single_bit_marginals(self) -> np.ndarray:
        """Array of shape ``(n_bits, 2)`` with per-bit outcome probabilities."""
        ones = self.bit_matrix().astype(np.float64).T @ self._vals
        out = np.empty((self.n_bits, 2))
        out[:, 1] = ones
        out[:, 0] = self._vals.sum() - ones
        return out

    def _draw_indices(self, shots: int, rng) -> np.ndarray:
        """``shots`` support indices ~ the distribution, via inverse CDF.

        One cumsum + one uniform batch + one ``searchsorted`` — noticeably
        cheaper than ``rng.choice(p=...)``, which re-validates and
        re-normalises its probability vector on every call.  The uniforms
        are sorted before the lookup (draws are exchangeable, both callers
        immediately aggregate them), which keeps the binary searches
        cache-local and returns the indices pre-sorted for ``np.unique``.
        """
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        if not len(self._vals):
            raise ValueError("cannot sample from an empty distribution")
        if np.any(self._vals < 0):
            raise ValueError("cannot sample from negative quasi-probabilities")
        cdf = np.cumsum(self._vals)
        total = cdf[-1]
        if not total > 0:
            raise ValueError("cannot sample from an all-zero distribution")
        uniforms = rng.random(shots)
        uniforms.sort()
        uniforms *= total
        return _kernels.inverse_cdf_indices(cdf, uniforms)

    def sample(self, shots: int, rng: np.random.Generator | int | None = None):
        """Draw ``shots`` outcomes; returns a counts dict."""
        chosen, counts = np.unique(self._draw_indices(shots, rng), return_counts=True)
        if self.chunked:
            picked = chunked_keys_to_ints(self._keys[chosen], self.n_bits)
        else:
            picked = self._keys[chosen].tolist()
        return dict(zip(picked, counts.tolist()))

    def resample(self, shots: int, rng: np.random.Generator | int | None = None):
        """Empirical :class:`Distribution` of ``shots`` draws (array-native)."""
        chosen, counts = np.unique(self._draw_indices(shots, rng), return_counts=True)
        return Distribution.from_arrays(
            self.n_bits, self._keys[chosen], counts / shots, assume_sorted=True
        )

    def parity_expectation(self) -> float:
        """``sum_x p(x) (-1)^{popcount(x)}`` — the all-Z Pauli expectation."""
        if self.chunked:
            pops = np.bitwise_count(self._keys).sum(axis=1)
        else:
            pops = np.bitwise_count(self._keys)
        signs = 1.0 - 2.0 * (pops.astype(np.int64) & 1)
        return float(signs @ self._vals)

    def __repr__(self) -> str:
        preview = ", ".join(
            f"{k:0{self.n_bits}b}: {v:.4f}"
            for k, v in list(zip(self.key_ints(), self._vals))[:6]
        )
        more = "..." if len(self._vals) > 6 else ""
        return f"Distribution({self.n_bits} bits; {preview}{more})"


def _union_values(p: Distribution, q: Distribution):
    """Aligned value arrays of two distributions over their union support."""
    if p.n_bits != q.n_bits:
        raise ValueError("distributions have different widths")
    pk, qk = p.keys_array, q.keys_array
    if pk.ndim == 1:
        union, inverse = np.unique(np.concatenate([pk, qk]), return_inverse=True)
    else:
        union, inverse = np.unique(
            np.concatenate([pk, qk], axis=0), axis=0, return_inverse=True
        )
    pv = np.zeros(len(union))
    qv = np.zeros(len(union))
    pv[inverse[: len(p.values_array)]] = p.values_array
    qv[inverse[len(p.values_array) :]] = q.values_array
    return pv, qv


def hellinger_fidelity(p: Distribution, q: Distribution) -> float:
    """``(sum_i sqrt(p_i q_i))**2`` — 1.0 for identical distributions."""
    pv, qv = _union_values(p, q)
    overlap = np.sqrt(np.where((pv > 0) & (qv > 0), pv * qv, 0.0)).sum()
    return float(overlap**2)


def total_variation_distance(p: Distribution, q: Distribution) -> float:
    pv, qv = _union_values(p, q)
    return float(0.5 * np.abs(pv - qv).sum())


def mean_marginal_fidelity(p: Distribution, q: Distribution) -> float:
    """Mean single-bit-marginal Hellinger fidelity (the paper's dense metric)."""
    if p.n_bits != q.n_bits:
        raise ValueError("distributions have different widths")
    pm = p.single_bit_marginals()
    qm = q.single_bit_marginals()
    fids = (np.sqrt(pm * qm).sum(axis=1)) ** 2
    return float(fids.mean())


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """``D(p || q)``; infinite when p has support outside q's."""
    pv, qv = _union_values(p, q)
    support = pv > 0
    if np.any(support & (qv <= 0.0)):
        return float("inf")
    pv, qv = pv[support], qv[support]
    return float((pv * np.log(pv / qv)).sum())


def cross_entropy(p: Distribution, q: Distribution) -> float:
    """``-sum_x p(x) log q(x)`` (nats); infinite outside q's support."""
    pv, qv = _union_values(p, q)
    support = pv > 0
    if np.any(support & (qv <= 0.0)):
        return float("inf")
    return float(-(pv[support] * np.log(qv[support])).sum())


def marginal_fidelity_from_arrays(
    pm: np.ndarray, qm: np.ndarray
) -> float:
    """Mean Hellinger fidelity between two ``(n, 2)`` marginal arrays."""
    fids = (np.sqrt(np.clip(pm, 0, None) * np.clip(qm, 0, None)).sum(axis=1)) ** 2
    return float(fids.mean())
