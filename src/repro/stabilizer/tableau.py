"""Aaronson–Gottesman stabilizer tableau, bit-packed and word-parallel.

The tableau tracks ``2n`` generator rows (destabilizers then stabilizers),
each a Hermitian Pauli stored as ``(-1)^sign * i^(x.z) * X^x Z^z`` — i.e.
the plain letter product with a sign bit.

**Packed layout (Stim-style).**  ``x`` and ``z`` are ``uint64`` arrays of
shape ``(2n, ceil(n/64))``: each generator row is a bit-packed vector over
the qubit columns, 64 qubits per machine word (bit ``q & 63`` of word
``q >> 6``).  ``sym`` packs each row's symbolic sign bits the same way.
Row products — the inner loop of measurement — become a handful of
bitwise-AND + popcount (``np.bitwise_count``) ops on whole words, so one
generator multiplication costs ``O(n/64)`` words instead of ``O(n)``
bytes, and a full measurement sweep is the paper's ``O(n^2/64)``.

**Gate walk.**  :func:`compile_clifford_layers` turns a circuit into a
flat gate program in op order — native H, S, CX, X, Y, Z as themselves,
every other Clifford gate as its cached stabilizer decomposition — kept in
the circuit's :meth:`~repro.circuits.circuit.Circuit.derived` space
(revalidated by op-list identity, so any mutation recompiles).
:meth:`Tableau.apply_layers` turns each qubit column of ``x`` and ``z``,
and the sign vector, into one Python int over the ``2n`` rows, walks the
program gate by gate on those ints — 1 to 4 big-int ops per gate, every
row at once — and packs the result back: the conversions are paid once
per call, the per-gate cost is a handful of word-parallel integer ops.

**Plain evolution.**  The tableau :meth:`StabilizerSimulator.run` hands
back is always a from-scratch evolution of the circuit.  What the variants
of a Clifford fragment share is in their outcome distributions: one
evolution and one sweep per fragment ("Measuring late" below).

The original byte-per-bit, per-op-dispatch implementation is kept in
:mod:`repro.stabilizer._reference` as the oracle for the equivalence
property tests and the ``benchmarks/perf_smoke.py`` baseline.

Measurement supports a *symbolic* mode: each random measurement outcome
introduces a fresh symbolic bit and subsequent signs are tracked as affine
functions of those bits.  Measuring every output qubit symbolically yields
the exact outcome distribution as an affine subspace of ``F_2^m`` (see
:class:`AffineOutcomeDistribution`), from which sampling is O(1)-ish per
shot and exact probabilities are available without re-running the tableau.

**Measuring late.**  The ``(A, b)`` a symbolic sweep returns is a
*canonical form*: it depends on the outcome distribution and on the order
of the rows, not on how the sweep got there.  A random outcome opens a
fresh symbol, so its row is a unit row with ``b = 0`` (a *pivot row*) and
its column is zero above it; a determined outcome is an affine function of
the pivots in front of it, and as a function of independent uniform bits
that expression is unique.  So ``A`` is the reduced column-echelon basis
of the support's direction space for this row order (pivot rows are unit
rows, columns ordered by pivot row), ``b`` is the one offset that vanishes
on the pivot rows, and which rows are pivots is itself fixed by the order:
row ``i`` is one iff the first ``i + 1`` coordinates span more than the
first ``i``.

Measurements of different qubits commute, so a sweep may take the qubits
in any order and repair the row order afterwards: :func:`move_outcome_row`
moves one row up, as a permutation of rows and columns when the row does
not overtake a pivot it depends on, and as a rank-1 update — XOR one
column into the others the row holds, and into ``b`` — when it does and
takes that pivot's place.  Conditioning keeps the form too:
:func:`substitute_symbol` imposes one linear condition on the symbols by
solving it for the latest one it names, so the pivot row of that symbol
becomes a function of earlier pivots and nothing else moves.

The stabilizer simulator uses both to measure a fragment once instead of
once per variant (:func:`repro.stabilizer.simulator.choi_variants`).  The
variants differ in front of the body only by the state — |0>, |1>, |+> or
|+i> — handed to each input wire, so the body runs once with every input
wire Bell-paired to an ancilla behind the body's wires (``h(a)``,
``cx(a, q)``; :meth:`Tableau.apply_layers` walks the body's program on the
wider tableau), and handing the wire ``|psi>`` is keeping the outcome
``<psi*|`` on its ancilla.  Behind the body they differ only by
single-qubit gates on the cut wires, which commute with measuring every
other wire.  So the sweep over the wires that are not cut runs once, on
that Choi tableau, which is then frozen (:meth:`Tableau.freeze`); a
preparation measures each ancilla on a copy — :meth:`Tableau.measure_symbolic`
returns a fresh symbol or a function of the sweep's, either way a condition
:func:`substitute_symbol` and :meth:`Tableau.substitute_symbol` resolve —
and each basis measures the cut wires last on a copy of that and moves
those rows back.  All of it lives for one call, in local variables; a sweep
of a from-scratch evolution of the spelled-out variant
(:meth:`Tableau.measurement_distribution`) is the oracle it is tested
against, bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np

from repro import kernels as _kernels
from repro.analysis.distributions import (
    CHUNK_BITS,
    Distribution,
    ints_to_chunked_keys,
    pack_bit_rows,
    pack_bit_rows_chunked,
    unpack_shots,
)
from repro.circuits.circuit import Circuit
from repro.errors import ReconstructionMemoryError
from repro.paulis.pauli import PauliString

_ONE = np.uint64(1)
_WORD_SHIFTS = np.arange(64, dtype=np.uint64)

# gate names the walk applies natively (every other Clifford gate goes
# through Gate.stabilizer_decomposition into H/S/CX)
_NATIVE_GATES = frozenset({"H", "S", "CX", "X", "Y", "Z"})


def _pack_bits(bits: np.ndarray, n_words: int | None = None) -> np.ndarray:
    """Pack a 1-D bool vector into uint64 words (bit ``i&63`` of word ``i>>6``)."""
    bits = np.asarray(bits, dtype=bool)
    if n_words is None:
        n_words = max(1, (bits.shape[0] + 63) >> 6)
    out = np.zeros(n_words, dtype=np.uint64)
    idx = np.flatnonzero(bits)
    np.bitwise_or.at(out, idx >> 6, _ONE << (idx & 63).astype(np.uint64))
    return out


def _unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Unpack uint64 words (last axis) into ``n`` bools per row."""
    bits = ((words[..., :, None] >> _WORD_SHIFTS) & _ONE).astype(bool)
    return bits.reshape(words.shape[:-1] + (-1,))[..., :n]


def _bits_to_int(bits: np.ndarray) -> int:
    """A bool vector as one Python int, bit ``i`` = element ``i``."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _int_to_bits(value: int, n: int) -> np.ndarray:
    """Inverse of :func:`_bits_to_int`: the low ``n`` bits as bools."""
    data = np.frombuffer(value.to_bytes((n + 7) >> 3, "little"), dtype=np.uint8)
    return np.unpackbits(data, count=n, bitorder="little").astype(bool)


@functools.lru_cache(maxsize=4096)
def _gate_steps(gate) -> tuple[tuple, ...]:
    """``gate`` as program steps on its own wires — ``(name, wire)`` or
    ``("CX", control, target)`` — computed once per distinct gate."""
    if not gate.is_clifford:
        raise ValueError(
            f"non-Clifford gate {gate!r} cannot run on the tableau simulator"
        )
    if gate.name in _NATIVE_GATES:
        return ((gate.name, *range(gate.num_qubits)),)
    return tuple((name, *wires) for name, wires in gate.stabilizer_decomposition())


def _compile_ops(ops) -> list[tuple]:
    """A Clifford op list as a flat gate program, in op order.

    Each op becomes its gate's steps on the op's qubits: native H, S, CX,
    X, Y and Z as themselves, any other Clifford gate as its
    ``stabilizer_decomposition()`` (looked up once per distinct gate), the
    identity as nothing.  A step is ``(name, qubit)`` or ``("CX", control,
    target)``.  Raises ``ValueError`` on a non-Clifford gate.
    """
    program: list[tuple] = []
    emit = program.append
    for op in ops:
        qubits = op.qubits
        for step in _gate_steps(op.gate):
            if len(step) == 2:
                emit((step[0], qubits[step[1]]))
            else:
                emit((step[0], qubits[step[1]], qubits[step[2]]))
    return program


def compile_clifford_layers(circuit: Circuit) -> list[tuple]:
    """The gate program of a Clifford circuit, cached on the circuit.

    The cache is the circuit's :meth:`Circuit.derived` space, so any
    mutation of ``circuit.ops`` — append, insert, or in-place replacement
    — is detected and triggers recompilation.
    """
    derived = circuit.derived()
    program = derived.get("clifford_layers")
    if program is None:
        program = derived["clifford_layers"] = _compile_ops(circuit.ops)
    return program


def _pack_axis1(bits: np.ndarray, n_words: int) -> np.ndarray:
    """Pack a bool matrix's last axis into ``n_words`` uint64 per row."""
    rows = bits.shape[0]
    u8 = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((rows, n_words * 8), dtype=np.uint8)
    out[:, : u8.shape[1]] = u8
    return out.view(np.uint64)


def _unpack_axis1(words: np.ndarray, n: int) -> np.ndarray:
    """Unpack uint64 words (last axis) into ``n`` bool columns per row."""
    u8 = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(u8, axis=1, bitorder="little")[:, :n].astype(bool)


def _to_columns(words: np.ndarray, n: int) -> list[int]:
    """Qubit-packed ``(rows, ceil(n/64))`` words as one int per qubit
    column, bit ``r`` of column ``q`` = bit ``q`` of row ``r``."""
    columns = np.packbits(_unpack_axis1(words, n).T, axis=1, bitorder="little")
    return [int.from_bytes(column, "little") for column in columns]


def _from_columns(columns, rows: int, n_words: int) -> np.ndarray:
    """Inverse of :func:`_to_columns`."""
    stride = (rows + 7) >> 3
    data = np.frombuffer(
        b"".join(column.to_bytes(stride, "little") for column in columns),
        dtype=np.uint8,
    )
    bits = np.unpackbits(
        data.reshape(-1, stride), axis=1, count=rows, bitorder="little"
    )
    return _pack_axis1(np.ascontiguousarray(bits.T), n_words)


#: rank of the widest affine image anything here enumerates (2^24 outcomes)
MAX_ENUMERATED_RANK = 24


def _bits_key(bits: np.ndarray) -> int:
    """A bit vector as a Python integer, first bit most significant."""
    return int(pack_bit_rows(np.asarray(bits, dtype=bool)[None, :])[0])


def _gf2_column_basis(matrix: np.ndarray) -> list[int]:
    """Reduced echelon basis of a 0/1 matrix's column space, as integers.

    The scalar GF(2) elimination of this module; :func:`conditioned_marginals`
    reaches the same reduced form for many matrices at once.  A column is
    read big-endian (row 0 is its most significant bit), so a vector's
    *leading* bit is the first row it touches.  The basis comes back
    ordered by leading row, first row first, and fully reduced: no vector
    has a bit at another's leading position.  Its length is the rank;
    clearing a target's leading bits in order leaves zero iff the target
    is in the span.  Duplicate and zero columns — nearly all of a wide
    fragment's — drop out before the elimination.
    """
    by_lead: dict[int, int] = {}
    for vec in set(pack_bit_rows(matrix.T).tolist()):
        while vec:
            lead = vec.bit_length()
            pivot = by_lead.get(lead)
            if pivot is None:
                by_lead[lead] = vec
                break
            vec ^= pivot
    basis: list[int] = []
    # lowest lead first: whatever reduces a vector is itself reduced already
    for lead in sorted(by_lead):
        vec = by_lead[lead]
        for other in basis:
            if (vec >> (other.bit_length() - 1)) & 1:
                vec ^= other
        basis.append(vec)
    return basis[::-1]


def _check_enumerable(rank: int, limit: int, what: str) -> None:
    """Refuse, before allocating, to enumerate more than ``2^limit`` outcomes."""
    if rank > limit:
        raise ReconstructionMemoryError(
            f"{what} has 2^{rank} outcomes, too many to enumerate (limit "
            f"2^{limit}); ask for fewer bits at a time (a smaller window, "
            "ReconstructionConfig(qubit_limit=...)) or for point probabilities"
        )


def _affine_keys(basis: list[int], offset: int, n_bits: int) -> np.ndarray:
    """Packed keys of ``offset ^ span(basis)``: 1-D ``uint64`` up to 62 bits,
    chunked 2-D beyond (the layouts :class:`Distribution` stores).  Each
    basis vector doubles the set: ``S -> S ∪ (S ^ v)``."""
    keys = ints_to_chunked_keys([offset], n_bits)
    for vec in ints_to_chunked_keys(basis, n_bits):
        keys = np.concatenate([keys, keys ^ vec])
    return keys[:, 0] if n_bits <= CHUNK_BITS else keys


class AffineOutcomeDistribution:
    """Uniform distribution over ``{A f + b : f in F_2^k}`` (bits XOR).

    ``m = A.shape[0]`` measured bits; ``k = A.shape[1]`` free (random) bits.
    The map ``f -> A f + b`` is injective by construction (every free bit is
    itself one of the output coordinates), so every outcome in the support
    has probability exactly ``2^-k``.

    Finite shots come from one sampler, :meth:`sample_words`, as 64-shot
    words (one row per output bit).  :meth:`sample_bits` (one bool per
    shot and bit: the Pauli-frame sampler's reference shots) and
    :meth:`sample` (the empirical :class:`Distribution` of
    ``Backend.sample``) unpack it.  The evaluator never samples a
    noiseless Clifford variant: it keeps this exact form.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        self.A = np.asarray(A, dtype=bool)
        self.b = np.asarray(b, dtype=bool)
        if self.A.shape[0] != self.b.shape[0]:
            raise ValueError("A and b disagree on the number of output bits")
        self._gather_plan: tuple | None = None

    @property
    def n_bits(self) -> int:
        return len(self.b)

    @property
    def n_free(self) -> int:
        return self.A.shape[1]

    def _plan(self) -> tuple:
        """Split output rows by weight: constant / single-bit / dense.

        By construction every free bit is itself an output coordinate, so
        the bulk of ``A`` consists of unit rows — batch evaluation is then
        a row *gather* from the drawn free-bit words, and only the few
        genuinely-dense rows (linear combinations of several free bits)
        need an XOR over their support.  Computed once per distribution
        and cached.
        """
        if self._gather_plan is None:
            row_weights = self.A.sum(axis=1)
            unit_rows = np.flatnonzero(row_weights == 1)
            unit_cols = (
                np.argmax(self.A[unit_rows], axis=1)
                if len(unit_rows)
                else np.empty(0, dtype=np.intp)
            )
            dense_rows = np.flatnonzero(row_weights > 1)
            self._gather_plan = (unit_rows, unit_cols, dense_rows)
        return self._gather_plan

    def sample_words(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        """``shots`` outcomes as shot words: ``uint64[m, ceil(shots/64)]``.

        Bit ``s & 63`` of word ``s >> 6`` in row ``i`` is output bit ``i`` of
        shot ``s``; bits past ``shots`` are zero (the layout of
        :func:`~repro.analysis.distributions.pack_shots`).  The free bits
        are drawn in that layout and never leave it: a unit row of ``A``
        (the overwhelming majority — see :meth:`_plan`) is a row gather of
        the drawn words, a dense row the XOR of the word rows in its
        support, ``b`` an XOR with all-ones.  The one sampler:
        :meth:`sample_bits` and :meth:`sample` unpack its result.
        """
        unit_rows, unit_cols, dense_rows = self._plan()
        n_words = (shots + 63) >> 6
        out = np.zeros((self.n_bits, n_words), dtype=np.uint64)
        if self.n_free:
            words = rng.integers(
                0, 1 << 64, size=(self.n_free, n_words), dtype=np.uint64
            )
            out[unit_rows] = words[unit_cols]
            for row in dense_rows:
                out[row] = np.bitwise_xor.reduce(words[self.A[row]], axis=0)
        out[self.b] ^= ~np.uint64(0)
        if shots & 63:
            out[:, -1] &= (_ONE << np.uint64(shots & 63)) - _ONE
        return out

    def sample_bits(
        self, shots: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """(shots, m) bool matrix of outcome bits (unpacked :meth:`sample_words`)."""
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        bits_t = unpack_shots(self.sample_words(shots, rng), shots)
        return np.ascontiguousarray(bits_t.T).view(bool)

    def sample(
        self, shots: int, rng: np.random.Generator | int | None = None
    ) -> Distribution:
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        return Distribution.from_bit_cols(
            unpack_shots(self.sample_words(shots, rng), shots)
        )

    def to_distribution(self, max_free: int = 20) -> Distribution:
        """Exact distribution by enumerating the ``2^k`` support points."""
        k = self.n_free
        if k > max_free:
            raise ValueError(f"support of 2^{k} outcomes is too large to enumerate")
        return self.marginal_distribution(range(self.n_bits), max_rank=max_free)

    def marginal_distribution(
        self, rows: list[int], max_rank: int = MAX_ENUMERATED_RANK
    ) -> Distribution:
        """Exact marginal over the selected output bits (in the given order).

        The projection of a uniform affine distribution onto a subset of
        coordinates is again uniform over an affine subspace (linear maps
        have equal-size fibers), so only ``2^rank`` outcomes need
        enumerating — independent of the number of free bits.  A rank past
        ``max_rank`` raises :class:`~repro.errors.ReconstructionMemoryError`
        before anything is enumerated.
        """
        rows = list(rows)
        basis = _gf2_column_basis(self.A[rows])
        rank = len(basis)
        _check_enumerable(rank, max_rank, f"the marginal over {len(rows)} bits")
        keys = _affine_keys(basis, _bits_key(self.b[rows]), len(rows))
        return Distribution.from_arrays(
            len(rows), keys, np.full(len(keys), 2.0**-rank)
        )

    def window_tables(self, windows, tail: list[int]) -> np.ndarray:
        """``P(window = x, tail = m)`` for many equal-width windows at once.

        Shape ``(len(windows), 2**width, 2**len(tail))``: per window the
        dense table of :meth:`marginal_distribution` over ``window + tail``
        (rows the window's outcomes, columns the tail's), bit for bit, from
        one elimination batched over the windows instead of one per window.
        Each window's rows, tail last, are reduced in order against the
        independent rows before them: a row that reduces to zero is the
        XOR of the rows its reduction used, and that XOR must then vanish
        on ``outcome ^ b``.  The outcomes meeting every such constraint are
        the support, each of probability ``2^-rank``.  All ``2**(width +
        len(tail))`` outcomes are checked — the size of the table itself.
        """
        rows = np.array([list(w) + list(tail) for w in windows], dtype=np.intp)
        count, n_rows = rows.shape
        # a zero column changes no span; it spares argmax an empty axis
        A = self.A if self.n_free else np.zeros((self.n_bits, 1), dtype=bool)
        reduced = A[rows]
        used = np.tile(np.eye(n_rows, dtype=bool), (count, 1, 1))
        independent = np.zeros((count, n_rows), dtype=bool)
        pivot = np.zeros((count, n_rows), dtype=np.intp)
        every = np.arange(count)
        for i in range(n_rows):
            for s in range(i):
                hit = (independent[:, s] & reduced[every, i, pivot[:, s]])[:, None]
                reduced[:, i] ^= reduced[:, s] & hit
                used[:, i] ^= used[:, s] & hit
            independent[:, i] = reduced[:, i].any(axis=1)
            pivot[:, i] = reduced[:, i].argmax(axis=1)
        # row i's constraint as a mask over the outcome bits, first row
        # most significant; none for an independent row
        weights = np.uint64(1) << np.arange(n_rows - 1, -1, -1, dtype=np.uint64)
        constraints = (used * weights).sum(axis=2, dtype=np.uint64)
        masks = np.where(independent, 0, constraints)
        flipped = np.arange(2**n_rows, dtype=np.uint64) ^ (
            (self.b[rows] * weights).sum(axis=1, dtype=np.uint64)[:, None]
        )
        support = np.ones(flipped.shape, dtype=bool)
        for mask in masks.T[masks.any(axis=0)]:
            support &= (np.bitwise_count(flipped & mask[:, None]) & 1) == 0
        probs = 2.0 ** -independent.sum(axis=1)
        tables = np.where(support, probs[:, None], 0.0)
        return tables.reshape(count, -1, 2 ** len(tail))


def _packed(bits: np.ndarray) -> np.ndarray:
    """:func:`pack_bit_rows_chunked` of every row of a 3-D bit array."""
    first, second, width = bits.shape
    keys = pack_bit_rows_chunked(bits.reshape(first * second, width))
    return keys.reshape(first, second, keys.shape[1])


def conditioned_marginals(
    forms: list[AffineOutcomeDistribution],
    fixed: list[int],
    fixed_bits: np.ndarray,
    rows: list[int],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``P(fixed = v, rows = ·)`` under each form, for every row ``v`` of
    ``fixed_bits``; the forms share ``n_bits``.

    One ``(owner, keys, probs)`` triple per ``v``, concatenated in form
    order: the index of each entry's form, the packed outcomes over
    ``rows`` (first row most significant; ``uint64`` up to 62 rows, chunked
    beyond, as :func:`_affine_keys` lays them out) that occur together with
    ``v`` under it, and their joint probabilities — nothing from a form
    under which ``v`` cannot occur.  One elimination answers every form
    and ``v``: the forms' ``A[fixed + rows]``, padded with zero columns to
    the widest (a zero column changes no span), reach reduced column
    echelon form together, one pivot column at a time.  The pivots leading
    inside the fixed rows decide whether ``v`` is reachable and how it
    shifts the remaining bits; the others touch ``rows`` only and span the
    outcomes seen with any reachable ``v``, so nothing wider than ``rows``
    is enumerated, and that once per form.  A form whose span is wider
    than ``2^MAX_ENUMERATED_RANK`` outcomes refuses the whole batch before
    anything is enumerated.
    """
    fixed, rows = list(fixed), list(rows)
    n_fixed, n_rows = len(fixed), len(rows)
    picked = fixed + rows
    count, n_picked = len(forms), len(picked)
    widths = np.array([form.n_free for form in forms])
    width = int(widths.max())
    every = np.arange(count)
    # column c of form f is columns[f, c]: one gather for all the forms
    owner = every.repeat(widths)
    at = np.arange(len(owner)) - (widths.cumsum() - widths).repeat(widths)
    columns = np.zeros((count, width, n_picked + 1), dtype=bool)  # + a zero row
    columns[owner, at, :n_picked] = np.hstack([form.A for form in forms])[picked].T
    b = np.stack([form.b for form in forms])[:, picked]
    lead = np.full((count, width), n_picked)  # pivot rows; the zero row: none
    for t in range(width):
        rest = columns[:, t:]
        first = np.where(rest.any(axis=2), rest.argmax(axis=2), n_picked)
        pick = t + first.argmin(axis=1)
        lead[:, t] = first[every, pick - t]
        pivot = columns[every, pick]
        columns[every, pick] = columns[:, t]
        columns[:, t] = pivot
        hit = columns[every, :, lead[:, t]]
        hit[:, t] = False
        columns ^= pivot[:, None, :] & hit[:, :, None]
    rank = (lead < n_picked).sum(axis=1)
    n_deciding = (lead < n_fixed).sum(axis=1)
    n_free = rank - n_deciding
    what = f"the conditioned marginal over {n_rows} bits"
    _check_enumerable(int(n_free.max()), MAX_ENUMERATED_RANK, what)
    # reduced form: a solution's coordinates are the target's bits at the
    # leading rows (zero at the leads of the pivots past the fixed rows);
    # it is one iff it reproduces every other fixed bit too
    target = np.asarray(fixed_bits, dtype=bool)[None] ^ b[:, None, :n_fixed]
    padded = np.pad(target, ((0, 0), (0, 0), (0, n_rows + 1)))
    chosen = np.take_along_axis(padded, lead[:, None], axis=2).astype(np.uint8)
    # a uint8 product wraps modulo 256, which keeps its parity
    solved = (chosen @ columns.astype(np.uint8) & 1 == 1)[..., :n_picked]
    reachable = (solved[..., :n_fixed] == target).all(axis=2)
    offsets = _packed(solved[..., n_fixed:] ^ b[:, None, n_fixed:])
    lower = _packed(columns[:, :, n_fixed:n_picked])
    # each form's span of its free pivots, forms of one rank together,
    # in :func:`_affine_keys` order: S -> S ∪ (S ^ v)
    spans, owners = [], []
    for r in np.unique(n_free).tolist():
        group = np.flatnonzero(n_free == r)
        vecs = lower[group[:, None], n_deciding[group, None] + np.arange(r)]
        span = np.zeros((len(group), 1, lower.shape[2]), dtype=np.uint64)
        for j in range(r):
            span = np.concatenate([span, span ^ vecs[:, j, None]], axis=1)
        spans.append(span.reshape(-1, lower.shape[2]))
        owners.append(group.repeat(2**r))
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    owner, span = owner[order], np.concatenate(spans)[order]
    hits = reachable[owner].T
    bins, entries = np.nonzero(hits)
    owner = owner[entries]
    keys = span[entries] ^ offsets[owner, bins]
    keys = keys[:, 0] if n_rows <= CHUNK_BITS else keys
    probs = 2.0 ** -rank[owner]
    ends = np.cumsum(hits.sum(axis=1))
    return list(zip(*(np.split(part, ends)[:-1] for part in (owner, keys, probs))))


def _moved_up(n: int, src: int, dst: int) -> np.ndarray:
    """``0 .. n-1`` with ``src`` taken out and put back at ``dst <= src``."""
    order = np.arange(n)
    order[dst + 1 : src + 1] = order[dst:src]
    order[dst] = src
    return order


def move_outcome_row(
    A: np.ndarray, b: np.ndarray, src: int, dst: int
) -> tuple[np.ndarray, np.ndarray]:
    """The outcome form ``(A, b)`` after row ``src`` moves up to ``dst <= src``.

    Input and output are the canonical form of the module docstring's
    "Measuring late" section — what :meth:`Tableau.measurement_distribution`
    returns — for the row order before and after the move; the rows in
    between shift down by one.  Three cases, by the free bits ``J`` of row
    ``src`` and the latest pivot row ``p*`` among them (column ``j*``):

    * no free bit, or ``p* < dst``: the row depends on rows that still
      precede it — a row permutation;
    * ``p* == src``: a pivot row stays one wherever it moves up to — a
      row permutation, and its column moves in front of the columns whose
      pivot rows it overtook;
    * otherwise row ``src`` now comes before ``p*`` and takes its column:
      substituting ``f[j*] = g + sum(f[J - j*]) + b[src]`` XORs column
      ``j*`` into the other columns of ``J`` and, if ``b[src]`` is set,
      into ``b``; row ``src`` is then the unit row of ``g``, row ``p*``
      depends on it, and the column moves as above.

    Works in place on ``A`` and ``b`` where it can and returns the arrays
    to use.
    """
    if not 0 <= dst <= src < len(b):
        raise ValueError(f"cannot move row {src} up to {dst}")
    if dst == src:
        return A, b
    free = np.flatnonzero(A[src])
    if free.size:
        pivot_rows = A[:, free].argmax(axis=0)
        latest = int(pivot_rows.argmax())
        pivot_row, column = int(pivot_rows[latest]), int(free[latest])
        if pivot_row >= dst:
            if pivot_row != src:
                replaced = A[:, column].copy()
                A[:, np.delete(free, latest)] ^= replaced[:, None]
                if b[src]:
                    b ^= replaced
            # columns are ordered by pivot row: as many precede the moved
            # one as have their pivot in front of `dst`
            position = int(np.count_nonzero(A[:dst].any(axis=0)))
            A = A[:, _moved_up(A.shape[1], column, position)]
    rows = _moved_up(len(b), src, dst)
    return A[rows], b[rows]


def substitute_symbol(
    A: np.ndarray, b: np.ndarray, coeffs: np.ndarray, value: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The outcome form ``(A, b)`` once ``coeffs . f == value`` is known.

    The condition fixes the *latest* symbol of ``coeffs`` as a function of
    the earlier ones: every row holding it gets ``coeffs`` XORed in (which
    clears it) and ``value`` XORed into ``b``, and its column goes, the
    later ones moving down by one.  The pivot row of that symbol now reads
    off earlier pivots and every other pivot row is still a unit row, so a
    canonical ``(A, b)`` (module docstring, "Measuring late") stays
    canonical for the same row order.  A symbol past ``A``'s columns — one
    opened after these rows were measured — is in no row: nothing changes.

    ``coeffs`` must be nonzero.  Works in place on the rows of ``A`` and
    ``b`` and returns the arrays to use; :meth:`Tableau.substitute_symbol`
    is the same step on a tableau's symbolic signs.
    """
    column = int(np.flatnonzero(coeffs)[-1])
    width = A.shape[1]
    if column >= width:
        return A, b
    held = A[:, column].copy()
    A[held] ^= coeffs[:width]
    b[held] ^= value
    return np.delete(A, column, axis=1), b


class Tableau:
    """Stabilizer state of ``n`` qubits, qubit columns packed into uint64.

    ``x``/``z`` have shape ``(2n, n_words)`` with ``n_words =
    ceil(n/64)``: row ``r`` (destabilizers ``0..n-1``, stabilizers
    ``n..2n-1``) is a packed bitvector over the qubit columns.  ``sign``
    is one bool per row; ``sym`` packs each row's symbolic sign bits into
    uint64 words the same way.  Padding bits past column ``n-1`` stay
    zero by construction.
    """

    def __init__(self, n: int, max_symbols: int = 0):
        self.n = int(n)
        rows = 2 * self.n
        self.n_words = max(1, (self.n + 63) >> 6)
        # popcount rows via `bitwise_count(...) @ _ones8`: a uint8 matmul is
        # several times faster than .sum(axis=1), and the mod-256 wraparound
        # is harmless because every consumer reduces mod 4 or mod 2
        self._ones8 = np.ones(self.n_words, dtype=np.uint8)
        self.x = np.zeros((rows, self.n_words), dtype=np.uint64)
        self.z = np.zeros((rows, self.n_words), dtype=np.uint64)
        self.sign = np.zeros(rows, dtype=bool)
        # symbolic sign bits: sign of row i also includes (-1)^(sym[i] . f)
        self.sym = np.zeros((rows, (max_symbols + 63) >> 6), dtype=np.uint64)
        self.n_symbols = 0
        # destabilizer i = X_i ; stabilizer i = Z_i
        i = np.arange(self.n)
        bit = _ONE << (i & 63).astype(np.uint64)
        self.x[i, i >> 6] = bit
        self.z[self.n + i, i >> 6] = bit

    def copy(self) -> "Tableau":
        out = Tableau.__new__(Tableau)
        out.n = self.n
        out.n_words = self.n_words
        out._ones8 = self._ones8
        out.x = self.x.copy()
        out.z = self.z.copy()
        out.sign = self.sign.copy()
        out.sym = self.sym.copy()
        out.n_symbols = self.n_symbols
        return out

    def freeze(self) -> "Tableau":
        """Make the arrays read-only; returns self.

        For a tableau that several readers share: gates and measurements
        write in place, so one applied to it by mistake raises
        ``ValueError`` instead of corrupting every later reader.
        :meth:`copy` hands back writable arrays.
        """
        for arr in (self.x, self.z, self.sign, self.sym):
            arr.setflags(write=False)
        return self

    def _require_writable(self) -> None:
        # for the methods that rebind arrays instead of writing into them
        if not self.sign.flags.writeable:
            raise ValueError("this tableau is frozen (shared); work on a copy()")

    # -- gates ----------------------------------------------------------------

    def h(self, q: int) -> None:
        w, b = q >> 6, np.uint64(q & 63)
        mask = _ONE << b
        xw = self.x[:, w]
        zw = self.z[:, w]
        self.sign ^= (xw & zw & mask) != 0
        diff = (xw ^ zw) & mask
        xw ^= diff
        zw ^= diff

    def s(self, q: int) -> None:
        w, b = q >> 6, np.uint64(q & 63)
        mask = _ONE << b
        xw = self.x[:, w]
        zw = self.z[:, w]
        self.sign ^= (xw & zw & mask) != 0
        zw ^= xw & mask

    def cx(self, c: int, t: int) -> None:
        wc, bc = c >> 6, np.uint64(c & 63)
        wt, bt = t >> 6, np.uint64(t & 63)
        xc = (self.x[:, wc] >> bc) & _ONE
        zt = (self.z[:, wt] >> bt) & _ONE
        xt = (self.x[:, wt] >> bt) & _ONE
        zc = (self.z[:, wc] >> bc) & _ONE
        self.sign ^= (xc & zt & (xt ^ zc ^ _ONE)) != 0
        self.x[:, wt] ^= xc << bt
        self.z[:, wc] ^= zt << bc

    def x_gate(self, q: int) -> None:
        self.sign ^= (self.z[:, q >> 6] & (_ONE << np.uint64(q & 63))) != 0

    def z_gate(self, q: int) -> None:
        self.sign ^= (self.x[:, q >> 6] & (_ONE << np.uint64(q & 63))) != 0

    def apply_operation(self, gate, qubits: tuple[int, ...]) -> None:
        name = gate.name
        if name == "X":
            self.x_gate(qubits[0])
        elif name == "Z":
            self.z_gate(qubits[0])
        elif name == "H":
            self.h(qubits[0])
        elif name == "S":
            self.s(qubits[0])
        elif name == "CX":
            self.cx(*qubits)
        else:
            for sub_name, wires in gate.stabilizer_decomposition():
                sub_qubits = tuple(qubits[w] for w in wires)
                if sub_name == "H":
                    self.h(sub_qubits[0])
                elif sub_name == "S":
                    self.s(sub_qubits[0])
                else:
                    self.cx(*sub_qubits)

    def apply_circuit(self, circuit: Circuit) -> None:
        """Apply a Clifford circuit: one walk of its compiled gate program."""
        if circuit.n_qubits != self.n:
            raise ValueError("circuit width does not match tableau")
        self.apply_layers(compile_clifford_layers(circuit))

    def apply_layers(self, program) -> None:
        """Walk a compiled gate program (:func:`compile_clifford_layers`).

        The program may come from a narrower circuit: wires it does not
        name are left alone.  Gates want columns while row products want
        rows, so every qubit column of ``x``/``z`` and the sign vector
        become one Python int over the ``2n`` rows for the walk (the
        ``apply_layers`` kernel) and are packed back after it — one
        ``packbits`` conversion each way per call.  The columns are keyed
        by qubit, so a gate naming a qubit outside ``[0, n)`` — ``-1``
        included — fails on its first read, and ``ValueError`` leaves the
        tableau as it was: nothing is written back.
        """
        self._require_writable()
        if not program:
            return
        x = dict(enumerate(_to_columns(self.x, self.n)))
        z = dict(enumerate(_to_columns(self.z, self.n)))
        try:
            sign = _kernels.apply_layers(program, x, z, _bits_to_int(self.sign))
        except KeyError as error:
            raise ValueError(
                f"a gate names qubit {error.args[0]} of a {self.n}-qubit tableau"
            ) from None
        rows = 2 * self.n
        self.x = _from_columns(x.values(), rows, self.n_words)
        self.z = _from_columns(z.values(), rows, self.n_words)
        self.sign = _int_to_bits(sign, rows)

    # -- row products -----------------------------------------------------------

    def _multiply_rows_into(self, targets: np.ndarray, source: int) -> None:
        """Row_t <- Row_s * Row_t for every t in ``targets`` (word-parallel).

        Phases: with rows R = (-1)^s i^(x.z) X^x Z^z, the product phase
        exponent (power of i) is
            t = x1.z1 + x2.z2 + 2*(z1.x2) + 2*s1 + 2*s2
        and the result sign is (t - x12.z12)/2 mod 2; all dot products are
        word-wide popcounts.  For stabilizer-group products the difference
        is always even; destabilizer rows may pick up an irrelevant
        half-phase which we truncate (their signs are never read).
        """
        targets = np.asarray(targets)
        if targets.size == 0:
            return
        _kernels.row_mul(self.x, self.z, self.sign, targets, source)
        src_sym = self.sym[source]
        if src_sym.any():
            self.sym[targets] ^= src_sym[None, :]

    # -- measurement -----------------------------------------------------------

    def _grow_symbols(self) -> int:
        if self.n_symbols == 64 * self.sym.shape[1]:
            extra = np.zeros(
                (2 * self.n, max(1, self.sym.shape[1])), dtype=np.uint64
            )
            self.sym = np.concatenate([self.sym, extra], axis=1)
        index = self.n_symbols
        self.n_symbols += 1
        return index

    def measure(
        self, q: int, rng: np.random.Generator | int | None = None
    ) -> int:
        """Measure qubit ``q`` in the Z basis, collapsing the state."""
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        result = self._measure_impl(q, symbolic=False, rng=rng)
        return result

    def measure_symbolic(self, q: int) -> tuple[np.ndarray, bool]:
        """Measure qubit ``q`` symbolically.

        Returns ``(coeffs, const)``: the outcome equals
        ``coeffs . f XOR const`` over the symbolic free bits ``f``.  For a
        deterministic outcome ``coeffs`` may be all-zero; for a random one a
        fresh symbol is allocated.
        """
        return self._measure_impl(q, symbolic=True, rng=None)

    def _measure_impl(self, q, symbolic, rng):
        w, b = q >> 6, np.uint64(q & 63)
        col = self.x[:, w] & (_ONE << b)
        hits = np.flatnonzero(col)
        # first hit at or past n is the stabilizer pivot (hits is sorted)
        pivot_pos = int(np.searchsorted(hits, self.n))
        if pivot_pos < hits.size:
            p = int(hits[pivot_pos])
            others = np.delete(hits, pivot_pos)
            self._multiply_rows_into(others, p)
            # destabilizer p-n <- old stabilizer p ; stabilizer p <- +/- Z_q
            d = p - self.n
            self.x[d] = self.x[p]
            self.z[d] = self.z[p]
            self.sign[d] = self.sign[p]
            self.sym[d] = self.sym[p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, w] = _ONE << b
            self.sym[p] = 0
            if symbolic:
                k = self._grow_symbols()
                self.sign[p] = False
                self.sym[p, k >> 6] = _ONE << np.uint64(k & 63)
                coeffs = np.zeros(self.n_symbols, dtype=bool)
                coeffs[k] = True
                return coeffs, False
            outcome = int(rng.integers(2))
            self.sign[p] = bool(outcome)
            return outcome
        # deterministic: the outcome is the sign of the product of the
        # stabilizers selected by destabilizers anticommuting with Z_q
        # (every hit is a destabilizer row here: pivot_pos == hits.size)
        rows = hits + self.n
        if rows.size == 0:
            if symbolic:
                return np.zeros(self.n_symbols, dtype=bool), False
            return 0
        xs = self.x[rows]
        zs = self.z[rows]
        syms = self.sym[rows]
        # represent each row as i^t X^x Z^z with t = x.z + 2*sign; the
        # selected stabilizers commute, so a pairwise tree product (with
        # the i^(2 z_a.x_b) reordering phase) is order-independent
        ones = self._ones8
        t = (
            np.bitwise_count(xs & zs) @ ones.astype(np.int64)
            + 2 * self.sign[rows]
        ) % 4
        while xs.shape[0] > 1:
            if xs.shape[0] & 1:
                pad = np.zeros((1, xs.shape[1]), dtype=np.uint64)
                xs = np.concatenate([xs, pad])
                zs = np.concatenate([zs, pad])
                syms = np.concatenate(
                    [syms, np.zeros((1, syms.shape[1]), dtype=np.uint64)]
                )
                t = np.concatenate([t, [0]])
            cross = np.bitwise_count(
                np.ascontiguousarray(zs[0::2]) & xs[1::2]
            ) @ ones
            t = (t[0::2] + t[1::2] + 2 * cross) % 4
            xs = xs[0::2] ^ xs[1::2]
            zs = zs[0::2] ^ zs[1::2]
            syms = syms[0::2] ^ syms[1::2]
        # the accumulated operator is +/- Z_q (x = 0, so i^t must be +/-1)
        sign = bool(t[0] == 2)
        acc_sym = _unpack_bits(syms[0], self.n_symbols)
        if symbolic:
            return acc_sym, sign
        if acc_sym.any():  # pragma: no cover - defensive
            raise RuntimeError("deterministic outcome depends on unresolved symbols")
        return int(sign)

    def measure_symbolic_rows(
        self, qubits: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`measure_symbolic` every qubit in order, as one ``(A, b)``.

        Outcome ``i`` equals ``A[i] . f XOR b[i]`` over all the symbols
        allocated so far — by these measurements and any before them.
        """
        rows = []
        consts = []
        for q in qubits:
            coeffs, const = self.measure_symbolic(q)
            rows.append(coeffs)
            consts.append(const)
        A = np.zeros((len(qubits), self.n_symbols), dtype=bool)
        for i, coeffs in enumerate(rows):
            A[i, : len(coeffs)] = coeffs
        return A, np.array(consts, dtype=bool)

    def substitute_symbol(self, coeffs: np.ndarray, value: bool) -> None:
        """Impose ``coeffs . f == value`` on the symbolic signs.

        :func:`substitute_symbol` for the packed side: the rows whose sign
        holds the latest symbol of ``coeffs`` get ``coeffs`` XORed into
        ``sym`` and ``value`` into ``sign``; the symbol's bit column — zero
        by then — is deleted from ``sym`` across the word boundaries, and
        the later symbols are renumbered down by one.
        """
        self._require_writable()
        column = int(np.flatnonzero(coeffs)[-1])
        w, bit = column >> 6, np.uint64(column & 63)
        held = (self.sym[:, w] >> bit) & _ONE != 0
        self.sym[held] ^= _pack_bits(coeffs, self.sym.shape[1])
        self.sign[held] ^= value
        tail = self.sym[:, w:]
        shifted = tail >> _ONE
        shifted[:, :-1] |= tail[:, 1:] << np.uint64(63)
        below = (_ONE << bit) - _ONE
        shifted[:, 0] = (tail[:, 0] & below) | (shifted[:, 0] & ~below)
        self.sym[:, w:] = shifted
        self.n_symbols -= 1

    def reset_symbols(self, capacity: int) -> None:
        """Forget all symbols and make room for ``capacity`` new ones."""
        self._require_writable()
        self.n_symbols = 0
        self.sym = np.zeros(
            (2 * self.n, max(1, (capacity + 63) >> 6)), dtype=np.uint64
        )

    def measurement_distribution(
        self, qubits: tuple[int, ...]
    ) -> AffineOutcomeDistribution:
        """Exact Z-basis outcome distribution over ``qubits``.

        Collapses this tableau (work on a copy if it is still needed).
        """
        self.reset_symbols(len(qubits))
        return AffineOutcomeDistribution(*self.measure_symbolic_rows(qubits))

    # -- observables ------------------------------------------------------------

    def expectation(self, pauli: PauliString) -> int:
        """Exact ``<P>`` of the stabilizer state: always -1, 0, or +1.

        This is the structural fact exploited by the paper's Section IX
        optimizations.  Anticommutation parities are word-wide popcounts
        against the packed Pauli, so the generator scan is ``O(n^2/64)``.
        """
        if pauli.n != self.n:
            raise ValueError("Pauli width does not match tableau")
        if self.n_symbols:
            raise ValueError("expectation undefined after symbolic collapse")
        px = _pack_bits(pauli.x, self.n_words)
        pz = _pack_bits(pauli.z, self.n_words)
        # anticommutation of P with each stabilizer generator
        ones = self._ones8
        anti = (
            np.bitwise_count(self.x[self.n :] & pz) @ ones
            + np.bitwise_count(self.z[self.n :] & px) @ ones
        ) & 1
        if anti.any():
            return 0
        # P (up to sign) = product of stabilizers s_i over rows whose
        # destabilizer anticommutes with P
        select = (
            np.bitwise_count(self.x[: self.n] & pz) @ ones
            + np.bitwise_count(self.z[: self.n] & px) @ ones
        ) & 1
        product = PauliString.identity(self.n)
        for i in np.flatnonzero(select):
            product = product * self._row_pauli(self.n + int(i))
        if not (
            np.array_equal(product.x, pauli.x) and np.array_equal(product.z, pauli.z)
        ):
            raise AssertionError("stabilizer reconstruction failed")
        diff = (pauli.phase - product.phase) % 4
        if diff == 0:
            return 1
        if diff == 2:
            return -1
        raise ValueError("expectation of a non-Hermitian Pauli is not +/-1")

    def _row_pauli(self, row: int) -> PauliString:
        c = int(np.bitwise_count(self.x[row] & self.z[row]).sum())
        phase = (c + 2 * int(self.sign[row])) % 4
        return PauliString(
            _unpack_bits(self.x[row], self.n),
            _unpack_bits(self.z[row], self.n),
            phase,
        )

    def stabilizers(self) -> list[PauliString]:
        """The n stabilizer generators as phase-correct Pauli strings."""
        return [self._row_pauli(self.n + i) for i in range(self.n)]

    def destabilizers(self) -> list[PauliString]:
        return [self._row_pauli(i) for i in range(self.n)]
