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
of a Clifford fragment share is the body itself: one backward walk per
fragment ("Reading a fragment backwards" below).

The original byte-per-bit, per-op-dispatch implementation is kept in
:mod:`repro.stabilizer._reference` as the oracle for the equivalence
property tests and the ``benchmarks/perf_smoke.py`` baseline.

Measurement supports a *symbolic* mode: each random measurement outcome
introduces a fresh symbolic bit and subsequent signs are tracked as affine
functions of those bits.  Measuring every output qubit symbolically yields
the exact outcome distribution as an affine subspace of ``F_2^m`` (see
:class:`AffineOutcomeDistribution`), from which sampling is O(1)-ish per
shot and exact probabilities are available without re-running the tableau.

**Reading a fragment backwards.**  Recombination needs of a fragment only
its Pauli tensor ``T[P_in, P_out](x) = Tr[(Pi_x ⊗ P_out) U (P_in ⊗
|0><0|) U†]`` over kept output bits ``K`` (:mod:`repro.core.tomography`),
and for a Clifford body ``U`` each entry is ``0`` or ``±2^j``, read from how
``U`` conjugates Paulis (Aaronson and Gottesman, PRA 70, 052328, 2004).
:class:`PauliMap` holds the images ``U† R U`` for ``R`` the ``Z`` of every
wire and the ``X`` of every output cut wire: one walk of the inverse gate
program (:func:`heisenberg_images`).  Expanding ``Pi_x = 2^-|K| sum_S
(-1)^(x.S) Z_S`` turns the trace into a sum over subsets ``S`` of ``K`` of
``Tr[U†(Z_S P_out)U (P_in ⊗ |0><0|)]``, which is ``±2^qi`` when the image
holds no ``X`` on a wire that starts in |0> and equals ``P_in`` on the
input cut wires, and zero otherwise.  Restricted to exactly those bits —
``X`` on fresh wires, ``X`` and ``Z`` on input cut wires — the images are
linear in ``S``: column ``j`` of a matrix ``M`` is the restriction of the
image of ``Z_j``, and an index contributes iff ``M S = t(P_in) ⊕
c(P_out)`` (``c`` the restriction of ``P_out``'s image, ``Y = i X Z``).
The solutions are ``S0 + V`` with ``V = ker M``, and on ``V`` the sign
``ω`` of the image product is a character, so the sum over ``V`` is
``|V|`` where ``x.u = [ω(u) = -1]`` for a basis of ``V`` — the *support*,
the same for every index — and zero elsewhere.  On the support the entry
is ``ω(S0, P_out) (-1)^(x.S0) 2^(qi - |K| + dim V)``; without a solution the
index is zero.  Everything is GF(2) elimination over ``|K| + 2(qi + qo)``
vectors and the signs of products of image rows: no tableau is swept, no
variant spelled out.  Evolving each variant from scratch
(:meth:`Tableau.measurement_distribution` of the spelled-out circuit,
through the generic tomography) is the oracle it is tested against, bit
for bit.
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


def inverse_program(program) -> list[tuple]:
    """The gate program of the inverse circuit: the steps in reverse order,
    each S followed by a Z (``S^-1 = Z S``); H, CX, X, Y and Z are their
    own inverses."""
    inverse = []
    for step in reversed(program):
        inverse.append(step)
        if step[0] == "S":
            inverse.append(("Z", step[1]))
    return inverse


def heisenberg_images(
    circuit: Circuit, x: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``U† P U`` for every row ``P = i^(x.z) X^x Z^z`` of packed Paulis.

    ``U`` is the Clifford ``circuit``; ``x`` and ``z`` are packed like a
    tableau's rows, ``(rows, ceil(n/64))`` ``uint64``.  A walk conjugates
    its rows ``P -> G P G†`` gate by gate, so walking the inverse program
    (:func:`inverse_program`) takes them to ``U† P U``: the body is
    compiled once (:func:`compile_clifford_layers`) and walked once, one
    ``apply_layers`` kernel call over all the rows.  Returns the images
    ``(x, z, sign)`` packed the same way, each ``(-1)^sign i^(x.z) X^x Z^z``.
    """
    n, rows = circuit.n_qubits, x.shape[0]
    xs = dict(enumerate(_to_columns(x, n)))
    zs = dict(enumerate(_to_columns(z, n)))
    program = inverse_program(compile_clifford_layers(circuit))
    sign = _kernels.apply_layers(program, xs, zs, 0)
    return (
        _from_columns(xs.values(), rows, x.shape[1]),
        _from_columns(zs.values(), rows, x.shape[1]),
        _int_to_bits(sign, rows),
    )


class PauliMap:
    """How a Clifford fragment body ``U`` conjugates Paulis: ``U† R U``.

    Row ``q`` is the image of ``Z`` on wire ``q`` (every wire), row
    ``n + j`` that of ``X`` on ``outputs[j]``; ``x``, ``z`` and ``sign``
    hold them as :func:`heisenberg_images` returns them.  ``inputs`` and
    ``outputs`` are the fragment's cut wires, in order; every other wire
    starts in |0>.  This is all a fragment's tomography needs ("Reading a
    fragment backwards" in the module docstring) — one walk, where its
    ``4^qi 3^qo`` variants would each be an evolution and a sweep.
    Raises ``ValueError`` if a wire is out of range or repeated within
    ``inputs`` or within ``outputs`` (one wire may be both).
    """

    def __init__(self, body: Circuit, inputs, outputs):
        n = self.n = body.n_qubits
        for role, wires in (("input", inputs), ("output", outputs)):
            if len(set(wires)) < len(wires) or any(not 0 <= q < n for q in wires):
                raise ValueError(
                    f"{role} wires {list(wires)} must be distinct wires of {body!r}"
                )
        self.inputs, self.outputs = tuple(inputs), tuple(outputs)
        n_words = max(1, (n + 63) >> 6)
        x = np.zeros((n + len(outputs), n_words), dtype=np.uint64)
        z = np.zeros_like(x)
        wires = np.arange(n)
        z[wires, wires >> 6] = _ONE << (wires & 63).astype(np.uint64)
        cut = np.array(self.outputs, dtype=np.intp)
        x[n + np.arange(len(cut)), cut >> 6] = _ONE << (cut & 63).astype(np.uint64)
        self.x, self.z, self.sign = heisenberg_images(body, x, z)

    def bits(self) -> tuple[np.ndarray, np.ndarray]:
        """The images' ``x`` and ``z`` as ``(rows, n)`` bool matrices."""
        return _unpack_axis1(self.x, self.n), _unpack_axis1(self.z, self.n)


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

    The scalar GF(2) elimination of :meth:`AffineOutcomeDistribution.
    marginal_distribution`.  A column is
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
    ``Backend.sample``) unpack it.  The evaluator never builds one for a
    noiseless Clifford fragment: it reads the fragment off a
    :class:`PauliMap`.
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

    def reset_symbols(self, capacity: int) -> None:
        """Forget all symbols and make room for ``capacity`` new ones."""
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
