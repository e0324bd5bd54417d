"""The Clifford engine: one backward walk, read off by GF(2) algebra.

Every stabilizer readout here — a circuit's outcome distribution, its
Pauli expectations, the equality of two states, a fragment's Pauli
tensor — comes from how the Clifford circuit ``U`` conjugates Paulis
(Aaronson and Gottesman, PRA 70, 052328, 2004): the images ``U† P U`` of
a few Pauli rows, read against the initial state |0...0>, whose
stabilizers are the ``Z`` of every wire.  Rows are stored as
``(-1)^sign * i^(x.z) * X^x Z^z`` — the plain letter product with a sign
bit — ``x`` and ``z`` packed 64 qubits per ``uint64`` word (bit ``q & 63``
of word ``q >> 6``).

**Gate walk.**  :func:`compile_clifford_layers` turns a circuit into a
flat gate program in op order — native H, S, CX, X, Y, Z as themselves,
every other Clifford gate as its cached stabilizer decomposition — read
off the circuit's op table (:class:`~repro.circuits.circuit.OpTable`:
one step lookup per distinct gate, then integer columns op by op, so
compiling builds no ``Operation``).  The program is kept in the
circuit's :meth:`~repro.circuits.circuit.Circuit.derived` space next
to the table (both kept until an op is appended), and so is its inverse
(:func:`compile_inverse_layers`).  The steps
between two CX on a wire are fused: any run of one-qubit Cliffords is one
of 24 group elements (up to phase), kept per wire as an index into a
24×24 product table and written out as its shortest spelling over H, S,
X, Y and Z (at most 4 steps) when a CX touches the wire or the program
ends.  The group table is built at import by running the
``apply_layers`` kernel itself on the rows ``X``, ``Z`` and ``Y`` of one
wire (:func:`_one_qubit_group`), so the fused program conjugates every
row bit for bit as the spelled-out one; on the 200-qubit HWEA Clifford
fragment (4 010 ops) it is 3 449 steps forward and 4 196 inverse, where
spelling every op out took 16 113 and 28 213.
:func:`heisenberg_images` turns each qubit column of the rows into one
Python int, walks the inverse program (:func:`inverse_program`) gate by
gate on those ints — 1 to 4 big-int ops per gate, every row at once, the
``apply_layers`` kernel — and packs the result back: the conversions are
paid once per call, the per-gate cost is a handful of word-parallel
integer ops.

**Readouts.**  ``<0|U† P U|0>`` is zero when the image has an ``X`` part
and its sign otherwise (:func:`pauli_expectations`).  The outcome
distribution of measuring wires ``q_1..q_m`` in the Z basis
(:func:`outcome_distribution`) reads the images of their ``Z``: a product
of them is fixed by the state iff its ``X`` parts cancel, so the
outcomes are uniform over ``{x : x.u = [ω(u) = -1] for u in V}``, ``V``
the kernel of the images' ``X`` parts and ``ω(u)`` the sign of their
product (a character on ``V``) — an affine subspace, kept as
:class:`AffineOutcomeDistribution`, from which exact probabilities and
shots come without touching the circuit again.  Two states ``A|0>`` and
``B|0>`` are equal iff ``A† B`` fixes every ``Z`` (:func:`same_state`).

The byte-per-bit, per-op-dispatch forward tableau is kept in
:mod:`repro.stabilizer._reference` as the oracle every readout is tested
against, bit for bit, and the ``benchmarks/perf_smoke.py`` baseline.

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
variant spelled out.  Evolving each variant from scratch (the reference
tableau's ``measurement_distribution`` of the spelled-out circuit, through
the generic tomography: :mod:`repro.testing.tomography`) is the oracle it
is tested against, bit for bit.
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
from repro.circuits.circuit import Circuit, OpTable
from repro.errors import ReconstructionMemoryError

_ONE = np.uint64(1)

# gate names the walk applies natively (every other Clifford gate goes
# through Gate.stabilizer_decomposition into H/S/CX)
_NATIVE_GATES = frozenset({"H", "S", "CX", "X", "Y", "Z"})
# the steps a fused run of one-qubit gates is spelled in
_ONE_QUBIT_STEPS = ("H", "S", "X", "Y", "Z")


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


def _one_qubit_group() -> tuple[tuple, tuple, dict]:
    """The 24 one-qubit Cliffords (up to phase), as the walk applies them.

    An element is what the ``apply_layers`` kernel makes of the rows
    ``X``, ``Z`` and ``Y`` of one wire — three-bit ``(x, z, sign)``
    columns — which fixes what it makes of every row (a starting sign bit
    only XORs in), so the table cannot disagree with the kernel.  Built
    breadth-first from the identity over the steps H, S, X, Y and Z:
    returns each element's spelling (a shortest step list, at most 4),
    ``product[a][b]`` (the element of ``a`` then ``b``) and each step's
    element.
    """
    walk = _kernels.apply_layers.impl  # uncounted: this is not a readout

    def run(state, names):
        x, z = {0: state[0]}, {0: state[1]}
        sign = walk([(name, 0) for name in names], x, z, state[2])
        return x[0], z[0], sign

    states, spellings = [(0b101, 0b110, 0)], [()]
    index = {states[0]: 0}
    for state, spelling in zip(states, spellings):  # both grow: a BFS queue
        for name in _ONE_QUBIT_STEPS:
            successor = run(state, (name,))
            if successor not in index:
                index[successor] = len(states)
                states.append(successor)
                spellings.append(spelling + (name,))
    product = tuple(
        tuple(index[run(state, spelling)] for spelling in spellings)
        for state in states
    )
    steps = {name: index[run(states[0], (name,))] for name in _ONE_QUBIT_STEPS}
    return tuple(spellings), product, steps


_SPELLINGS, _PRODUCT, _STEP_ELEMENT = _one_qubit_group()


@functools.lru_cache(maxsize=4096)
def _gate_element(gate) -> int | None:
    """A one-qubit Clifford gate's element of the group table (``None``
    for a wider gate), composed once per distinct gate from its steps."""
    if gate.num_qubits != 1:
        return None
    element = 0
    for name, _ in _gate_steps(gate):
        element = _PRODUCT[element][_STEP_ELEMENT[name]]
    return element


def _compile_ops(table: OpTable) -> list[tuple]:
    """A Clifford circuit's :class:`~repro.circuits.circuit.OpTable` as a
    flat gate program, in op order.

    Each op stands for its gate's steps on the op's qubits: native H, S,
    CX, X, Y and Z as themselves, any other Clifford gate as its
    ``stabilizer_decomposition()``, the identity as nothing — looked up
    once per distinct gate of the table, then read off the integer
    columns op by op.  A run of one-qubit steps on a wire is one of the
    24 one-qubit Cliffords: it is kept as one pending group element per
    wire, composed by table lookup, and written out as that element's
    shortest spelling (at most 4 steps) when a CX touches the wire and at
    the end.  Steps on distinct wires commute, so the program conjugates
    every Pauli row bit for bit as the spelled-out steps do.  A step is
    ``(name, qubit)`` or ``("CX", control, target)``.  Raises
    ``ValueError`` on a non-Clifford gate.
    """
    if not table.clifford.all():
        # the first non-Clifford op's gate names itself in the error
        _gate_steps(table.gates[table.gate_index[np.argmin(table.clifford[table.gate_index])]])
    elements = [_gate_element(gate) for gate in table.gates]
    gate_steps = [_gate_steps(gate) for gate in table.gates]
    program: list[tuple] = []
    emit = program.append
    # keyed by qubit, not indexed: a qubit outside the columns reaches the
    # kernel as itself, which refuses it
    pending: dict[int, int] = {}
    product, spellings, step_element = _PRODUCT, _SPELLINGS, _STEP_ELEMENT
    wires = table.wires.tolist()
    for g, at in zip(table.gate_index.tolist(), table.offsets.tolist()):
        element = elements[g]
        if element is not None:
            q = wires[at]
            pending[q] = product[pending.get(q, 0)][element]
            continue
        for step in gate_steps[g]:
            if len(step) == 2:
                q = wires[at + step[1]]
                pending[q] = product[pending.get(q, 0)][step_element[step[0]]]
                continue
            control, target = wires[at + step[1]], wires[at + step[2]]
            for q in (control, target):
                for name in spellings[pending.pop(q, 0)]:
                    emit((name, q))
            emit(("CX", control, target))
    for q, element in pending.items():
        for name in spellings[element]:
            emit((name, q))
    return program


def compile_clifford_layers(circuit: Circuit) -> list[tuple]:
    """The gate program of a Clifford circuit, compiled from its table and
    cached in its :meth:`Circuit.derived` space: an appended op makes the
    next call compile again.
    """
    derived = circuit.derived()
    program = derived.get("clifford_layers")
    if program is None:
        program = derived["clifford_layers"] = _compile_ops(circuit.table)
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


def compile_inverse_layers(circuit: Circuit) -> list[tuple]:
    """The gate program of a Clifford circuit's inverse
    (:func:`inverse_program`), cached next to the forward one
    (:func:`compile_clifford_layers`)."""
    derived = circuit.derived()
    program = derived.get("inverse_layers")
    if program is None:
        program = derived["inverse_layers"] = inverse_program(
            compile_clifford_layers(circuit)
        )
    return program


def _n_words(n: int) -> int:
    """Words per packed row of ``n`` qubits (at least one)."""
    return max(1, (n + 63) >> 6)


def _unit_rows(n: int, wires) -> np.ndarray:
    """Packed rows over ``n`` qubits, row ``i`` the one bit of ``wires[i]``."""
    wires = np.asarray(wires, dtype=np.intp)
    rows = np.zeros((len(wires), _n_words(n)), dtype=np.uint64)
    rows[np.arange(len(wires)), wires >> 6] = _ONE << (wires & 63).astype(np.uint64)
    return rows


def _walk(program, n: int, x: np.ndarray, z: np.ndarray):
    """Conjugate packed Pauli rows by a gate program, ``P -> G P G†`` step
    by step: one ``apply_layers`` kernel call over all the rows, on one int
    column per qubit.  Returns ``(x, z, sign)``, the signs those of rows
    that started with sign bit 0 (a starting sign bit only XORs in)."""
    rows = x.shape[0]
    xs = dict(enumerate(_to_columns(x, n)))
    zs = dict(enumerate(_to_columns(z, n)))
    sign = _kernels.apply_layers(program, xs, zs, 0)
    return (
        _from_columns(list(xs.values()), rows, x.shape[1]),
        _from_columns(list(zs.values()), rows, x.shape[1]),
        _int_to_bits(sign, rows),
    )


def heisenberg_images(
    circuit: Circuit, x: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``U† P U`` for every row ``P = i^(x.z) X^x Z^z`` of packed Paulis.

    ``U`` is the Clifford ``circuit``; ``x`` and ``z`` are packed rows,
    ``(rows, ceil(n/64))`` ``uint64``.  A walk conjugates
    its rows ``P -> G P G†`` gate by gate, so walking the inverse program
    (:func:`inverse_program`) takes them to ``U† P U``: the body is
    compiled and inverted once per circuit (:func:`compile_inverse_layers`)
    and walked once per call, one ``apply_layers`` kernel call over all the
    rows.  Returns the images ``(x, z, sign)`` packed the same way, each
    ``(-1)^sign i^(x.z) X^x Z^z``.
    """
    return _walk(compile_inverse_layers(circuit), circuit.n_qubits, x, z)


def outcome_distribution(circuit: Circuit, qubits) -> "AffineOutcomeDistribution":
    """Exact Z-basis outcome distribution of ``qubits``, in that order, on
    ``U|0...0>`` (``U`` the Clifford ``circuit``).

    One walk of the rows ``Z_q`` (:func:`heisenberg_images`).  Their ``X``
    parts are reduced in order: a row the earlier ones span closes a
    constraint ``u`` of ``V`` (the kernel of the ``X`` parts) — its own bit
    plus the earlier free rows that sum to it — and its outcome is fixed,
    ``x.u = [ω(u) = -1]`` with ``ω(u)`` the sign of the image product.  The
    other rows are free: symbol ``j`` is the ``j``-th of them, in order.
    So a fixed outcome's row of ``A`` is its constraint's free bits and
    its ``b`` the sign, a free one's row of ``A`` a unit vector.  This is
    the canonical form a forward symbolic measurement sweep produces,
    bit for bit.
    """
    n, m = circuit.n_qubits, len(qubits)
    z = _unit_rows(n, qubits)
    x, z, sign = heisenberg_images(circuit, np.zeros_like(z), z)
    basis: dict[int, tuple[int, int]] = {}
    fixed, constraints = [], []
    for i, row in enumerate(x):
        rest, used = _reduce(int.from_bytes(row.tobytes(), "little"), 1 << i, basis)
        if rest:
            basis[rest.bit_length()] = (rest, used)
        else:
            fixed.append(i)
            constraints.append(_int_to_bits(used, m))
    selected = np.array(constraints, dtype=bool).reshape(len(fixed), m)
    free = np.ones(m, dtype=bool)
    free[fixed] = False
    A = np.zeros((m, int(free.sum())), dtype=bool)
    A[free] = np.eye(A.shape[1], dtype=bool)
    A[fixed] = selected[:, free]
    # the signs need only the rows some constraint takes
    taken = selected.any(axis=0)
    x_bits, z_bits = _unpack_axis1(x[taken], n), _unpack_axis1(z[taken], n)
    b = np.zeros(m, dtype=bool)
    b[fixed] = _product_phases(x_bits, z_bits, sign[taken], selected[:, taken]) == 2
    return AffineOutcomeDistribution(A, b)


def pauli_expectations(circuit: Circuit, paulis) -> list[int]:
    """Exact ``<P>`` on ``U|0...0>`` of every Pauli, each -1, 0 or +1.

    One walk of all the rows ``U† P U``: an image with an ``X`` part
    anticommutes with a ``Z`` that stabilizes |0...0> and reads 0;
    otherwise it is ``±Z``-type and reads its sign times the scalar ``P``
    carries (``P = i^phase X^x Z^z`` is ``i^(phase - x.z)`` times a row).
    Raises ``ValueError`` for a Pauli of another width, and for a
    non-Hermitian one whose expectation would be ``±i``.
    """
    n = circuit.n_qubits
    if any(pauli.n != n for pauli in paulis):
        raise ValueError(f"Pauli width does not match the {n}-qubit circuit")
    xs = np.array([pauli.x for pauli in paulis], dtype=bool).reshape(-1, n)
    zs = np.array([pauli.z for pauli in paulis], dtype=bool).reshape(-1, n)
    phases = np.array([pauli.phase for pauli in paulis], dtype=int)
    scalar = (phases - (xs & zs).sum(axis=1)) % 4
    x, _z, sign = heisenberg_images(
        circuit, _pack_axis1(xs, _n_words(n)), _pack_axis1(zs, _n_words(n))
    )
    anticommutes = x.any(axis=1)
    if (scalar[~anticommutes] & 1).any():
        raise ValueError("expectation of a non-Hermitian Pauli is not +/-1")
    values = 1 - 2 * ((scalar >> 1) ^ sign)
    return np.where(anticommutes, 0, values).tolist()


def same_state(a: Circuit, b: Circuit) -> bool:
    """Whether the Clifford circuits ``a`` and ``b`` prepare the same state
    from |0...0> (up to a global phase; never at different widths).

    ``A|0> = B|0>`` iff ``A† B`` fixes |0>, i.e. maps every ``Z_q`` to a
    ``+Z``-type Pauli: the rows ``Z_q`` walk ``b``'s program and then
    ``a``'s inverse program, ``P -> A† B P B† A``.
    """
    if a.n_qubits != b.n_qubits:
        return False
    n = a.n_qubits
    program = compile_clifford_layers(b) + compile_inverse_layers(a)
    z = _unit_rows(n, range(n))
    x, _z, sign = _walk(program, n, np.zeros_like(z), z)
    return not (x.any() or sign.any())


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
        cut = _unit_rows(n, self.outputs)
        wires = _unit_rows(n, range(n))
        x = np.vstack([np.zeros_like(wires), cut])
        z = np.vstack([wires, np.zeros_like(cut)])
        self.x, self.z, self.sign = heisenberg_images(body, x, z)

    def bits(self) -> tuple[np.ndarray, np.ndarray]:
        """The images' ``x`` and ``z`` as ``(rows, n)`` bool matrices."""
        return _unpack_axis1(self.x, self.n), _unpack_axis1(self.z, self.n)


def _reduce(vec: int, used: int, basis: dict) -> tuple[int, int]:
    """``vec`` reduced against ``basis`` (``{lead: (vector, used)}``,
    vectors as Python ints), XORing into ``used`` what each vector it
    takes sums; returns ``(remainder, used)``."""
    while vec and vec.bit_length() in basis:
        other, summed = basis[vec.bit_length()]
        vec, used = vec ^ other, used ^ summed
    return vec, used


def _product_phases(x, z, sign, selected) -> np.ndarray:
    """The power of ``i`` (mod 4) of ordered products of Pauli rows.

    ``x`` and ``z`` (``(..., r, n)`` bool) and ``sign`` (``(..., r)``) hold
    rows ``(-1)^sign i^(x.z) X^x Z^z``; each row of ``selected`` (``(...,
    s, r)``) picks the rows of one product, multiplied in row order.  Each
    row brings its own phase, and ``i^2`` per ``Z`` moved past a later
    ``X``; a product without an ``X`` part is ``-1`` times a ``Z``-type
    Pauli iff its power is 2.

    Every product is a uint8 einsum: NumPy's own integer loops, which
    never call BLAS (so no BLAS thread pool wakes) and run the selection
    products about four times faster than its integer matmul.  A uint8
    sum wraps modulo 256, which keeps what is read of it: the parity of
    ``z @ xᵀ`` and of ``selected @ swaps``, and the phase sum modulo 4.
    """
    x8, z8 = x.view(np.uint8), z.view(np.uint8)
    chosen = selected.astype(np.uint8)
    phase = ((x8 & z8).sum(axis=-1, dtype=np.int64) + 2 * sign.astype(np.int64)) % 4
    swaps = np.triu(np.einsum("...rn,...cn->...rc", z8, x8) & 1, 1)
    moved = np.einsum("...sr,...rc->...sc", chosen, swaps) & 1
    crossed = np.einsum("...sr,...sr->...s", chosen, moved)
    powers = np.einsum("...sr,...r->...s", chosen, phase.astype(np.uint8)) + 2 * crossed
    return powers.astype(np.int64) % 4


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
    # by the column count, not -1: no rows is a stride of zero
    bits = np.unpackbits(
        data.reshape(len(columns), stride), axis=1, count=rows, bitorder="little"
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
        """Exact distribution by enumerating the ``2^k`` support points; more
        than ``2^max_free`` raise
        :class:`~repro.errors.ReconstructionMemoryError` before any is."""
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
