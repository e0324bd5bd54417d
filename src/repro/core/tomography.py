"""Fragment tensors: from variant statistics to Pauli-indexed models.

The recombination step (paper §V-C, following the maximum-likelihood
fragment tomography of reference [40]) consumes, per fragment, the tensor

    T[P_in..., P_out...](x) =
        Tr[ (Pi_x  ⊗ P_out...) E_F( rho(P_in...) ) ]

where ``rho(P)`` extends the fragment channel linearly over the Pauli basis
at each quantum input (via the prepared-state decomposition in
:mod:`repro.core.variants`) and each quantum output Pauli is estimated from
the matching measurement basis.  ``x`` ranges over the outcomes of the
*kept* circuit-output bits of the fragment, and the tensor lives on its
*support*: the ``x`` some variant actually produced.  Every other column is
zero for every Pauli, so it is not stored — a tensor is its ``values`` on
the support plus the support's sorted keys
(:class:`~repro.core.reconstruction.SupportTensor`, where the layouts and
the contraction are described).  A noiseless Clifford fragment's data is
the :class:`~repro.stabilizer.tableau.PauliMap` of its body, and its
tensors are read straight off the map by GF(2) algebra (:func:`_solve_map`;
"Reading a fragment backwards" in :mod:`repro.stabilizer.tableau`): every
entry is ``0`` or ``±2^j``, the support the same for every index.  Other
data comes variant by variant, and the arithmetic is per variant ``P(kept,
measured cut qubits)``, every output Pauli a signed sum over the measured
bits in ascending order, then the preparation contraction.  Two builders
make a tensor:

* :func:`build_window_tensors` is the dense one, for windows narrow enough
  that the support may as well be *full* (all ``2**width`` keys, a bare
  array).  It takes *all* the windows a caller wants from one fragment
  (``marginal_probabilities`` asks for hundreds) and, per window width,
  eliminates a Clifford fragment's map once for all of them or visits every
  variant once — sampled variants histogram all windows in one pass over
  their shots (:meth:`VariantData.joint_tables`) — and identical windows
  are built once.  :func:`build_fragment_tensor` is its one-window call.
* :func:`build_conditioned_window_tensors` builds on the support: one
  window of any width, one set of pinned columns, and every assignment to
  them a caller wants (a level of recursive reconstruction asks for its
  whole frontier).  It asks the fragment once — a Clifford fragment's map
  one elimination over the pinned bits and the window, after which each
  assignment solves for its own affine set of window outcomes and
  enumerates only that; other data one joint per variant
  (:meth:`FragmentData.conditioned_tables`), cut up by the pinned bits —
  and yields one tensor per assignment, its support the union of what the
  variants saw.
  With no pinned column it is the sparse builder
  (``SuperSim.sparse_probabilities``: a 41-qubit window with a handful of
  outcomes); with every kept column pinned and an empty window it is the
  point builder (``SuperSim.probability_of``: a support of one key, or
  none).  :func:`build_conditioned_fragment_tensor` is its one-assignment
  call.

Clifford fragments need no statistical refinement: the paper's §IX snaps
their sampled expectations to -1, 0 or +1 because its stabilizer simulator
samples, but here a noiseless Clifford fragment is always exact
(:meth:`~repro.core.evaluator.FragmentEvaluator.mode`), so its tensor is
exact and dyadic as built.  Sampled data (non-Clifford fragments, noisy
frames) can be refined with the **physicality projection** (the
maximum-likelihood correction of [40], realised as the standard
eigenvalue-clipping projection, dense builder only): the Pauli-transfer
data of each kept outcome is reassembled into a Choi-like operator,
projected onto the PSD cone, and re-expanded.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.analysis.distributions import pack_keys, split_keys
from repro.core.evaluator import FragmentData
from repro.core.reconstruction import DEFAULT_MAX_DENSE_BITS, SupportTensor
from repro.core.variants import BASIS_FOR_PAULI, PREP_COEFFICIENTS, all_variants
from repro.errors import ReconstructionMemoryError
from repro.stabilizer.tableau import (
    MAX_ENUMERATED_RANK,
    PauliMap,
    _affine_keys,
    _bits_to_int,
    _check_enumerable,
    _int_to_bits,
)

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_PAULI_ORDER = "IXYZ"


def _contract_prep_axes(raw: np.ndarray, qi: int) -> np.ndarray:
    """Contract each prep axis with the Pauli-over-preparation coefficients.

    ``raw`` stacks one table per window on its leading axis.  Each prep
    axis is one ``np.matmul`` batched over the windows, its slices the
    ``4 x 4`` by ``4 x rest`` product a single table's ``np.tensordot``
    would make.
    """
    tensor = raw
    for axis in range(1, qi + 1):
        moved = np.moveaxis(tensor, axis, 1)
        product = np.matmul(PREP_COEFFICIENTS, moved.reshape(len(moved), 4, -1))
        tensor = np.moveaxis(product.reshape(moved.shape), 1, axis)
    return tensor


def _signed_sum(tables: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """``sum_m tables[..., m] * signs[m]``, accumulated in ascending ``m``."""
    total = np.zeros(tables.shape[:-1])
    for m, sign in enumerate(signs):
        total += tables[..., m] * sign
    return total


#: output Paulis estimated from each measurement basis (Z data also gives I)
_PAULIS_OF_BASIS = tuple(
    tuple(p for p in range(4) if BASIS_FOR_PAULI[p] == basis) for basis in range(3)
)


def _signed_paulis(bases: tuple[int, ...]) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """``(P_out combo, sign of every measured outcome m under it)`` pairs:
    every output-Pauli combination the basis choice ``bases`` estimates."""
    qo = len(bases)
    m_bits = np.arange(2**qo)
    signed = []
    for pauli_out in itertools.product(*(_PAULIS_OF_BASIS[b] for b in bases)):
        parity = np.zeros(2**qo, dtype=np.int64)
        for j, p in enumerate(pauli_out):
            if p != 0:
                parity ^= (m_bits >> (qo - 1 - j)) & 1
        signed.append((pauli_out, 1.0 - 2.0 * parity))
    return signed


def _reduce(vec: int, used: int, basis: dict) -> tuple[int, int]:
    """``vec`` reduced against ``basis`` (``{lead: (vector, used)}``,
    vectors as Python ints), XORing into ``used`` what each vector it
    takes sums; returns ``(remainder, used)``."""
    while vec and vec.bit_length() in basis:
        other, summed = basis[vec.bit_length()]
        vec, used = vec ^ other, used ^ summed
    return vec, used


def _solve_map(pauli_map: PauliMap, windows) -> tuple:
    """The GF(2) algebra of a Clifford fragment's tensors over kept bits,
    for every row ``K`` of the ``(count, k)`` array ``windows``.

    Per window, the restricted images (the module docstring of
    :mod:`repro.stabilizer.tableau`) of ``Z`` on each kept wire — the
    columns of ``M`` — are reduced, as Python ints, followed by the
    targets they are solved against: the input cut wires' ``X`` and ``Z``
    bits and the restricted images of ``X`` and ``Z`` on each output cut
    wire.  A vector that reduces to zero records the relation that made
    it: a kept wire's is a basis vector of ``V = ker M``, a target's says
    which index it solves and how.  What follows is batched over the
    windows, with indices in tensor order (``(P_in..., P_out...)``, IXYZ):

    * ``constraints`` ``(count, k, k)``: a basis of ``V``, zero rows padding;
    * ``flips`` ``(count, k)``: ``ω(u) = -1`` for each of those rows;
    * ``amplitudes`` ``(count, 4**(qi+qo))``: ``ω(S0, P_out) 2^(qi - k +
      dim V)``, zero for an index without a solution;
    * ``solutions`` ``(count, 4**(qi+qo), k)``: a solution ``S0`` per index.
    """
    n, inputs, outputs = pauli_map.n, list(pauli_map.inputs), list(pauli_map.outputs)
    qi, qo = len(inputs), len(outputs)
    x, z = pauli_map.bits()
    fresh = [q for q in range(n) if q not in inputs]
    restricted = np.hstack([x[:, fresh], x[:, inputs], z[:, inputs]])
    images = [
        int.from_bytes(row.tobytes(), "little")
        for row in np.packbits(restricted, axis=1, bitorder="little")
    ]
    out_rows = [n + j for j in range(qo)] + outputs
    targets = [1 << (len(fresh) + i) for i in range(2 * qi)]
    targets += [images[r] for r in out_rows]
    windows = np.asarray(windows, dtype=np.intp)
    count, k = windows.shape
    m = k + len(targets)
    relations = np.zeros((count, m, m), dtype=bool)
    for w, window in enumerate(windows.tolist()):
        basis: dict[int, tuple[int, int]] = {}
        for i, vec in enumerate([images[q] for q in window] + targets):
            rest, used = _reduce(vec, 1 << i, basis)
            if rest:
                basis[rest.bit_length()] = (rest, used)
            else:
                relations[w, i] = _int_to_bits(used, m)
    letters = np.array(list(itertools.product(range(4), repeat=qi + qo)), dtype=int)
    xs, zs = (letters == 1) | (letters == 2), letters >= 2
    # an index asks for its letters' X and Z bits, in the order of `targets`
    wanted = np.hstack([xs[:, :qi], zs[:, :qi], xs[:, qi:], zs[:, qi:]])
    dependent = relations.any(axis=2)
    coefficients = (wanted[None] & dependent[:, None, k:]).astype(np.uint8)
    # a uint8 product wraps modulo 256, which keeps its parity
    reached = (coefficients @ relations[:, k:].astype(np.uint8) & 1).astype(bool)
    solvable = (reached[..., k:] == wanted).all(axis=2)
    solutions = reached[..., :k]
    constraints = relations[:, :k, :k]
    # signs of image products, rows in product order: the kept wires' Z,
    # then X before Z on each output cut wire
    pairs = np.array([r for j in range(qo) for r in (n + j, outputs[j])], dtype=np.intp)
    rows = np.hstack([windows, np.tile(pairs, (count, 1))])
    picked_x, picked_z = x[rows].astype(np.uint8), z[rows].astype(np.uint8)
    phase = (picked_x & picked_z).sum(axis=2) + 2 * pauli_map.sign[rows]
    swaps = np.triu(picked_z @ picked_x.transpose(0, 2, 1) & 1, 1).astype(int)

    def exponent(selected):
        # i^exponent: the phase of the product of the selected rows, in
        # order — each row's own, and i^2 per Z moved past a later X
        selected = selected.astype(int)
        return (selected * (phase[:, None] + 2 * (selected @ swaps))).sum(axis=2)

    chosen_out = np.stack([xs[:, qi:], zs[:, qi:]], axis=2).reshape(len(letters), -1)
    selected = np.concatenate(
        [solutions, np.broadcast_to(chosen_out, (count,) + chosen_out.shape)], axis=2
    )
    # Y = i X Z on an output; on the inputs the product reads P_in's letters
    ys = (letters[:, qi:] == 2).sum(axis=1) - (letters[:, :qi] == 2).sum(axis=1)
    negative = (exponent(selected) + ys) % 4 == 2
    padded = np.concatenate([constraints, np.zeros((count, k, 2 * qo), bool)], axis=2)
    flips = exponent(padded) % 4 == 2
    scale = 2.0 ** (qi - k + dependent[:, :k].sum(axis=1))
    amplitudes = np.where(solvable, np.where(negative, -1.0, 1.0) * scale[:, None], 0.0)
    return constraints, flips, amplitudes, solutions


def _map_window_tensors(pauli_map: PauliMap, windows) -> np.ndarray:
    """Dense tensors of equal-width windows, read off a Clifford fragment's
    map (:func:`_solve_map`, one call for all of them): shape ``(count,)
    + (4,)*(qi+qo) + (2**width,)``, outcomes ``x`` first bit most
    significant, zero off the support and for indices without a solution."""
    constraints, flips, amplitudes, solutions = _solve_map(pauli_map, windows)
    count, k = constraints.shape[:2]
    weights = np.uint64(1) << np.arange(k - 1, -1, -1, dtype=np.uint64)
    outcomes = np.arange(2**k, dtype=np.uint64)

    def parity(vectors):
        keys = (vectors * weights).sum(axis=-1, dtype=np.uint64)
        return np.bitwise_count(outcomes & keys[..., None]) & 1

    support = (parity(constraints) == flips[..., None]).all(axis=1)
    signs = 1.0 - 2.0 * parity(solutions)
    # + 0.0 turns the -0.0 of a zero amplitude times -1 into +0.0
    tensors = np.where(support[:, None], amplitudes[..., None] * signs, 0.0) + 0.0
    cuts = len(pauli_map.inputs) + len(pauli_map.outputs)
    return tensors.reshape((count,) + (4,) * cuts + (2**k,))


def _map_conditioned_tensors(pauli_map: PauliMap, keep, fixed, fixed_rows):
    """Yield the tensor over ``keep`` on its support, ``fixed`` pinned to
    each row of ``fixed_rows``, read off a Clifford fragment's map.

    One :func:`_solve_map` over the kept bits ``fixed + keep``.  A row
    pins the fixed bits, and each constraint ``u`` then asks ``u_window .
    x = [ω(u) = -1] ^ u_fixed . row`` of the window outcomes ``x``: the
    columns of the window parts are reduced once, their relations spanning
    the solutions of the homogeneous system, and a row's right-hand side
    either reduces to zero — an offset plus that span, enumerated and
    sorted in the key layout of
    :func:`~repro.analysis.distributions.pack_keys` — or no outcome meets
    it.
    """
    p, w = len(fixed), len(keep)
    cuts = len(pauli_map.inputs) + len(pauli_map.outputs)
    ((constraints,), (flips,), (amplitudes,), (solutions,)) = _solve_map(
        pauli_map, [list(fixed) + list(keep)]
    )
    held = constraints.any(axis=1)
    pinned, flips = constraints[held, :p].astype(np.uint8), flips[held]
    # column j of the window parts, constraint i its bit i; what a vector
    # sums is kept as a window key, first bit most significant
    basis: dict[int, tuple[int, int]] = {}
    kernel = []
    for j, column in enumerate(constraints[held, p:].T):
        rest, used = _reduce(_bits_to_int(column), 1 << (w - 1 - j), basis)
        if rest:
            basis[rest.bit_length()] = (rest, used)
        else:
            kernel.append(used)
    what = f"the conditioned marginal over {w} bits"
    _check_enumerable(len(kernel), MAX_ENUMERATED_RANK, what)
    window_solutions = pack_keys(solutions[:, p:])
    fixed_rows = np.asarray(fixed_rows, dtype=np.uint8)
    rhs = (fixed_rows @ pinned.T & 1).astype(bool) ^ flips
    pinned_signs = fixed_rows @ solutions[:, :p].T.astype(np.uint8) & 1
    for bits, pinned_sign in zip(rhs, pinned_signs):
        rest, offset = _reduce(_bits_to_int(bits), 0, basis)
        keys = np.unique(_affine_keys(kernel, offset, w), axis=0)
        if rest:  # no window outcome meets this row
            keys = keys[:0]
        both = keys[:, None] & window_solutions[None]  # chunked keys: 3-D
        odd = np.bitwise_count(both).sum(axis=tuple(range(2, both.ndim)))
        # + 0.0 turns the -0.0 of a zero amplitude times -1 into +0.0
        values = (amplitudes * (1.0 - 2.0 * (odd + pinned_sign & 1))).T + 0.0
        yield SupportTensor(values.reshape((4,) * cuts + (len(keys),)), keys)


def _check_tensor_entries(
    fragment, count: int, width: int, max_dense_bits: int | None
) -> None:
    """Refuse, before allocating, ``count`` dense tensors over ``width`` kept
    bits that together hold more than ``2**max_dense_bits`` entries — the
    limit :func:`~repro.core.reconstruction.check_dense_width` puts on the
    output accumulator."""
    cuts = len(fragment.quantum_inputs) + len(fragment.quantum_outputs)
    entries = count * 4**cuts * 2**width
    if max_dense_bits is not None and entries > 2**max_dense_bits:
        raise ReconstructionMemoryError(
            f"fragment {fragment.index}: {count} tensor(s) over {width} kept "
            f"bits and {cuts} cut wire(s) need {entries} entries (limit: "
            f"2**{max_dense_bits}); ask for a narrower window "
            "(ReconstructionConfig(qubit_limit=...)) or raise max_dense_bits "
            "explicitly if you really have the memory"
        )


def build_window_tensors(
    data: FragmentData,
    windows,
    project: bool = False,
    max_dense_bits: int | None = DEFAULT_MAX_DENSE_BITS,
) -> list[np.ndarray]:
    """One fragment tensor per window, every variant visited once.

    Element ``i`` has shape ``(4,)*qi + (4,)*qo + (2**len(windows[i]),)``:
    ``windows[i]`` lists the fragment-local circuit-output qubits whose
    bits that tensor keeps (order defines the bit order of its last axis).
    Identical windows — above all the empty one, for a fragment that holds
    none of the requested qubits — are built once and share one array.

    A Clifford fragment's map answers all windows of one width from one
    elimination (:func:`_map_window_tensors`).  Other data: each variant
    hands over ``P(window, measured cut qubits)`` for all windows of one
    width at a time (:meth:`VariantData.joint_tables`: for sampled data a
    single pass over the shots), and every output Pauli its basis
    estimates is a signed sum over the measured bits in ascending order;
    the preparation axes are then contracted for all windows of the width
    at once, one batched matmul per axis — the arithmetic, hence the
    result, of building each window alone.  Working memory is one
    variant's ``windows x 2**width x 2**qo`` table per width.

    The tensors of one width are allocated together, ``windows x
    4**(qi+qo) x 2**width`` entries; more than ``2**max_dense_bits`` of
    them raise :class:`~repro.errors.ReconstructionMemoryError` before
    anything is allocated (``None`` lifts the limit).
    """
    fragment = data.fragment
    qi = len(fragment.quantum_inputs)
    qo = len(fragment.quantum_outputs)
    out_cols = [lq for _cut, lq in fragment.quantum_outputs]
    windows = [tuple(window) for window in windows]

    groups: dict[int, list[tuple[int, ...]]] = {}
    for window in dict.fromkeys(windows):
        groups.setdefault(len(window), []).append(window)
    for width, group in groups.items():
        _check_tensor_entries(fragment, len(group), width, max_dense_bits)
    if data.pauli_map is not None:
        tensors = {
            width: _map_window_tensors(data.pauli_map, group)
            for width, group in groups.items()
        }
    else:
        # raw[width][window, s_combo..., P_out combo..., kept outcome]
        raw = {
            width: np.zeros((len(group),) + (4,) * (qi + qo) + (2**width,))
            for width, group in groups.items()
        }
        for preps, bases in all_variants(fragment):
            variant = data.variant(preps, bases)
            signed = _signed_paulis(bases)
            for width, group in groups.items():
                tables = variant.joint_tables(group, out_cols)
                for pauli_out, signs in signed:
                    vec = _signed_sum(tables, signs)
                    raw[width][(slice(None),) + preps + pauli_out] = vec
        tensors = {width: _contract_prep_axes(raw[width], qi) for width in groups}

    built = {}
    for width, group in groups.items():
        for window, tensor in zip(group, tensors[width]):
            if project and (qi or qo):
                tensor = project_physical(tensor, qi, qo)
            built[window] = tensor
    return [built[window] for window in windows]


def build_fragment_tensor(
    data: FragmentData,
    keep_locals: list[int],
    project: bool = False,
    max_dense_bits: int | None = DEFAULT_MAX_DENSE_BITS,
) -> np.ndarray:
    """Tensor of shape ``(4,)*qi + (4,)*qo + (2**len(keep_locals),)``.

    ``keep_locals`` are the fragment-local circuit-output qubits whose bits
    the caller wants to keep (order defines the bit order of the last axis).
    The one-window call of :func:`build_window_tensors`.
    """
    return build_window_tensors(data, [keep_locals], project, max_dense_bits)[0]


def build_conditioned_window_tensors(
    data: FragmentData,
    keep_locals: list[int],
    fixed_cols: list[int],
    fixed_rows: np.ndarray,
    max_dense_bits: int | None = DEFAULT_MAX_DENSE_BITS,
):
    """Yield the fragment tensor over ``keep_locals`` with ``fixed_cols``
    pinned, on its support, once per row of ``fixed_rows``.

    ``fixed_rows`` is a ``(bins, len(fixed_cols))`` bit matrix: each row
    pins the fragment-local circuit-output qubits ``fixed_cols`` to one
    assignment, and the tensor yielded for it accumulates only outcomes
    matching that assignment, so contracting these tensors gives the joint
    probabilities ``P(fixed, window)`` — what one level of the recursive
    dynamic-definition driver needs for its whole frontier.  Each is a
    :class:`~repro.core.reconstruction.SupportTensor`: ``values`` of shape
    ``(4,)*qi + (4,)*qo + (len(support),)`` over the sorted keys of the
    window outcomes any variant saw together with the assignment — none at
    all for an assignment that cannot occur.  Scattered into zeros at
    ``[..., support]`` it is :func:`build_fragment_tensor` restricted to
    the bin.

    The fragment is asked once, before the first tensor is yielded: a
    Clifford fragment's map with one elimination
    (:func:`_map_conditioned_tensors`), other data for every variant's and
    bin's sparse ``P(window, bin, measured cut qubits)`` table, from one
    joint per variant (:meth:`FragmentData.conditioned_tables`), each bin
    then assembled on the union of its variants' supports — signed sums
    over the measured bits in ascending order, the preparation contraction.
    Between yields the generator holds the sparse tables alone: tensors
    are the consumer's to keep or drop.  ``max_dense_bits`` bounds what
    one of them may hold should its support be full, checked before the
    fragment is asked, as in :func:`build_window_tensors`; a caller that
    bounds the support some other way lifts it with ``None``.
    """
    fragment = data.fragment
    qi = len(fragment.quantum_inputs)
    qo = len(fragment.quantum_outputs)
    out_cols = [lq for _cut, lq in fragment.quantum_outputs]
    keep_cols = list(keep_locals)
    _check_tensor_entries(fragment, 1, len(keep_cols), max_dense_bits)
    fixed_cols = list(fixed_cols)
    fixed_rows = np.asarray(fixed_rows, dtype=bool)
    if data.pauli_map is not None:
        yield from _map_conditioned_tensors(
            data.pauli_map, keep_cols, fixed_cols, fixed_rows
        )
        return

    tables = data.conditioned_tables(keep_cols, fixed_cols, fixed_rows, out_cols)
    signed = {
        bases: _signed_paulis(bases)
        for bases in itertools.product(range(3), repeat=qo)
    }
    every_prep = (slice(None),) * qi
    for owner, keys, probs in tables:
        kept, measured = split_keys(keys, len(keep_cols) + qo, qo)
        support, column = np.unique(kept, axis=0, return_inverse=True)
        # compact[s_combo..., basis combo..., support outcome, measured m]
        compact = np.zeros((4**qi * 3**qo, len(support), 2**qo))
        compact[owner, column, measured] = probs
        compact = compact.reshape((4,) * qi + (3,) * qo + compact.shape[1:])
        raw = np.zeros((4,) * (qi + qo) + (len(support),))
        for bases, paulis in signed.items():
            block = compact[every_prep + bases]
            for pauli_out, signs in paulis:
                raw[every_prep + pauli_out] = _signed_sum(block, signs)
        yield SupportTensor(_contract_prep_axes(raw[None], qi)[0], support)


def build_conditioned_fragment_tensor(
    data: FragmentData,
    keep_locals: list[int],
    fixed_locals: dict[int, int],
    max_dense_bits: int | None = DEFAULT_MAX_DENSE_BITS,
) -> SupportTensor:
    """The fragment tensor over ``keep_locals`` with some output bits pinned.

    ``fixed_locals`` maps fragment-local circuit-output qubits to bit
    values.  The one-bin call of :func:`build_conditioned_window_tensors`:
    with nothing pinned the whole tensor on its support, with every kept
    qubit pinned and ``keep_locals`` empty the tensor at one outcome
    (strong simulation, paper §V-C).
    """
    fixed_cols = sorted(fixed_locals)
    row = [[int(fixed_locals[c]) for c in fixed_cols]]
    return next(
        build_conditioned_window_tensors(
            data, keep_locals, fixed_cols, row, max_dense_bits
        )
    )


def _pauli_kron(indices: tuple[int, ...], transpose_input: int = 0) -> np.ndarray:
    """Kron product of Paulis; the first ``transpose_input`` factors transposed."""
    out = np.array([[1.0 + 0j]])
    for pos, index in enumerate(indices):
        mat = _PAULI_MATS[_PAULI_ORDER[index]]
        if pos < transpose_input:
            mat = mat.T
        out = np.kron(out, mat)
    return out


def project_physical(tensor: np.ndarray, qi: int, qo: int) -> np.ndarray:
    """Project fragment data onto physical (PSD) models, kept-bit by bit.

    For each kept outcome ``x`` the Pauli coefficients define a Choi-like
    operator ``M(x) = 2^-(qi+qo) * sum T[P](x) (P_in^T ⊗ P_out)``; physical
    fragment models have every ``M(x)`` positive semidefinite.  Negative
    eigenvalues — sampling artifacts — are clipped and the coefficients
    re-extracted, the closest-PSD-point analogue of the maximum-likelihood
    correction of Perlin et al.
    """
    k = qi + qo
    dim = 2**k
    pauli_axes_shape = tensor.shape[: qi + qo]
    n_out = tensor.shape[-1]
    combos = list(itertools.product(range(4), repeat=k))
    basis = {combo: _pauli_kron(combo, transpose_input=qi) for combo in combos}
    projected = np.zeros_like(tensor)
    for x in range(n_out):
        m = np.zeros((dim, dim), dtype=complex)
        for combo in combos:
            m += tensor[combo + (x,)] * basis[combo]
        m /= dim
        vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
        vals = np.clip(vals, 0.0, None)
        m_psd = (vecs * vals) @ vecs.conj().T
        for combo in combos:
            projected[combo + (x,)] = float(
                np.trace(basis[combo].conj().T @ m_psd).real
            )
    return projected.reshape(pauli_axes_shape + (n_out,))
