"""Fragment tensors: from variant statistics to Pauli-indexed models.

The recombination step (paper §V-C, following the maximum-likelihood
fragment tomography of reference [40]) consumes, per fragment, the tensor

    T[P_in..., P_out...](x) =
        Tr[ (Pi_x  ⊗ P_out...) E_F( rho(P_in...) ) ]

where ``rho(P)`` extends the fragment channel linearly over the Pauli basis
at each quantum input (via the prepared-state decomposition in
:mod:`repro.core.variants`) and each quantum output Pauli is estimated from
the matching measurement basis.  ``x`` ranges over the *kept* circuit-output
bits of the fragment.

:func:`build_window_tensors` is the dense builder: it takes *all* the
windows a caller wants from one fragment (``marginal_probabilities`` asks
for hundreds) and visits every variant once — sampled variants histogram
all windows in one pass over their shots (:meth:`VariantData.joint_tables`)
and identical windows are built once.  :func:`build_fragment_tensor` is its
one-window call.

:func:`build_conditioned_window_tensors` is its conditioned twin, the
tomography of one *level* of recursive reconstruction: one window, one set
of pinned columns, and every frontier bin's assignment to them.  It too
visits every variant once (:meth:`VariantData.conditioned_tables` — for an
exact Clifford variant one GF(2) elimination that answers all the bins,
enumerating nothing wider than the window plus the cut qubits; otherwise
one joint cut up by the pinned bits), keeps only the bins' sparse tables,
and yields the dense tensors one bin at a time, assembled on each bin's
support.  :func:`build_conditioned_fragment_tensor` is its one-bin call.

Two refinements live here as well:

* **Clifford expectation snapping** (paper §IX): a stabilizer state's Pauli
  expectation is exactly -1, 0 or +1, so for sampled Clifford fragments the
  per-outcome conditional expectations are snapped to the nearest of the
  three values, removing most sampling error with very few shots.
* **Physicality projection** (the maximum-likelihood correction of [40],
  realised as the standard eigenvalue-clipping projection): the
  Pauli-transfer data of each kept outcome is reassembled into a Choi-like
  operator, projected onto the PSD cone, and re-expanded.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.evaluator import FragmentData
from repro.core.reconstruction import DEFAULT_MAX_DENSE_BITS
from repro.core.variants import BASIS_FOR_PAULI, PREP_COEFFICIENTS, all_variants
from repro.errors import ReconstructionMemoryError

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_PAULI_ORDER = "IXYZ"


def _snap(value: float) -> float:
    """Snap a conditional expectation to the nearest of {-1, 0, +1}."""
    if value > 0.5:
        return 1.0
    if value < -0.5:
        return -1.0
    return 0.0


def _split_signed_keys(dist, qo: int, signs_mask: list[int]):
    """``(x_key, sign, probs)`` arrays of a joint (kept + measured) dist.

    Outcome keys split into kept bits (high) and measured-Pauli bits
    (low); the sign is the parity of the masked measurement bits.  Works
    straight off the distribution's packed key/probability arrays — no
    dict materialisation.  Requires single-word keys (``None`` otherwise;
    callers keep the per-outcome loop for >62-bit joints).
    """
    if dist.n_bits > 62 or dist.chunked:
        return None
    outcomes = dist.keys_array.astype(np.int64)
    probs = dist.values_array
    x_key = outcomes >> qo
    sign = np.ones(len(outcomes))
    if signs_mask:
        m_bits = outcomes & ((1 << qo) - 1)
        parity = np.zeros(len(outcomes), dtype=np.int64)
        for j in signs_mask:
            parity ^= (m_bits >> (qo - 1 - j)) & 1
        sign = 1.0 - 2.0 * parity
    return x_key, sign, probs


def _snap_vector(vec: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Vectorised {-1, 0, +1} snapping of conditional expectations."""
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(weight > 0, vec / np.maximum(weight, 1e-300), 0.0)
    return weight * np.where(ratio > 0.5, 1.0, np.where(ratio < -0.5, -1.0, 0.0))


def _contract_prep_axes(raw: np.ndarray, qi: int) -> np.ndarray:
    """Contract each prep axis with the Pauli-over-preparation coefficients."""
    tensor = raw
    for axis in range(qi):
        tensor = np.tensordot(PREP_COEFFICIENTS, tensor, axes=([1], [axis]))
        # tensordot moved the new Pauli axis to the front; rotate it back
        order = list(range(1, axis + 1)) + [0] + list(range(axis + 1, tensor.ndim))
        tensor = np.transpose(tensor, order)
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
    snap_clifford: bool = False,
    project: bool = False,
    max_dense_bits: int | None = DEFAULT_MAX_DENSE_BITS,
) -> list[np.ndarray]:
    """One fragment tensor per window, every variant visited once.

    Element ``i`` has shape ``(4,)*qi + (4,)*qo + (2**len(windows[i]),)``:
    ``windows[i]`` lists the fragment-local circuit-output qubits whose
    bits that tensor keeps (order defines the bit order of its last axis).
    Identical windows — above all the empty one, for a fragment that holds
    none of the requested qubits — are built once and share one array.

    Each variant hands over ``P(window, measured cut qubits)`` for all
    windows of one width at a time (:meth:`VariantData.joint_tables`; for
    sampled data a single pass over the shots), and every output Pauli its
    basis estimates is a signed sum over the measured bits in ascending
    order — the arithmetic, hence the result, of building each window
    alone.  Working memory is one variant's ``windows x 2**width x
    2**qo`` table per width.

    The tensors of one width are allocated together, ``windows x
    4**(qi+qo) x 2**width`` entries; more than ``2**max_dense_bits`` of
    them raise :class:`~repro.errors.ReconstructionMemoryError` before
    anything is allocated (``None`` lifts the limit).
    """
    fragment = data.fragment
    qi = len(fragment.quantum_inputs)
    qo = len(fragment.quantum_outputs)
    out_cols = [lq for _cut, lq in fragment.quantum_outputs]
    snap = snap_clifford and fragment.is_clifford
    windows = [tuple(window) for window in windows]

    groups: dict[int, list[tuple[int, ...]]] = {}
    for window in dict.fromkeys(windows):
        groups.setdefault(len(window), []).append(window)
    for width, group in groups.items():
        _check_tensor_entries(fragment, len(group), width, max_dense_bits)
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
            weight = _signed_sum(tables, np.ones(2**qo)) if snap else None
            for pauli_out, signs in signed:
                vec = _signed_sum(tables, signs)
                if snap and any(pauli_out):
                    vec = _snap_vector(vec, weight)
                raw[width][(slice(None),) + preps + pauli_out] = vec

    built = {}
    for width, group in groups.items():
        for window, window_raw in zip(group, raw[width]):
            tensor = _contract_prep_axes(window_raw, qi)
            if project and (qi or qo):
                tensor = project_physical(tensor, qi, qo)
            built[window] = tensor
    return [built[window] for window in windows]


def build_fragment_tensor(
    data: FragmentData,
    keep_locals: list[int],
    snap_clifford: bool = False,
    project: bool = False,
    max_dense_bits: int | None = DEFAULT_MAX_DENSE_BITS,
) -> np.ndarray:
    """Tensor of shape ``(4,)*qi + (4,)*qo + (2**len(keep_locals),)``.

    ``keep_locals`` are the fragment-local circuit-output qubits whose bits
    the caller wants to keep (order defines the bit order of the last axis).
    The one-window call of :func:`build_window_tensors`.
    """
    return build_window_tensors(
        data, [keep_locals], snap_clifford, project, max_dense_bits
    )[0]


def build_conditioned_window_tensors(
    data: FragmentData,
    keep_locals: list[int],
    fixed_cols: list[int],
    fixed_rows: np.ndarray,
    snap_clifford: bool = False,
    max_dense_bits: int | None = DEFAULT_MAX_DENSE_BITS,
):
    """Yield :func:`build_fragment_tensor` with ``fixed_cols`` pinned, per bin.

    ``fixed_rows`` is a ``(bins, len(fixed_cols))`` bit matrix: each row
    pins the fragment-local circuit-output qubits ``fixed_cols`` to one
    assignment, and the tensor yielded for it accumulates only outcomes
    matching that assignment, so contracting these tensors gives the joint
    probabilities ``P(fixed, window)`` — what one level of the recursive
    dynamic-definition driver needs for its whole frontier.  Shape contract
    per tensor is unchanged: ``(4,)*qi + (4,)*qo + (2**len(keep_locals),)``.

    Every variant is visited once, before the first tensor is yielded
    (:meth:`VariantData.conditioned_tables`: all bins' sparse
    ``P(window, bin, measured cut qubits)`` tables from one elimination or
    one joint).  Each bin is then assembled on the union of its variants'
    supports — signed sums over the measured bits in ascending order, the
    preparation contraction — and only scattered into a dense tensor at
    the end.  Between yields the generator holds the sparse tables alone:
    tensors are the consumer's to keep or drop — one at a time is what
    ``max_dense_bits`` is checked against, as in :func:`build_window_tensors`.
    """
    fragment = data.fragment
    qi = len(fragment.quantum_inputs)
    qo = len(fragment.quantum_outputs)
    out_cols = [lq for _cut, lq in fragment.quantum_outputs]
    keep_cols = list(keep_locals)
    _check_tensor_entries(fragment, 1, len(keep_cols), max_dense_bits)
    fixed_cols = list(fixed_cols)
    fixed_rows = np.asarray(fixed_rows, dtype=bool)
    snap = snap_clifford and fragment.is_clifford

    tables = [
        data.variant(preps, bases).conditioned_tables(
            keep_cols, fixed_cols, fixed_rows, out_cols
        )
        for preps, bases in all_variants(fragment)
    ]
    signed = {
        bases: _signed_paulis(bases)
        for bases in itertools.product(range(3), repeat=qo)
    }
    every_prep = (slice(None),) * qi
    for bin_index in range(len(fixed_rows)):
        keys = np.concatenate([table[bin_index][0] for table in tables])
        probs = np.concatenate([table[bin_index][1] for table in tables])
        owner = np.repeat(
            np.arange(len(tables)), [len(table[bin_index][0]) for table in tables]
        )
        support, column = np.unique(keys >> qo, return_inverse=True)
        # compact[s_combo..., basis combo..., support outcome, measured m]
        compact = np.zeros((len(tables), len(support), 2**qo))
        compact[owner, column, keys & (2**qo - 1)] = probs
        compact = compact.reshape((4,) * qi + (3,) * qo + compact.shape[1:])
        raw = np.zeros((4,) * (qi + qo) + (len(support),))
        for bases, paulis in signed.items():
            block = compact[every_prep + bases]
            weight = _signed_sum(block, np.ones(2**qo)) if snap else None
            for pauli_out, signs in paulis:
                vec = _signed_sum(block, signs)
                if snap and any(pauli_out):
                    vec = _snap_vector(vec, weight)
                raw[every_prep + pauli_out] = vec
        tensor = np.zeros((4,) * (qi + qo) + (2 ** len(keep_cols),))
        tensor[..., support] = _contract_prep_axes(raw, qi)
        yield tensor


def build_conditioned_fragment_tensor(
    data: FragmentData,
    keep_locals: list[int],
    fixed_locals: dict[int, int],
    snap_clifford: bool = False,
) -> np.ndarray:
    """:func:`build_fragment_tensor` with some output bits pinned.

    ``fixed_locals`` maps fragment-local circuit-output qubits to bit
    values.  The one-bin call of :func:`build_conditioned_window_tensors`.
    """
    fixed_cols = sorted(fixed_locals)
    row = [[int(fixed_locals[c]) for c in fixed_cols]]
    return next(
        build_conditioned_window_tensors(
            data, keep_locals, fixed_cols, row, snap_clifford
        )
    )


class SparseKeyedVector:
    """Key/value arrays of one sparse fragment-tensor slice.

    Array-native replacement for the ``{kept_outcome: value}`` dicts the
    sparse tomography path used to build: ``keys`` holds sorted outcome
    keys (``int64``, or object-dtype Python ints beyond 62 bits) and
    ``vals`` the aligned coefficients.  A small mapping-like surface
    (iteration over keys, ``items``, ``get``) is kept for tests and
    debugging; the reconstruction consumes the arrays directly.
    """

    __slots__ = ("keys", "vals")

    def __init__(self, keys: np.ndarray, vals: np.ndarray):
        self.keys = keys
        self.vals = vals

    def __len__(self) -> int:
        return len(self.vals)

    def __iter__(self):
        return (int(k) for k in self.keys)

    def items(self):
        return ((int(k), float(v)) for k, v in zip(self.keys, self.vals))

    def get(self, key: int, default: float = 0.0) -> float:
        hits = np.flatnonzero(self.keys == key)
        return float(self.vals[hits[0]]) if len(hits) else default

    def __contains__(self, key: int) -> bool:
        return bool(np.any(self.keys == key))


def _signed_sparse_slice(dist, qo: int, signs_mask: list[int], snap: bool):
    """``(keys, vals)`` of one variant's sign-weighted kept-outcome slice."""
    if dist.n_bits <= 62 and not dist.chunked:
        split = _split_signed_keys(dist, qo, signs_mask)
        x_key, sign, probs = split
    else:
        # >62-bit joints: object-dtype Python-int keys, same vector algebra
        outcomes = np.array(dist.key_ints(), dtype=object)
        probs = dist.values_array
        x_key = outcomes >> qo
        sign = np.ones(len(probs))
        if signs_mask:
            m_bits = outcomes & ((1 << qo) - 1)
            parity = np.zeros(len(probs), dtype=object)
            for j in signs_mask:
                parity ^= (m_bits >> (qo - 1 - j)) & 1
            sign = 1.0 - 2.0 * parity.astype(np.float64)
    unique, inverse = np.unique(x_key, return_inverse=True)
    vals = np.bincount(inverse, weights=probs * sign, minlength=len(unique))
    if snap and signs_mask:
        weight = np.bincount(inverse, weights=probs, minlength=len(unique))
        live = weight > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(live, vals / np.maximum(weight, 1e-300), 0.0)
        snapped = np.where(ratio > 0.5, 1.0, np.where(ratio < -0.5, -1.0, 0.0))
        return unique[live], (weight * snapped)[live]
    return unique, vals


def build_sparse_fragment_tensor(
    data: FragmentData,
    keep_locals: list[int],
    snap_clifford: bool = False,
) -> dict[tuple[int, ...], SparseKeyedVector]:
    """Sparse variant of :func:`build_fragment_tensor`.

    Returns ``{pauli_combo: SparseKeyedVector}`` with Pauli axes ordered
    as quantum inputs then quantum outputs.  Used when fragments keep many
    output bits but the output distribution has small support (e.g. the
    repetition-code benchmark at widths where a dense ``2^n`` vector could
    not exist).  Every slice stays in key/value array form from the
    variant distribution through to reconstruction — no dict round trips.
    """
    fragment = data.fragment
    qi = len(fragment.quantum_inputs)
    qo = len(fragment.quantum_outputs)
    out_cols = [lq for _cut, lq in fragment.quantum_outputs]
    keep_cols = list(keep_locals)
    snap = snap_clifford and fragment.is_clifford

    raw: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
    for preps in itertools.product(range(4), repeat=qi):
        for pauli_out in itertools.product(range(4), repeat=qo):
            bases = tuple(BASIS_FOR_PAULI[p] for p in pauli_out)
            dist = data.variant(preps, bases).joint(keep_cols + out_cols)
            signs_mask = [j for j, p in enumerate(pauli_out) if p != 0]
            raw[preps + pauli_out] = _signed_sparse_slice(
                dist, qo, signs_mask, snap
            )

    # contract prep axes with the Pauli/preparation coefficient matrix:
    # concatenate the contributing slices' arrays and fold equal keys
    tensor: dict[tuple[int, ...], SparseKeyedVector] = {}
    for pauli_in in itertools.product(range(4), repeat=qi):
        for pauli_out in itertools.product(range(4), repeat=qo):
            key_parts: list[np.ndarray] = []
            val_parts: list[np.ndarray] = []
            for preps in itertools.product(range(4), repeat=qi):
                coeff = 1.0
                for p, s in zip(pauli_in, preps):
                    coeff *= PREP_COEFFICIENTS[p][s]
                if coeff == 0.0:
                    continue
                keys, vals = raw[preps + pauli_out]
                key_parts.append(keys)
                val_parts.append(coeff * vals)
            if not key_parts:
                tensor[pauli_in + pauli_out] = SparseKeyedVector(
                    np.empty(0, dtype=np.int64), np.empty(0)
                )
                continue
            keys = np.concatenate(key_parts)
            vals = np.concatenate(val_parts)
            unique, inverse = np.unique(keys, return_inverse=True)
            sums = np.bincount(inverse, weights=vals, minlength=len(unique))
            tensor[pauli_in + pauli_out] = SparseKeyedVector(unique, sums)
    return tensor


def fragment_tensor_at(
    data: FragmentData,
    fixed_bits: dict[int, int],
    snap_clifford: bool = False,
) -> dict[tuple[int, ...], float]:
    """Fragment tensor evaluated at one fixed outcome of its kept qubits.

    ``fixed_bits`` maps fragment-local circuit-output qubits to bit values.
    Returns ``{pauli_combo: scalar}`` — the ingredients of strong simulation
    (paper §V-C: "the probability to observe a particular bitstring ... can
    be computed to machine precision"), with cost independent of the number
    of other outcomes.
    """
    fragment = data.fragment
    qi = len(fragment.quantum_inputs)
    qo = len(fragment.quantum_outputs)
    out_cols = [lq for _cut, lq in fragment.quantum_outputs]
    keep_locals = sorted(fixed_bits)
    x_bits = [int(fixed_bits[lq]) for lq in keep_locals]
    cols = keep_locals + out_cols
    snap = snap_clifford and fragment.is_clifford

    raw: dict[tuple[int, ...], float] = {}
    for preps in itertools.product(range(4), repeat=qi):
        for pauli_out in itertools.product(range(4), repeat=qo):
            bases = tuple(BASIS_FOR_PAULI[p] for p in pauli_out)
            variant = data.variant(preps, bases)
            signs_mask = [j for j, p in enumerate(pauli_out) if p != 0]
            value = 0.0
            weight = 0.0
            for m in itertools.product((0, 1), repeat=qo):
                p = variant.probability_at(cols, x_bits + list(m))
                sign = 1.0
                for j in signs_mask:
                    if m[j]:
                        sign = -sign
                value += p * sign
                weight += p
            if snap and signs_mask and weight > 0:
                value = weight * _snap(value / weight)
            raw[preps + pauli_out] = value

    result: dict[tuple[int, ...], float] = {}
    for pauli_in in itertools.product(range(4), repeat=qi):
        for pauli_out in itertools.product(range(4), repeat=qo):
            total = 0.0
            for preps in itertools.product(range(4), repeat=qi):
                coeff = 1.0
                for p, s in zip(pauli_in, preps):
                    coeff *= PREP_COEFFICIENTS[p][s]
                if coeff:
                    total += coeff * raw[preps + pauli_out]
            result[pauli_in + pauli_out] = total
    return result


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
