"""Batched conditioning of exact Clifford data against its slow twin.

:func:`~repro.stabilizer.tableau.conditioned_marginals` conditions all of a
fragment's variants at once: one GF(2) elimination over their stacked
``A[fixed + rows]``.  The per-form algorithm it replaced — one
:func:`_gf2_column_basis` per form, its span enumerated by
:func:`_affine_keys` — lives on here as the oracle, and the batch must
give every form and bin the same ``(key, prob)`` set, over forms taken
from random Clifford circuits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.distributions import ints_to_chunked_keys, pack_bit_rows_chunked
from repro.circuits import Circuit, gates, random_clifford_circuit
from repro.stabilizer import StabilizerSimulator
from repro.stabilizer.tableau import (
    MAX_ENUMERATED_RANK,
    _affine_keys,
    _bits_key,
    _check_enumerable,
    _gf2_column_basis,
    conditioned_marginals,
)

# -- the oracle: one elimination per form ----------------------------------------


def per_form_conditioned_marginals(form, fixed, fixed_bits, rows):
    """``P(fixed = v, rows = ·)`` of one form: a ``(keys, probs)`` pair per
    row ``v`` of ``fixed_bits``, both empty when ``v`` cannot occur.

    One elimination of ``A[fixed + rows]``: the basis vectors leading
    inside the fixed rows decide whether ``v`` is reachable and how it
    shifts the remaining bits; the others span the outcomes over ``rows``.
    """
    fixed, rows = list(fixed), list(rows)
    n_fixed, n_rows = len(fixed), len(rows)
    basis = _gf2_column_basis(form.A[fixed + rows])
    deciding = [vec for vec in basis if vec >> n_rows]
    free = basis[len(deciding) :]
    _check_enumerable(
        len(free), MAX_ENUMERATED_RANK, f"the conditioned marginal over {n_rows} bits"
    )
    target = np.asarray(fixed_bits, dtype=bool) ^ form.b[fixed]
    chosen = target[:, [n_fixed + n_rows - vec.bit_length() for vec in deciding]]
    chosen = chosen[:, :, None]
    upper = ints_to_chunked_keys([vec >> n_rows for vec in deciding], n_fixed)
    lower = ints_to_chunked_keys(
        [vec & ((1 << n_rows) - 1) for vec in deciding], n_rows
    )
    reached = np.bitwise_xor.reduce(np.where(chosen, upper, np.uint64(0)), axis=1)
    offsets = np.bitwise_xor.reduce(np.where(chosen, lower, np.uint64(0)), axis=1)
    reachable = (reached == pack_bit_rows_chunked(target)).all(axis=1)
    span = _affine_keys(free, _bits_key(form.b[rows]), n_rows)
    if span.ndim == 1:
        offsets = offsets[:, 0]
    probs = np.full(len(span), 2.0 ** -len(basis))
    nothing = (span[:0], probs[:0])
    return [
        (span ^ offset, probs) if ok else nothing
        for ok, offset in zip(reachable.tolist(), offsets)
    ]


# -- forms from random Clifford circuits ------------------------------------------


def clifford_form(n, n_h, rng):
    """The outcome form of an ``n``-qubit Clifford circuit with ``n_h`` free
    bits: H on ``n_h`` qubits, then gates that keep the Z-basis entropy."""
    circuit = Circuit(n)
    for q in rng.choice(n, size=n_h, replace=False):
        circuit.append(gates.H, int(q))
    for _ in range(2 * n):
        kind, a = int(rng.integers(0, 4)), int(rng.integers(0, n))
        if kind == 0 and n > 1:
            b = int(rng.integers(0, n - 1))
            circuit.append(gates.CX, a, b + (b >= a))
        else:
            circuit.append((gates.S, gates.X, gates.Z, gates.S)[kind], a)
    return StabilizerSimulator().affine_distribution(circuit.measure_all())


def random_forms(n, count, rng):
    free_counts = rng.integers(0, min(n, 7) + 1, size=count)
    forms = [clifford_form(n, int(n_h), rng) for n_h in free_counts]
    if n <= 13 and rng.random() < 0.5:  # a high-entropy one among them
        circuit = random_clifford_circuit(n, 3, rng).measure_all()
        high = StabilizerSimulator().affine_distribution(circuit)
        forms[int(rng.integers(0, count))] = high
    return forms


def frontier(forms, fixed, rng):
    """Bins worth asking for: rows some form produces, a duplicate, and a
    random row that mostly cannot occur."""
    seen = [
        forms[int(rng.integers(0, len(forms)))].sample_bits(1, rng)[0, fixed]
        for _ in range(3)
    ]
    rows = seen + [seen[0], rng.integers(0, 2, size=len(fixed)).astype(bool)]
    return np.array(rows, dtype=bool).reshape(len(rows), len(fixed))


def entry_sets(keys, probs):
    """A table as a set of ``(key, prob)``, chunked keys as tuples."""
    keys = [tuple(k) if isinstance(k, list) else k for k in keys.tolist()]
    return set(zip(keys, probs.tolist()))


def assert_equals_the_oracle(forms, fixed, fixed_bits, rows):
    got = conditioned_marginals(forms, fixed, fixed_bits, rows)
    assert len(got) == len(fixed_bits)
    wanted = [per_form_conditioned_marginals(f, fixed, fixed_bits, rows) for f in forms]
    for bin_index, (owner, keys, probs) in enumerate(got):
        assert len(owner) == len(keys) == len(probs)
        assert np.all(owner[:-1] <= owner[1:])  # concatenated in form order
        assert keys.ndim == (1 if len(rows) <= 62 else 2)
        for index, per_form in enumerate(wanted):
            want_keys, want_probs = per_form[bin_index]
            mine = owner == index
            assert mine.sum() == len(want_keys)
            assert entry_sets(keys[mine], probs[mine]) == entry_sets(
                want_keys, want_probs
            )
    return got


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 6, 13, 70]),
    count=st.integers(1, 5),
    fixed_share=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    window_share=st.sampled_from([0.0, 0.2, 1.0]),
)
def test_batched_conditioning_equals_the_per_form_oracle(
    seed, n, count, fixed_share, window_share
):
    rng = np.random.default_rng(seed)
    forms = random_forms(n, count, rng)
    order = [int(q) for q in rng.permutation(n)]
    n_fixed = int(fixed_share * n)
    fixed = order[:n_fixed]
    rows = order[n_fixed : n_fixed + int(window_share * (n - n_fixed))]
    assert_equals_the_oracle(forms, fixed, frontier(forms, fixed, rng), rows)


def test_each_edge_in_one_batch():
    """Free counts 0 to 6 side by side; no pinned bit (the sparse builder);
    no window (the point query); a bin no form reaches; 70 rows."""
    rng = np.random.default_rng(7)
    n = 70
    forms = [clifford_form(n, n_h, rng) for n_h in (0, 3, 6, 1, 0)]
    assert len({form.n_free for form in forms}) == 4
    order = [int(q) for q in rng.permutation(n)]
    assert_equals_the_oracle(forms, [], np.zeros((1, 0), dtype=bool), order)
    point = forms[2].sample_bits(1, rng)[0]
    ((owner, keys, probs),) = assert_equals_the_oracle(
        forms, order, point[order][None], []
    )
    assert owner.tolist() == [2] and keys.tolist() == [0]
    assert probs.tolist() == [2.0**-6]
    fixed = order[:40]
    # the constant bits of form 0 read 1 where they read 0: unreachable
    unreachable = ~forms[0].b[fixed]
    bins = np.array([forms[0].b[fixed], unreachable])
    (_, hit, _), (owner, keys, probs) = assert_equals_the_oracle(
        forms[:1], fixed, bins, order[40:]
    )
    assert len(hit) == 1 and len(owner) == len(keys) == len(probs) == 0
    assert conditioned_marginals(forms, fixed, bins[:0], order[40:]) == []

