"""Per-level conditioned tomography against its slow twin.

The recursive engine builds every frontier bin's conditioned tensors from
one visit per variant (:func:`build_conditioned_window_tensors`), each on
its support.  The algorithm it replaced — one ``joint`` per bin per Pauli
combination, enumerate-then-filter on the fixed bits, a dense tensor per
bin — lives on here as the oracle, and the builder's yield, scattered into
zeros, must reproduce it over random Clifford fragments.  The recursive
driver's level builder has a twin too: the dense top window
(:func:`repro.testing.reconstruction.dense_unpinned_level_builder`), where
every fragment with nothing pinned, a Clifford one included, has one dense
tensor per level; the reconstructions must agree bit for bit.
The regressions further down pin what the rewrite was for: cost that
follows the window rather than the fragment's entropy, memory that
follows one level rather than the whole recursion, typed refusals, and
pool-independent results.
"""

import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.distributions import pack_bit_rows
from repro.circuits import Circuit, gates
from repro.core import (
    ExecutionConfig,
    ReconstructionConfig,
    ReconstructionMemoryError,
    SamplingConfig,
    SuperSim,
)
from repro.core.evaluator import DenseVariantData, FragmentData, SampledVariantData
from repro.core.fragments import Fragment
from repro.core.tomography import (
    _contract_prep_axes,
    build_conditioned_fragment_tensor,
    build_conditioned_window_tensors,
    build_fragment_tensor,
)
from repro.core.variants import BASIS_FOR_PAULI, all_variants, variant_circuit
from repro.errors import ReproError
from repro.stabilizer import StabilizerSimulator
from repro.stabilizer.tableau import AffineOutcomeDistribution, PauliMap
from repro.core.reconstruction import SupportTensor
from repro.testing.reconstruction import dense_tensor, dense_unpinned_level_builder
from repro.testing.tomography import AffineVariantData

EXACT = SuperSim()


# -- the oracle: the per-bin, per-Pauli-combination builder this PR replaced --


def _oracle_signed_vector(dist, n_kept, fixed_bits, qo, signs_mask):
    """The signed sum over kept outcomes of a (kept + fixed + measured) joint,
    counting only outcomes whose middle bits equal ``fixed_bits``."""
    nf = len(fixed_bits)
    probs = dist.values_array
    if dist.n_bits <= 62 and not dist.chunked:
        outcomes = dist.keys_array.astype(np.int64)
        x_key = outcomes >> (nf + qo)
        if nf:
            fixed_key = 0
            for bit in fixed_bits:
                fixed_key = (fixed_key << 1) | bit
            match = ((outcomes >> qo) & ((1 << nf) - 1)) == fixed_key
            outcomes = outcomes[match]
            probs = probs[match]
            x_key = x_key[match]
        sign = np.ones(len(probs))
        if signs_mask:
            m_bits = outcomes & ((1 << qo) - 1)
            parity = np.zeros(len(probs), dtype=np.int64)
            for j in signs_mask:
                parity ^= (m_bits >> (qo - 1 - j)) & 1
            sign = 1.0 - 2.0 * parity
        x_key = x_key.astype(np.int64)
    else:
        bits = dist.bit_matrix()
        if nf:
            target = np.asarray(fixed_bits, dtype=bool)
            match = (bits[:, n_kept : n_kept + nf] == target).all(axis=1)
            bits = bits[match]
            probs = probs[match]
        if n_kept:
            x_key = pack_bit_rows(bits[:, :n_kept]).astype(np.int64)
        else:
            x_key = np.zeros(len(probs), dtype=np.int64)
        sign = np.ones(len(probs))
        if signs_mask:
            m_block = bits[:, n_kept + nf :]
            parity = np.zeros(len(probs), dtype=np.int64)
            for j in signs_mask:
                parity ^= m_block[:, j].astype(np.int64)
            sign = 1.0 - 2.0 * parity
    return np.bincount(x_key, weights=probs * sign, minlength=2**n_kept)


def oracle_conditioned_tensor(data, keep_locals, fixed_locals):
    fragment = data.fragment
    qi = len(fragment.quantum_inputs)
    qo = len(fragment.quantum_outputs)
    out_cols = [lq for _cut, lq in fragment.quantum_outputs]
    keep_cols = list(keep_locals)
    fixed_cols = sorted(fixed_locals)
    fixed_bits = [int(fixed_locals[c]) for c in fixed_cols]
    n_kept = len(keep_cols)

    raw = np.zeros((4,) * qi + (4,) * qo + (2**n_kept,))
    for preps in itertools.product(range(4), repeat=qi):
        for pauli_out in itertools.product(range(4), repeat=qo):
            bases = tuple(BASIS_FOR_PAULI[p] for p in pauli_out)
            dist = data.variant(preps, bases).joint(keep_cols + fixed_cols + out_cols)
            signs_mask = [j for j, p in enumerate(pauli_out) if p != 0]
            raw[preps + pauli_out] = _oracle_signed_vector(
                dist, n_kept, fixed_bits, qo, signs_mask
            )
    return _contract_prep_axes(raw[None], qi)[0]


# -- random Clifford fragments ------------------------------------------------


def _random_fragment(rng, n, qi, qo, n_h):
    """A Clifford fragment of ``n`` qubits whose outcomes have at most
    ``n_h`` bits of entropy (so the oracle can enumerate them)."""
    circuit = Circuit(n)
    for q in rng.choice(n, size=min(n_h, n), replace=False):
        circuit.append(gates.H, int(q))
    for _ in range(3 * n):
        kind = int(rng.integers(0, 4))
        a = int(rng.integers(0, n))
        if kind == 0 and n > 1:
            b = int(rng.integers(0, n - 1))
            circuit.append(gates.CX, a, b + (b >= a))
        elif kind == 1:
            circuit.append(gates.S, a)
        elif kind == 2:
            circuit.append(gates.X, a)
        else:
            circuit.append(gates.Z, a)
    order = [int(q) for q in rng.permutation(n)]
    q_out = order[:qo]
    q_in = [int(q) for q in rng.choice(n, size=qi, replace=False)]
    return Fragment(
        index=0,
        circuit=circuit,
        circuit_inputs=[q for q in range(n) if q not in q_in],
        quantum_inputs=[(10 + j, q) for j, q in enumerate(q_in)],
        quantum_outputs=[(20 + j, q) for j, q in enumerate(q_out)],
        circuit_outputs=[(q, q) for q in sorted(order[qo:])],
    )


def _fragment_data(fragment, kind, rng):
    if kind == "map":  # the engine's: one backward walk of the body
        return FragmentData(fragment, {}, PauliMap(fragment.circuit, *fragment.cut_wires))
    sim = StabilizerSimulator()
    results = {}
    for preps, bases in all_variants(fragment):
        affine = sim.affine_distribution(variant_circuit(fragment, preps, bases))
        if kind == "affine":
            results[preps, bases] = AffineVariantData(affine)
        elif kind == "dense":
            results[preps, bases] = DenseVariantData(affine.to_distribution())
        else:
            results[preps, bases] = SampledVariantData(affine.sample_words(300, rng), 300)
    return FragmentData(fragment, results)


def _frontier(data, fixed_cols, rng):
    """Bins worth asking for: rows that occur (taken from a variant's
    support), a duplicate, and a random row that mostly does not occur."""
    variant = next(iter(data.results.values()))
    seen = variant.joint(fixed_cols).bit_matrix()
    rows = [seen[int(rng.integers(0, len(seen)))] for _ in range(3)]
    rows.append(rows[0])
    rows.append(rng.integers(0, 2, size=len(fixed_cols)).astype(bool))
    return np.array(rows, dtype=bool).reshape(len(rows), len(fixed_cols))


def _scattered(tensor, width):
    """The dense ``(4,)*(qi+qo) + (2**width,)`` array an on-support tensor
    stands for: its values at the support's columns, zero elsewhere."""
    values, support = tensor
    assert values.shape[-1] == len(support)
    assert np.all(support[:-1] < support[1:])  # sorted, unique
    return dense_tensor(tensor, width)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    qi=st.integers(0, 2),
    qo=st.integers(0, 2),
    width=st.sampled_from([0, 1, 5, 12]),
    n_fixed=st.sampled_from([0, 1, 7, 30, 48, 60]),
    kind=st.sampled_from(["map", "affine", "dense", "sampled"]),
)
def test_level_builder_equals_the_per_bin_oracle(seed, qi, qo, width, n_fixed, kind):
    rng = np.random.default_rng(seed)
    n = max(qi, qo + width + n_fixed + int(rng.integers(1, 4)))
    fragment = _random_fragment(rng, n, qi, qo, n_h=int(rng.integers(0, 7)))
    data = _fragment_data(fragment, kind, rng)
    # the oracle reads variants: the map's are spelled out
    variants = _fragment_data(fragment, "affine", rng) if kind == "map" else data
    outputs = [int(q) for q in rng.permutation([lq for _oq, lq in fragment.circuit_outputs])]
    keep = outputs[:width]
    fixed_cols = outputs[width : width + n_fixed]
    rows = _frontier(variants, fixed_cols, rng)

    tensors = [
        _scattered(tensor, width)
        for tensor in build_conditioned_window_tensors(data, keep, fixed_cols, rows)
    ]
    assert len(tensors) == len(rows)
    one_bin = _scattered(
        build_conditioned_fragment_tensor(
            data, keep, dict(zip(fixed_cols, rows[1].tolist()))
        ),
        width,
    )
    for row, tensor in zip(rows, tensors):
        pinned = dict(zip(fixed_cols, row.tolist()))
        want = oracle_conditioned_tensor(variants, keep, pinned)
        assert tensor.shape == want.shape == (4,) * (qi + qo) + (2**width,)
        if kind == "sampled":
            np.testing.assert_allclose(tensor, want, rtol=0, atol=1e-12)
        else:
            assert np.array_equal(tensor, want)
    assert np.array_equal(tensors[0], tensors[3])  # the duplicate bin
    assert np.array_equal(one_bin, tensors[1])  # the frontier of one


@pytest.mark.parametrize("kind", ["map", "affine", "dense", "sampled"])
def test_nothing_pinned_is_the_dense_builder_on_its_support(kind):
    """No pinned column: the sparse builder of ``sparse_probabilities``."""
    sparse = 0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        qi, qo = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        width = int(rng.integers(0, 9))
        fragment = _random_fragment(rng, qo + width + 2, qi, qo, n_h=int(rng.integers(0, 5)))
        data = _fragment_data(fragment, kind, rng)
        outputs = [lq for _oq, lq in fragment.circuit_outputs]
        keep = [int(q) for q in rng.permutation(outputs)][:width]
        (tensor,) = build_conditioned_window_tensors(data, keep, [], [[]])
        dense = build_fragment_tensor(data, keep)
        # the same signed sums in the same order: not merely close
        assert np.array_equal(_scattered(tensor, width), dense)
        assert np.array_equal(tensor.values, dense[..., tensor.support])
        sparse += len(tensor.support) < 2**width
    assert sparse >= 3


@pytest.mark.parametrize("kind", ["map", "affine", "dense", "sampled"])
def test_an_assignment_that_cannot_occur_gives_the_zero_tensor(kind):
    # qubit 2 is never touched: it reads 0 in every variant
    circuit = Circuit(4).append(gates.H, 0).append(gates.CX, 0, 1)
    fragment = Fragment(
        index=0,
        circuit=circuit,
        circuit_inputs=[0, 2, 3],
        quantum_inputs=[(0, 1)],
        quantum_outputs=[(1, 3)],
        circuit_outputs=[(0, 0), (1, 1), (2, 2)],
    )
    data = _fragment_data(fragment, kind, np.random.default_rng(0))
    possible, impossible = build_conditioned_window_tensors(
        data, [0], [1, 2], [[0, 0], [0, 1]]
    )
    assert np.abs(possible.values).max() > 0
    assert len(possible.support) > 0
    # nothing was seen with it: an empty support, the zero tensor
    assert impossible.values.shape == (4, 4, 0) and len(impossible.support) == 0
    assert not _scattered(impossible, 1).any()


# -- cost follows the window, not the fragment's entropy ----------------------


def _high_entropy(n):
    """H everywhere + CX chain: every one of the ``2**n`` outcomes occurs."""
    circuit = Circuit(n)
    for q in range(n):
        circuit.append(gates.H, q)
    for q in range(n - 1):
        circuit.append(gates.CX, q, q + 1)
    circuit.append(gates.XPow(0.25), n // 2)
    for q in range(0, n - 1, 2):
        circuit.append(gates.CX, q, q + 1)
    return circuit.measure_all()


def _recursive(top_k=4, **overrides):
    return SuperSim(
        reconstruction=ReconstructionConfig(
            mode="recursive", qubit_limit=8, top_k=top_k, **overrides
        ),
        # a 2**-40 bin is below the default zero threshold
        execution=ExecutionConfig(prune_zeros=False),
    )


@pytest.mark.parametrize("n", [16, 20])
def test_high_entropy_recursive_bins_equal_the_dense_ones(n):
    circuit = _high_entropy(n)
    result = _recursive().run(circuit)
    dense = SuperSim(reconstruction=ReconstructionConfig(mode="full")).run(circuit)
    assert len(result.distribution) == 4
    for outcome, prob in result.distribution:
        assert prob == pytest.approx(dense.distribution[outcome], abs=1e-12)
    assert result.covered_probability == pytest.approx(
        result.distribution.total(), abs=1e-15
    )


@pytest.mark.parametrize("n", [30, 40])
def test_high_entropy_recursive_finishes_in_seconds(n):
    circuit = _high_entropy(n)
    start = time.perf_counter()
    result = _recursive().run(circuit)
    assert time.perf_counter() - start < 10.0
    assert len(result.distribution) == 4
    assert result.covered_probability == pytest.approx(
        result.distribution.total(), abs=1e-18
    )
    # every bin is the exact joint probability of its 30/40 bits ...
    for outcome, prob in result.distribution:
        bits = [(outcome >> (n - 1 - q)) & 1 for q in range(n)]
        assert prob == pytest.approx(EXACT.probability_of(circuit, bits), rel=1e-9)
    # ... and the coarse level is the exact first-window marginal
    first_window = list(circuit.measured_qubits)[:8]
    coarse = _recursive(top_k=256).run(circuit, keep_qubits=first_window)
    coarse = coarse.raw_distribution
    windowed = SuperSim(
        reconstruction=ReconstructionConfig(mode="windowed", qubit_limit=8)
    ).run(circuit)
    assert coarse.n_bits == 8
    for outcome, prob in windowed.distribution:
        assert coarse[outcome] == pytest.approx(prob, abs=1e-12)
    for outcome, _prob in result.distribution:
        assert windowed.distribution[outcome >> (n - 8)] > 0


def test_over_limit_enumerations_are_refused_typed_and_at_once():
    uniform = AffineOutcomeDistribution(np.eye(30, dtype=bool), np.zeros(30, dtype=bool))
    start = time.perf_counter()
    with pytest.raises(ReconstructionMemoryError, match="2\\^30"):
        uniform.marginal_distribution(list(range(30)))
    with pytest.raises(ReconstructionMemoryError):
        AffineVariantData(uniform).joint(list(range(26)))
    # a Clifford fragment's map: a 28-bit window past two pinned bits
    circuit = Circuit(30)
    for q in range(30):
        circuit.append(gates.H, q)
    fragment = Fragment(index=0, circuit=circuit, circuit_outputs=[(q, q) for q in range(30)])
    data = _fragment_data(fragment, "map", None)
    with pytest.raises(ReconstructionMemoryError, match="2\\^28"):
        next(
            build_conditioned_window_tensors(
                data, list(range(2, 30)), [0, 1], [[0, 1]], max_dense_bits=None
            )
        )
    assert time.perf_counter() - start < 1.0
    assert issubclass(ReconstructionMemoryError, MemoryError)
    assert issubclass(ReconstructionMemoryError, ReproError)
    # conditioning itself has no such wall: 28 pinned bits, 2 enumerated
    (tensor,) = build_conditioned_window_tensors(data, [28, 29], list(range(28)), [[1] * 28])
    assert tensor.support.tolist() == [0, 1, 2, 3]
    assert tensor.values.tolist() == [2.0**-30] * 4


# -- memory follows one level, not top_k x levels -----------------------------


def _chain(n, rotated, opened=(0,), pairs=True):
    """A CX chain: an H on each of ``opened``, the chain, ``XPow(1/4)`` on
    each of ``rotated``, then (``pairs``) a CX on every even pair."""
    circuit = Circuit(n)
    for q in opened:
        circuit.append(gates.H, q)
    for q in range(n - 1):
        circuit.append(gates.CX, q, q + 1)
    for q in rotated:
        circuit.append(gates.XPow(0.25), q)
    if pairs:
        for q in range(0, n - 1, 2):
            circuit.append(gates.CX, q, q + 1)
    return circuit.measure_all()


def _wide61():
    return _chain(61, rotated=(27, 33))


def _traced_peak(circuit, qubit_limit, top_k):
    """(peak bytes allocated during reconstruction, bytes of the largest
    window tensor, windows contracted)."""
    from repro.core.reconstruction import reconstruct_dynamic

    sim = SuperSim()
    cc = sim.cut(circuit)
    fragment_evaluator = sim._evaluator()
    data = fragment_evaluator.evaluate_all(cc.fragments)
    builder = sim._dynamic_tensor_builder(cc, data, fragment_evaluator)
    window_tensor = max(
        8 * 4 ** (len(f.quantum_inputs) + len(f.quantum_outputs)) * 2**qubit_limit
        for f in cc.fragments
    )
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        dist, stats = reconstruct_dynamic(
            cc, builder, list(range(61)), qubit_limit=qubit_limit, top_k=top_k
        )
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, after - before, window_tensor, stats.windows


def test_recursive_peak_allocation_is_a_few_window_tensors():
    circuit = _wide61()
    _traced_peak(circuit, 10, 1)  # warm-up: the one-off caches fill here
    narrow_peak, narrow_kept, tensor, narrow_windows = _traced_peak(circuit, 10, 1)
    wide_peak, wide_kept, _, wide_windows = _traced_peak(circuit, 10, 64)
    wider_peak, _, wider_tensor, _ = _traced_peak(circuit, 12, 64)
    # a beam of 1 vs all 8 outcomes, over 7 levels: 4x the tensors built ...
    assert wide_windows >= 4 * narrow_windows
    # ... and no dense window tensor at any level, the top one included:
    # the Clifford fragment lives on its support, a few keys per bin
    assert narrow_peak < tensor / 2
    assert wide_peak < tensor / 2
    # so the peak follows the supports, not 2**qubit_limit: a 4x wider
    # window tensor, the same peak
    assert wider_tensor == 4 * tensor
    assert wider_peak < 1.1 * wide_peak
    # and nothing window-sized outlives the reconstruction
    assert narrow_kept < tensor / 4
    assert wide_kept < tensor / 4


# -- the dense top window as the level builder's slow twin ---------------------


def _split_ghz():
    """Two GHZ halves joined through one ``XPow(1/4)`` on wire 5: the left
    Clifford fragment holds outputs 0-4, the right one 5-11."""
    circuit = Circuit(12).append(gates.H, 0)
    for q in range(5):
        circuit.append(gates.CX, q, q + 1)
    circuit.append(gates.XPow(0.25), 5)
    for q in range(5, 11):
        circuit.append(gates.CX, q, q + 1)
    return circuit.measure_all()


def _late_t():
    """A GHZ chain whose wire 3 ends in ``T H T``: the last T's fragment
    is non-Clifford and holds output 3."""
    circuit = Circuit(8).append(gates.H, 0)
    for q in range(7):
        circuit.append(gates.CX, q, q + 1)
    circuit.append(gates.T, 3).append(gates.H, 3).append(gates.T, 3)
    return circuit.measure_all()


def _twin_runs(circuit, keep, qubit_limit, top_k):
    """``(cut circuit, data, production run, oracle run)``, each run a
    :func:`reconstruct_dynamic` ``(distribution, stats)``."""
    from repro.core.reconstruction import reconstruct_dynamic

    cc = EXACT.cut(circuit)
    fragment_evaluator = EXACT._evaluator()
    data = fragment_evaluator.evaluate_all(cc.fragments)
    runs = [
        reconstruct_dynamic(
            cc, builder, keep, qubit_limit=qubit_limit, top_k=top_k
        )
        for builder in (
            EXACT._dynamic_tensor_builder(cc, data, fragment_evaluator),
            dense_unpinned_level_builder(cc, data),
        )
    ]
    return cc, data, *runs


def _level_tensors(cc, data, window, fixed_qubits=(), fixed_rows=((),)):
    """The production builder's tensors for the first bin of one level."""
    builder = EXACT._dynamic_tensor_builder(cc, data, EXACT._evaluator())
    rows = np.array(fixed_rows, dtype=bool).reshape(len(fixed_rows), -1)
    tensors, _kept = next(builder(list(window), list(fixed_qubits), rows))
    return tensors


@pytest.mark.parametrize(
    "case",
    ["wide31-top1", "wide31-top64", "unpinned-later", "full-support", "late-t"],
)
def test_level_builder_equals_the_dense_top_window(case):
    """Reading every Clifford fragment on its support changes no bit of a
    recursive reconstruction, only the size of its contractions."""
    if case.startswith("wide31"):
        circuit = _chain(31, rotated=(13, 18))
        keep, qubit_limit, top_k = list(range(31)), 8, int(case[len("wide31-top"):])
    elif case == "unpinned-later":
        circuit = _split_ghz()
        keep, qubit_limit, top_k = [0, 1, 2, 5, 3, 4, 6, 7, 8, 9, 10, 11], 3, 64
    elif case == "full-support":
        # |+>^8 is left alone by every CX: the support is full
        circuit = _chain(8, rotated=(4,), opened=range(8), pairs=False)
        keep, qubit_limit, top_k = list(range(8)), 3, 64
    else:
        circuit = _late_t()
        keep, qubit_limit, top_k = [3, 0, 1, 2, 4, 5, 6, 7], 3, 64
    cc, data, (got, got_stats), (want, want_stats) = _twin_runs(
        circuit, keep, qubit_limit, top_k
    )
    assert got.keys_array.tobytes() == want.keys_array.tobytes()
    assert got.values_array.tobytes() == want.values_array.tobytes()
    assert got_stats.windows == want_stats.windows
    assert got_stats.covered_probability == want_stats.covered_probability
    assert got_stats.peak_window_entries <= want_stats.peak_window_entries

    is_map = [d.pauli_map is not None for d in data]
    top = _level_tensors(cc, data, keep[:qubit_limit])
    # every Clifford fragment is on its support, the top window's too
    assert all(isinstance(t, SupportTensor) for t, m in zip(top, is_map) if m)
    if case == "unpinned-later":
        # the second window holds output 5 of the right half, which the
        # first window left unpinned: read on its support all the same
        outputs = [{oq for oq, _ in f.circuit_outputs} for f in cc.fragments]
        right = next(i for i, o in enumerate(outputs) if 5 in o and is_map[i])
        assert not outputs[right] & set(keep[:qubit_limit])
        tensors = _level_tensors(
            cc, data, keep[qubit_limit : 2 * qubit_limit], keep[:qubit_limit], [[0] * 3]
        )
        assert isinstance(tensors[right], SupportTensor)
    if case == "full-support":
        (clifford,) = [t for t, m in zip(top, is_map) if m]
        assert len(clifford.support) == 2**qubit_limit
    if case == "late-t":
        # the non-Clifford fragment holding output 3 stays dense
        (late,) = [
            i for i, f in enumerate(cc.fragments)
            if not is_map[i] and any(oq == 3 for oq, _ in f.circuit_outputs)
        ]
        assert isinstance(top[late], np.ndarray)
        assert top[late].shape[-1] == 2


# -- one answer under every pool ----------------------------------------------


def _pool_results(circuit, sampling, reconstruction):
    results = []
    for parallel, pool in ((1, "thread"), (2, "thread"), (2, "process")):
        sim = SuperSim(
            sampling=sampling,
            reconstruction=reconstruction,
            execution=ExecutionConfig(parallel=parallel, pool=pool),
        )
        results.append(sim.run(circuit))
        sim.close()
    return results


@pytest.mark.parametrize(
    "sampling",
    [SamplingConfig(), SamplingConfig(shots=2000, seed=5)],
    ids=["exact", "sampled"],
)
def test_61q_recursive_is_bit_identical_under_every_pool(sampling):
    reconstruction = ReconstructionConfig(qubit_limit=12, top_k=8)
    serial, threads, processes = _pool_results(_wide61(), sampling, reconstruction)
    assert serial.reconstruction_mode == "recursive"
    for other in (threads, processes):
        assert np.array_equal(
            serial.raw_distribution.keys_array, other.raw_distribution.keys_array
        )
        assert np.array_equal(
            serial.raw_distribution.values_array, other.raw_distribution.values_array
        )
        assert serial.covered_probability == other.covered_probability
