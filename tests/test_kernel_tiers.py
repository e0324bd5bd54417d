"""The NumPy kernels against independent oracles, and kernel accounting.

``apply_layers`` is checked against explicit matrix conjugation of each
row's Pauli, ``row_mul`` against a per-qubit product of Pauli matrices
(both are also checked end to end against the byte-per-bit
``ReferenceTableau`` in ``tests/test_packed_equivalence.py``); the
remaining kernels are checked against plain integer, per-bit or
per-element Python/NumPy computations.  The counters every
:class:`~repro.kernels.Kernel` keeps are what ``SuperSimResult.timings``
and the benchmark ledger read.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as rk
from repro.kernels import registry


# -- strategies ---------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _rng(seed):
    return np.random.default_rng(seed)


# -- bit_gather ---------------------------------------------------------------


@given(seed=seeds, n=st.integers(0, 200), nbits=st.integers(1, 64))
@settings(max_examples=40, deadline=None)
def test_bit_gather_parity(seed, n, nbits):
    rng = _rng(seed)
    keys = rng.integers(0, 1 << min(nbits, 63), size=n, dtype=np.uint64)
    nk = rng.integers(1, nbits + 1)
    srcs = rng.choice(nbits, size=nk, replace=False).astype(np.uint64)
    dsts = np.arange(nk - 1, -1, -1, dtype=np.uint64)
    expected = [
        sum(((int(key) >> int(s)) & 1) << int(d) for s, d in zip(srcs, dsts))
        for key in keys
    ]
    assert rk.bit_gather(keys, srcs, dsts).tolist() == expected


# -- inverse_cdf_indices ------------------------------------------------------


@given(seed=seeds, m=st.integers(1, 50), shots=st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_inverse_cdf_parity(seed, m, shots):
    rng = _rng(seed)
    weights = rng.random(m) + 1e-9
    cdf = np.cumsum(weights)
    uniforms = np.sort(rng.random(shots)) * cdf[-1]
    # side-right search: the number of CDF entries at or below u, clamped
    expected = [min(int((cdf <= u).sum()), m - 1) for u in uniforms]
    assert rk.inverse_cdf_indices(cdf, uniforms).tolist() == expected


def test_inverse_cdf_clamps_total_mass_hit():
    # a uniform exactly equal to the total mass must not index past the
    # support
    cdf = np.array([0.25, 0.5, 1.0])
    uniforms = np.array([1.0])
    assert rk.inverse_cdf_indices(cdf, uniforms).tolist() == [2]


# -- Pauli-matrix oracle --------------------------------------------------------

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _pauli(x, z):
    """The Hermitian single-qubit Pauli ``i^(x*z) X^x Z^z``."""
    m = _I2
    if x:
        m = m @ _X
    if z:
        m = m @ _Z
    return (1j if x and z else 1) * m


def _kron_paulis(bits):
    m = np.eye(1, dtype=complex)
    for x, z in bits:
        m = np.kron(m, _pauli(x, z))
    return m


_GATES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.diag([1, 1j]),
    "X": _X,
    "Z": _Z,
    "Y": 1j * _X @ _Z,
    # control first, target second (kron order of _kron_paulis)
    "CX": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}


def _conjugate(name, bits):
    """``U P U^dagger`` for Pauli ``bits`` on the gate's qubits -> (bits, flip)."""
    u = _GATES[name]
    image = u @ _kron_paulis(bits) @ u.conj().T
    width = len(bits)
    for code in range(4**width):
        cand = [((code >> (2 * i)) & 1, (code >> (2 * i + 1)) & 1) for i in range(width)]
        p = _kron_paulis(cand)
        if np.allclose(image, p):
            return cand, 0
        if np.allclose(image, -p):
            return cand, 1
    raise AssertionError("conjugate of a Pauli is not a Pauli")


def _oracle_apply_layers(layers, x, z, sign):
    """Row by row, gate by gate: conjugate each row's Pauli by the gate."""
    words, n_qubits = x.shape
    x, z, sign = x.copy(), z.copy(), sign.copy()
    for w in range(words):
        for b in range(64):
            bit = np.uint64(1) << np.uint64(b)
            xr = [bool(x[w, q] & bit) for q in range(n_qubits)]
            zr = [bool(z[w, q] & bit) for q in range(n_qubits)]
            s = bool(sign[w] & bit)
            for name, qarr in layers:
                for qs in qarr.tolist():
                    out, flip = _conjugate(name, [(xr[q], zr[q]) for q in qs])
                    s ^= bool(flip)
                    for q, (xq, zq) in zip(qs, out):
                        xr[q], zr[q] = bool(xq), bool(zq)
            for q in range(n_qubits):
                x[w, q] = (x[w, q] & ~bit) | (bit if xr[q] else np.uint64(0))
                z[w, q] = (z[w, q] & ~bit) | (bit if zr[q] else np.uint64(0))
            sign[w] = (sign[w] & ~bit) | (bit if s else np.uint64(0))
    return x, z, sign


# -- apply_layers (row-packed Clifford layers) --------------------------------


def _random_layers(rng, n_qubits, n_layers, names=("CX", "H", "S", "X", "Z", "Y")):
    layers = []
    for _ in range(n_layers):
        name = names[rng.integers(0, len(names))]
        width = 2 if name == "CX" else 1
        max_gates = n_qubits // width
        count = int(rng.integers(1, max_gates + 1))
        qubits = rng.choice(n_qubits, size=count * width, replace=False)
        layers.append((name, qubits.reshape(count, width).astype(np.int64)))
    return layers


def _check_apply_layers(rng, layers, n_qubits, words):
    x0 = rng.integers(0, 2**63, size=(words, n_qubits), dtype=np.uint64)
    z0 = rng.integers(0, 2**63, size=(words, n_qubits), dtype=np.uint64)
    s0 = rng.integers(0, 2**63, size=words, dtype=np.uint64)
    x_ref, z_ref, s_ref = _oracle_apply_layers(layers, x0, z0, s0)
    x, z, s = x0.copy(), z0.copy(), s0.copy()
    rk.apply_layers(layers, x, z, s)
    assert np.array_equal(x, x_ref)
    assert np.array_equal(z, z_ref)
    assert np.array_equal(s, s_ref)


@given(
    seed=seeds,
    n_qubits=st.integers(2, 8),
    words=st.integers(1, 2),
    n_layers=st.integers(1, 4),
)
@settings(max_examples=10, deadline=None)
def test_apply_layers_parity(seed, n_qubits, words, n_layers):
    rng = _rng(seed)
    layers = _random_layers(rng, n_qubits, n_layers)
    _check_apply_layers(rng, layers, n_qubits, words)


@pytest.mark.parametrize("name", sorted(_GATES))
def test_apply_layers_gate_matches_matrix_conjugation(name):
    # one layer of a single gate kind, so every conjugation rule is
    # exercised on its own against the matrix oracle
    rng = _rng(sorted(_GATES).index(name))
    layers = _random_layers(rng, 6, 1, names=(name,))
    _check_apply_layers(rng, layers, 6, 1)


# -- row_mul (tableau row products) -------------------------------------------


def _pauli_product_phase():
    """``pauli(a) @ pauli(b) = i^k pauli(a ^ b)``: table of k per (a, b)."""
    table = {}
    for a in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        for b in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            prod = _pauli(*a) @ _pauli(*b)
            ref = _pauli(a[0] ^ b[0], a[1] ^ b[1])
            for k in range(4):
                if np.allclose(prod, (1j**k) * ref):
                    table[a, b] = k
    return table


_PHASE = _pauli_product_phase()


def _row_bits(x, z, row, n_qubits):
    return [
        (int(x[row, q // 64] >> np.uint64(q % 64)) & 1,
         int(z[row, q // 64] >> np.uint64(q % 64)) & 1)
        for q in range(n_qubits)
    ]


@given(
    seed=seeds,
    rows=st.integers(2, 24),
    words=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_row_mul_parity(seed, rows, words):
    rng = _rng(seed)
    x0 = rng.integers(0, 2**63, size=(rows, words), dtype=np.uint64)
    z0 = rng.integers(0, 2**63, size=(rows, words), dtype=np.uint64)
    s0 = rng.integers(0, 2, size=rows).astype(bool)
    source = int(rng.integers(0, rows))
    others = np.array([r for r in range(rows) if r != source])
    n_targets = int(rng.integers(1, len(others) + 1))
    targets = rng.choice(others, size=n_targets, replace=False)
    x, z, s = x0.copy(), z0.copy(), s0.copy()
    rk.row_mul(x, z, s, targets, source)
    n_qubits = 64 * words
    src = _row_bits(x0, z0, source, n_qubits)
    for t in targets:
        tgt = _row_bits(x0, z0, t, n_qubits)
        assert np.array_equal(x[t], x0[source] ^ x0[t])
        assert np.array_equal(z[t], z0[source] ^ z0[t])
        k = sum(_PHASE[a, b] for a, b in zip(src, tgt)) % 4
        if k % 2 == 0:  # commuting rows: the product is a signed Pauli
            assert s[t] == (s0[source] ^ s0[t] ^ (k == 2))
    untouched = np.setdiff1d(np.arange(rows), targets)
    assert np.array_equal(x[untouched], x0[untouched])
    assert np.array_equal(s[untouched], s0[untouched])


def _parse_row(text):
    sign = text.startswith("-")
    letters = text.lstrip("+-")
    bits = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
    x = sum(bits[c][0] << q for q, c in enumerate(letters))
    z = sum(bits[c][1] << q for q, c in enumerate(letters))
    return x, z, sign


@pytest.mark.parametrize(
    "source, target, product",
    [
        ("XX", "ZZ", "-YY"),
        ("YY", "XX", "-ZZ"),
        ("ZZ", "YY", "-XX"),
        ("XZ", "ZX", "+YY"),
        ("-XZ", "ZX", "-YY"),
    ],
)
def test_row_mul_two_qubit_products(source, target, product):
    # hand-worked products: (XZ)(XZ) = (-iY)(-iY) = -YY and so on
    rows = [_parse_row(source), _parse_row(target)]
    x = np.array([[r[0]] for r in rows], dtype=np.uint64)
    z = np.array([[r[1]] for r in rows], dtype=np.uint64)
    s = np.array([r[2] for r in rows])
    rk.row_mul(x, z, s, np.array([1]), 0)
    want_x, want_z, want_s = _parse_row(product)
    assert (int(x[1, 0]), int(z[1, 0]), bool(s[1])) == (want_x, want_z, want_s)


# -- dense_contract (float accumulation: 1e-12) --------------------------------


@given(seed=seeds, k=st.integers(1, 3), kept=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_dense_contract_matches_plain_einsum(seed, k, kept):
    rng = _rng(seed)
    # two fragments sharing all k cut axes, each with its own kept axis
    t0 = rng.standard_normal((4,) * k + (2**kept,))
    t1 = rng.standard_normal((4,) * k + (2**kept,))
    subs = list(range(k))
    operands = [t0, subs + [k], t1, subs + [k + 1], [k, k + 1]]
    expected = np.einsum(t0, subs + [k], t1, subs + [k + 1], [k, k + 1])
    path = np.einsum_path(*operands, optimize="greedy")[0]
    got = rk.dense_contract(operands, path)
    np.testing.assert_allclose(got, expected, atol=1e-12)


# -- accounting ---------------------------------------------------------------


class TestDispatch:
    def test_numpy_always_available(self):
        assert rk.active_tier() == "numpy"
        assert set(rk.all_kernels()) == {
            "apply_layers",
            "row_mul",
            "bit_gather",
            "inverse_cdf_indices",
            "dense_contract",
        }

    def test_counters_accumulate(self):
        snap = rk.counters_snapshot()
        keys = np.arange(4, dtype=np.uint64)
        rk.bit_gather(keys, np.array([0], dtype=np.uint64), np.array([0], dtype=np.uint64))
        delta = rk.timings_since(snap)
        assert "bit_gather" in delta
        assert delta["bit_gather"] >= 0.0
        assert "row_mul" not in delta


class TestRegistry:
    @pytest.fixture(autouse=True)
    def _private_registry(self, monkeypatch):
        monkeypatch.setattr(registry, "_KERNELS", dict(registry._KERNELS))

    def test_decorator_registers_a_counting_kernel(self):
        @registry.kernel("test_increment")
        def increment(v):
            return v + 1

        assert isinstance(increment, rk.Kernel)
        assert rk.get_kernel("test_increment") is increment
        snap = rk.counters_snapshot()
        assert snap["test_increment"] == (0, 0.0)
        assert increment(41) == 42
        assert increment.calls == 1
        assert set(rk.timings_since(snap)) == {"test_increment"}

    def test_a_raising_kernel_propagates_and_is_counted(self):
        @registry.kernel("test_divide")
        def divide(v):
            return v / 0

        with pytest.raises(ZeroDivisionError):
            divide(1)
        assert divide.calls == 1
        assert rk.get_kernel("test_divide") is divide

    def test_unknown_kernel_name_raises(self):
        with pytest.raises(KeyError):
            rk.get_kernel("no_such_kernel")

    def test_module_level_names_are_the_registered_kernels(self):
        for name, entry in rk.all_kernels().items():
            assert getattr(rk, name) is entry
            assert entry.name == name


# -- calibration fingerprint --------------------------------------------------


class TestFingerprint:
    def test_fingerprint_embeds_active_tier(self):
        from repro.backends.calibration import host_fingerprint

        assert rk.active_tier() == "numpy"
        assert host_fingerprint().endswith("|kernels=numpy")


# -- end to end ----------------------------------------------------------------


def _run_supersim(seed):
    from repro.circuits import gates
    from repro.circuits.circuit import Circuit
    from repro.core.config import SamplingConfig
    from repro.core.supersim import SuperSim

    c = Circuit(4)
    c.append(gates.H, 0).append(gates.CX, 0, 1).append(gates.T, 1)
    c.append(gates.CX, 1, 2).append(gates.H, 2).append(gates.CX, 2, 3)
    sim = SuperSim(sampling=SamplingConfig(shots=256, seed=seed))
    return sim.run(c)


class TestEndToEnd:
    def test_seeded_run_is_reproducible(self):
        first = _run_supersim(seed=7)
        second = _run_supersim(seed=7)
        assert first.distribution.probs == second.distribution.probs

    def test_result_records_tier_and_kernel_timings(self):
        result = _run_supersim(seed=3)
        kernel_keys = [
            key for key in result.timings if key.startswith("kernel.")
        ]
        assert kernel_keys, "no per-kernel timings recorded"
        assert all(result.timings[key] >= 0.0 for key in kernel_keys)


# -- einsum path cache --------------------------------------------------------


class TestPathCache:
    def test_repeated_contraction_hits_cache(self):
        from repro.core import reconstruction as rec
        from repro.circuits import gates
        from repro.circuits.circuit import Circuit
        from repro.core.supersim import SuperSim

        rec.clear_einsum_path_cache()
        c = Circuit(4)
        c.append(gates.H, 0).append(gates.CX, 0, 1).append(gates.T, 1)
        c.append(gates.CX, 1, 2).append(gates.CX, 2, 3)
        sim = SuperSim()
        first = sim.run(c)
        assert first.stats.path_cache_misses >= 1
        second = sim.run(c)
        assert second.stats.path_cache_misses == 0
        assert second.stats.path_cache_hits >= 1

    def test_clear_resets_counters(self):
        from repro.core import reconstruction as rec

        rec.clear_einsum_path_cache()
        assert rec.einsum_path_cache_counters() == (0, 0)
        assert rec._EINSUM_PATH_CACHE == {}
