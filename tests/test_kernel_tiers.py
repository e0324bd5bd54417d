"""Kernel-tier parity, dispatch fallback, and end-to-end determinism.

The contract under test (see ``repro/kernels/registry.py``): every
registered tier must reproduce the pure-NumPy reference bit-for-bit on
integer/bit kernels and within 1e-12 on float accumulation, a requested
tier whose optional dependency is absent silently falls back to NumPy,
and seeded end-to-end ``run()`` results are identical across tiers.

The accelerated numba bodies are additionally verified *as algorithms*
through their pure-Python twins (``repro.kernels._numba.PY_IMPLS``), so
the parity property holds on hosts without numba installed too — the
twins are byte-for-byte the functions numba compiles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as rk
from repro.kernels import _numba, registry
from repro.kernels._numba import PY_IMPLS


@pytest.fixture(autouse=True)
def _restore_tier():
    requested = registry.get_kernel_tier()
    yield
    registry.set_kernel_tier(requested)


def _tier_impls(name):
    """Every distinct implementation of a kernel: registered tiers + twins."""
    entry = rk.get_kernel(name)
    impls = {tier: entry.impl_for(tier) for tier in entry.tiers()}
    if name in PY_IMPLS:
        impls["python-twin"] = PY_IMPLS[name]
    return impls


# -- strategies ---------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _rng(seed):
    return np.random.default_rng(seed)


# -- gf2_matmul ---------------------------------------------------------------


@given(seed=seeds, m=st.integers(1, 20), k=st.integers(1, 40), n=st.integers(1, 20))
@settings(max_examples=40, deadline=None)
def test_gf2_matmul_parity(seed, m, k, n):
    rng = _rng(seed)
    a = rng.integers(0, 2, size=(m, k)).astype(bool)
    b = rng.integers(0, 2, size=(k, n)).astype(bool)
    expected = rk.get_kernel("gf2_matmul").impl_for("numpy")(a, b)
    naive = (a.astype(np.int64) @ b.astype(np.int64)) % 2
    assert np.array_equal(expected, naive.astype(bool))
    for tier, impl in _tier_impls("gf2_matmul").items():
        assert np.array_equal(impl(a, b), expected), tier


# -- bit_gather ---------------------------------------------------------------


@given(seed=seeds, n=st.integers(0, 200), nbits=st.integers(1, 64))
@settings(max_examples=40, deadline=None)
def test_bit_gather_parity(seed, n, nbits):
    rng = _rng(seed)
    keys = rng.integers(0, 1 << min(nbits, 63), size=n, dtype=np.uint64)
    nk = rng.integers(1, nbits + 1)
    srcs = rng.choice(nbits, size=nk, replace=False).astype(np.uint64)
    dsts = np.arange(nk - 1, -1, -1, dtype=np.uint64)
    expected = rk.get_kernel("bit_gather").impl_for("numpy")(keys, srcs, dsts)
    for tier, impl in _tier_impls("bit_gather").items():
        assert np.array_equal(impl(keys, srcs, dsts), expected), tier


# -- inverse_cdf_indices ------------------------------------------------------


@given(seed=seeds, m=st.integers(1, 50), shots=st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_inverse_cdf_parity(seed, m, shots):
    rng = _rng(seed)
    weights = rng.random(m) + 1e-9
    cdf = np.cumsum(weights)
    uniforms = np.sort(rng.random(shots)) * cdf[-1]
    expected = rk.get_kernel("inverse_cdf_indices").impl_for("numpy")(
        cdf, uniforms
    )
    assert (expected < m).all()
    for tier, impl in _tier_impls("inverse_cdf_indices").items():
        assert np.array_equal(impl(cdf, uniforms), expected), tier


def test_inverse_cdf_clamps_total_mass_hit():
    # a uniform exactly equal to the total mass must not index past the
    # support on any tier
    cdf = np.array([0.25, 0.5, 1.0])
    uniforms = np.array([1.0])
    for tier, impl in _tier_impls("inverse_cdf_indices").items():
        assert impl(cdf, uniforms).tolist() == [2], tier


# -- apply_layers (row-packed Clifford layers) --------------------------------


def _random_layers(rng, n_qubits, n_layers):
    names = ["CX", "H", "S", "X", "Z", "Y"]
    layers = []
    for _ in range(n_layers):
        name = names[rng.integers(0, len(names))]
        width = 2 if name == "CX" else 1
        max_gates = n_qubits // width
        count = int(rng.integers(1, max_gates + 1))
        qubits = rng.choice(n_qubits, size=count * width, replace=False)
        layers.append((name, qubits.reshape(count, width).astype(np.int64)))
    return layers


@given(
    seed=seeds,
    n_qubits=st.integers(2, 40),
    words=st.integers(1, 3),
    n_layers=st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_apply_layers_parity(seed, n_qubits, words, n_layers):
    rng = _rng(seed)
    layers = _random_layers(rng, n_qubits, n_layers)
    x0 = rng.integers(0, 2**63, size=(words, n_qubits), dtype=np.uint64)
    z0 = rng.integers(0, 2**63, size=(words, n_qubits), dtype=np.uint64)
    s0 = rng.integers(0, 2**63, size=words, dtype=np.uint64)
    ref = rk.get_kernel("apply_layers").impl_for("numpy")
    x_ref, z_ref, s_ref = x0.copy(), z0.copy(), s0.copy()
    ref(layers, x_ref, z_ref, s_ref)
    for tier, impl in _tier_impls("apply_layers").items():
        x, z, s = x0.copy(), z0.copy(), s0.copy()
        impl(layers, x, z, s)
        assert np.array_equal(x, x_ref), tier
        assert np.array_equal(z, z_ref), tier
        assert np.array_equal(s, s_ref), tier


# -- row_mul (tableau row products) -------------------------------------------


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
    ref = rk.get_kernel("row_mul").impl_for("numpy")
    x_ref, z_ref, s_ref = x0.copy(), z0.copy(), s0.copy()
    ref(x_ref, z_ref, s_ref, targets, source)
    for tier, impl in _tier_impls("row_mul").items():
        x, z, s = x0.copy(), z0.copy(), s0.copy()
        impl(x, z, s, targets, source)
        assert np.array_equal(x, x_ref), tier
        assert np.array_equal(z, z_ref), tier
        assert np.array_equal(s, s_ref), tier


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
    for tier, impl in _tier_impls("dense_contract").items():
        got = impl(operands, path)
        np.testing.assert_allclose(got, expected, atol=1e-12, err_msg=tier)


# -- dispatch and fallback ----------------------------------------------------


class TestDispatch:
    def test_numpy_always_available(self):
        assert "numpy" in rk.available_tiers()
        for entry in rk.all_kernels().values():
            assert "numpy" in entry.tiers()

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel tier"):
            rk.set_kernel_tier("tpu")

    def test_missing_tier_falls_back_to_numpy(self, monkeypatch):
        monkeypatch.setitem(registry._DETECTED, "numba", False)
        assert rk.set_kernel_tier("numba") == "numpy"
        assert rk.set_kernel_tier("auto") == "numpy"
        assert registry.active_tier() == "numpy"
        # dispatch still works end to end on the fallback
        a = np.eye(3, dtype=bool)
        assert np.array_equal(rk.gf2_matmul(a, a), a)

    def test_auto_prefers_best_available(self, monkeypatch):
        monkeypatch.setitem(registry._DETECTED, "numba", True)
        assert rk.set_kernel_tier("auto") == "numba"
        monkeypatch.setitem(registry._DETECTED, "numba", False)
        assert rk.set_kernel_tier("auto") == "numpy"

    def test_the_gpu_tier_is_gone(self, monkeypatch):
        assert rk.TIERS == ("numpy", "numba")
        with pytest.raises(ValueError, match="unknown kernel tier"):
            rk.set_kernel_tier("cupy")
        monkeypatch.setenv("REPRO_KERNELS", "cupy")
        with pytest.warns(RuntimeWarning, match="not one of"):
            registry._init_from_environment()
        assert registry.get_kernel_tier() == "auto"

    def test_kernel_without_variant_uses_numpy_impl(self, monkeypatch):
        # dense_contract has no numba variant: under the numba tier it must
        # dispatch to the reference implementation rather than fail
        monkeypatch.setitem(registry._DETECTED, "numba", True)
        rk.set_kernel_tier("numba")
        entry = rk.get_kernel("dense_contract")
        assert entry.impl_for("numba") is entry.impls["numpy"]
        t = np.arange(8.0).reshape(2, 4)
        operands = [t, [0, 1], [0]]
        path = np.einsum_path(*operands, optimize="greedy")[0]
        np.testing.assert_allclose(rk.dense_contract(operands, path), t.sum(axis=1))

    def test_invalid_environment_value_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "quantum")
        with pytest.warns(RuntimeWarning, match="REPRO_KERNELS"):
            registry._init_from_environment()
        assert registry.get_kernel_tier() == "auto"

    def test_counters_accumulate(self):
        snap = rk.counters_snapshot()
        a = np.eye(2, dtype=bool)
        rk.gf2_matmul(a, a)
        delta = rk.timings_since(snap)
        assert "gf2_matmul" in delta
        assert delta["gf2_matmul"] >= 0.0
        assert "row_mul" not in delta


# -- tier-aware calibration fingerprint ---------------------------------------


class TestFingerprint:
    def test_fingerprint_embeds_active_tier(self):
        from repro.backends.calibration import host_fingerprint

        assert f"kernels={registry.active_tier()}" in host_fingerprint()

    def test_fingerprint_changes_with_tier(self, monkeypatch):
        from repro.backends.calibration import host_fingerprint

        before = host_fingerprint()
        monkeypatch.setitem(registry._DETECTED, "numba", True)
        rk.set_kernel_tier("numba")
        after = host_fingerprint()
        assert before != after
        assert "kernels=numba" in after


# -- end-to-end determinism across tiers --------------------------------------


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
    def test_seeded_run_identical_across_tiers(self):
        results = []
        for tier in rk.available_tiers():
            rk.set_kernel_tier(tier)
            results.append((tier, _run_supersim(seed=7)))
        (tier0, base), *rest = results
        assert base.kernel_tier == tier0
        for tier, result in rest:
            assert result.kernel_tier == tier
            assert result.distribution.probs == base.distribution.probs

    def test_e2e_with_twin_variants_matches_numpy(self, monkeypatch):
        # install the pure-Python twins as the numba variants and run the
        # full pipeline under the numba tier: exercises accelerated-variant
        # dispatch end-to-end even on hosts without numba installed
        monkeypatch.setitem(registry._DETECTED, "numba", True)
        for name, impl in PY_IMPLS.items():
            monkeypatch.setitem(rk.get_kernel(name).impls, "numba", impl)
        rk.set_kernel_tier("numpy")
        base = _run_supersim(seed=11)
        rk.set_kernel_tier("numba")
        accel = _run_supersim(seed=11)
        assert accel.kernel_tier == "numba"
        assert accel.distribution.probs == base.distribution.probs

    def test_result_records_tier_and_kernel_timings(self):
        result = _run_supersim(seed=3)
        assert result.kernel_tier == registry.active_tier()
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


# -- numba module internals ---------------------------------------------------


def test_numba_twins_cover_all_variant_kernels():
    # the twins are the exact bodies numba compiles; every kernel that
    # registers a numba variant must expose one for absent-numba parity
    expected = {
        "apply_layers",
        "row_mul",
        "gf2_matmul",
        "bit_gather",
        "inverse_cdf_indices",
    }
    assert set(PY_IMPLS) == expected


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_swar_popcount_matches_numpy(seed):
    rng = _rng(seed)
    values = rng.integers(0, 2**64, size=64, dtype=np.uint64)
    for v in values:
        assert int(_numba._popcount_py(int(v))) == int(np.bitwise_count(v))
