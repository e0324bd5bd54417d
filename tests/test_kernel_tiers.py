"""The NumPy kernels against independent oracles, and kernel accounting.

``apply_layers`` is checked against explicit matrix conjugation of each
row's Pauli (and end to end, through the readouts of the backward walk,
against the byte-per-bit ``ReferenceTableau`` in
``tests/test_packed_equivalence.py``); the
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
from repro.circuits import gates
from repro.circuits.circuit import Operation
from repro.kernels import registry
from repro.stabilizer.tableau import _compile_ops


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


def _oracle_apply_layers(program, x, z, sign, rows):
    """Row by row, gate by gate: conjugate each row's Pauli by the gate."""
    n_qubits = len(x)
    x, z = list(x), list(z)
    for r in range(rows):
        bit = 1 << r
        xr = [bool(x[q] & bit) for q in range(n_qubits)]
        zr = [bool(z[q] & bit) for q in range(n_qubits)]
        s = bool(sign & bit)
        for name, *qs in program:
            out, flip = _conjugate(name, [(xr[q], zr[q]) for q in qs])
            s ^= bool(flip)
            for q, (xq, zq) in zip(qs, out):
                xr[q], zr[q] = bool(xq), bool(zq)
        for q in range(n_qubits):
            x[q] = (x[q] & ~bit) | (bit if xr[q] else 0)
            z[q] = (z[q] & ~bit) | (bit if zr[q] else 0)
        sign = (sign & ~bit) | (bit if s else 0)
    return x, z, sign


# -- apply_layers (the gate walk over int columns) ------------------------------


def _random_program(rng, n_qubits, n_steps, names=("CX", "H", "S", "X", "Z", "Y")):
    program = []
    for _ in range(n_steps):
        name = names[rng.integers(0, len(names))]
        qubits = rng.choice(n_qubits, size=2 if name == "CX" else 1, replace=False)
        program.append((name, *(int(q) for q in qubits)))
    return program


def _random_column(rng, rows):
    return int.from_bytes(rng.bytes((rows + 7) // 8), "little") & ((1 << rows) - 1)


def _check_apply_layers(rng, program, n_qubits, rows):
    x0 = [_random_column(rng, rows) for _ in range(n_qubits)]
    z0 = [_random_column(rng, rows) for _ in range(n_qubits)]
    s0 = _random_column(rng, rows)
    x_ref, z_ref, s_ref = _oracle_apply_layers(program, x0, z0, s0, rows)
    x, z = list(x0), list(z0)
    sign = rk.apply_layers(program, x, z, s0)
    assert x == x_ref
    assert z == z_ref
    assert sign == s_ref


@given(
    seed=seeds,
    n_qubits=st.integers(2, 8),
    rows=st.integers(1, 130),
    n_steps=st.integers(1, 12),
)
@settings(max_examples=10, deadline=None)
def test_apply_layers_parity(seed, n_qubits, rows, n_steps):
    rng = _rng(seed)
    program = _random_program(rng, n_qubits, n_steps)
    _check_apply_layers(rng, program, n_qubits, rows)


@pytest.mark.parametrize("name", sorted(_GATES))
def test_apply_layers_gate_matches_matrix_conjugation(name):
    # a program of a single gate kind, so every conjugation rule is
    # exercised on its own against the matrix oracle
    rng = _rng(sorted(_GATES).index(name))
    program = _random_program(rng, 6, 6, names=(name,))
    _check_apply_layers(rng, program, 6, 64)


@pytest.mark.parametrize(
    "program",
    [
        [("H", -1)],
        [("H", 3)],
        [("S", 0), ("CX", 1, -1)],
        [("H", 1), ("CX", 3, 0)],
        [("X", -3)],
        _compile_ops([Operation(gates.SX, (-1,))]),
    ],
)
def test_a_qubit_outside_the_columns_is_refused(program):
    """Any qubit the columns lack is refused, negative ones too (a list or
    a numpy fancy index would wrap them onto the last wires), and the step
    naming it writes nothing: the columns hold what the steps before it
    made of them."""
    rng = _rng(len(program))
    x0 = {q: _random_column(rng, 8) for q in range(3)}
    z0 = {q: _random_column(rng, 8) for q in range(3)}
    valid = []
    for step in program:
        if any(not 0 <= q < 3 for q in step[1:]):
            break
        valid.append(step)
    x_ok, z_ok = dict(x0), dict(z0)
    rk.apply_layers(valid, x_ok, z_ok, 0)
    x, z = dict(x0), dict(z0)
    with pytest.raises(KeyError):
        rk.apply_layers(program, x, z, 0)
    assert (x, z) == (x_ok, z_ok)


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
        assert "apply_layers" not in delta


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

        rec._einsum_path.cache_clear()
        c = Circuit(4)
        c.append(gates.H, 0).append(gates.CX, 0, 1).append(gates.T, 1)
        c.append(gates.CX, 1, 2).append(gates.CX, 2, 3)
        sim = SuperSim()
        sim.run(c)
        cold = rec._einsum_path.cache_info()
        assert cold.misses >= 1
        sim.run(c)
        warm = rec._einsum_path.cache_info()
        assert warm.misses == cold.misses
        assert warm.hits > cold.hits

    def test_clear_resets_counters(self):
        from repro.core import reconstruction as rec

        rec._einsum_path.cache_clear()
        info = rec._einsum_path.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
