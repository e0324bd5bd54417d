"""Array-native Distribution kernels vs the legacy dict implementation.

The distribution layer stores packed key/probability arrays; these
property tests pin every hot kernel — ``marginal``,
``single_bit_marginals``, ``sample``, ``hellinger_fidelity`` — to a
straightforward dict-based reference (the pre-refactor implementation) on
random sparse distributions up to 128 bits, plus regression tests for the
sampling hot loop and determinism of the process-pool default.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.distributions import (
    Distribution,
    chunked_keys_to_ints,
    hellinger_fidelity,
    ints_to_chunked_keys,
    pack_bit_cols,
    pack_bit_rows,
    pack_bit_rows_chunked,
    pack_keys,
    split_keys,
    unpack_keys,
)


# -- the dict-based reference (the old implementation, verbatim in spirit) --


def ref_marginal(probs: dict[int, float], n_bits: int, keep: list[int]):
    out: dict[int, float] = {}
    for outcome, p in probs.items():
        bits = [(outcome >> (n_bits - 1 - i)) & 1 for i in range(n_bits)]
        key = 0
        for b in (bits[i] for i in keep):
            key = (key << 1) | b
        out[key] = out.get(key, 0.0) + p
    return out


def ref_single_bit_marginals(probs: dict[int, float], n_bits: int):
    out = np.zeros((n_bits, 2))
    for outcome, p in probs.items():
        for i in range(n_bits):
            out[i, (outcome >> (n_bits - 1 - i)) & 1] += p
    return out


def ref_hellinger(p: dict[int, float], q: dict[int, float]) -> float:
    overlap = 0.0
    for outcome, pv in p.items():
        qv = q.get(outcome, 0.0)
        if pv > 0 and qv > 0:
            overlap += math.sqrt(pv * qv)
    return overlap**2


def random_sparse(rng: np.random.Generator, n_bits: int, support: int):
    support = min(support, 2 ** min(n_bits, 10))
    keys = set()
    while len(keys) < support:
        key = 0
        for _ in range((n_bits + 62) // 63):
            key = (key << 63) | int(rng.integers(0, 1 << 63))
        keys.add(key & ((1 << n_bits) - 1))
    weights = rng.random(len(keys)) + 1e-3
    weights /= weights.sum()
    return dict(zip(sorted(keys), weights.tolist()))


WIDTHS = st.sampled_from([1, 3, 8, 30, 62, 63, 100, 128])


class TestKernelsMatchDictReference:
    @given(st.integers(0, 2**32 - 1), WIDTHS, st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_marginal(self, seed, n_bits, support):
        rng = np.random.default_rng(seed)
        probs = random_sparse(rng, n_bits, support)
        dist = Distribution(n_bits, probs)
        keep = list(rng.permutation(n_bits)[: max(1, n_bits // 2)])
        keep = [int(i) for i in keep]
        got = dist.marginal(keep)
        expected = ref_marginal(probs, n_bits, keep)
        assert set(got.probs) == set(expected)
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), WIDTHS, st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_single_bit_marginals(self, seed, n_bits, support):
        rng = np.random.default_rng(seed)
        probs = random_sparse(rng, n_bits, support)
        dist = Distribution(n_bits, probs)
        assert np.allclose(
            dist.single_bit_marginals(),
            ref_single_bit_marginals(probs, n_bits),
            atol=1e-12,
        )

    @given(st.integers(0, 2**32 - 1), WIDTHS, st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_hellinger(self, seed, n_bits, support):
        rng = np.random.default_rng(seed)
        p = random_sparse(rng, n_bits, support)
        q = random_sparse(rng, n_bits, support)
        # overlap the supports so the intersection kernel is exercised
        q.update({k: v for k, v in list(p.items())[: support // 2]})
        total = sum(q.values())
        q = {k: v / total for k, v in q.items()}
        got = hellinger_fidelity(Distribution(n_bits, p), Distribution(n_bits, q))
        assert got == pytest.approx(ref_hellinger(p, q), abs=1e-12)
        assert hellinger_fidelity(
            Distribution(n_bits, p), Distribution(n_bits, p)
        ) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), WIDTHS, st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_sample_statistics_and_exactness(self, seed, n_bits, support):
        """Sampled counts land on support keys and sum to the shot count."""
        rng = np.random.default_rng(seed)
        probs = random_sparse(rng, n_bits, support)
        dist = Distribution(n_bits, probs)
        counts = dist.sample(500, rng=np.random.default_rng(seed))
        assert sum(counts.values()) == 500
        assert set(counts) <= set(probs)

    @given(st.integers(0, 2**32 - 1), WIDTHS, st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_mapping_surface(self, seed, n_bits, support):
        """probs / __getitem__ / iteration / total agree with the dict."""
        rng = np.random.default_rng(seed)
        probs = random_sparse(rng, n_bits, support)
        dist = Distribution(n_bits, probs)
        assert len(dist) == len(probs)
        assert dist.probs == pytest.approx(probs)
        assert dist.total() == pytest.approx(sum(probs.values()))
        for key, value in probs.items():
            assert dist[key] == pytest.approx(value)
        missing = next(
            (k for k in range(2 ** min(n_bits, 40)) if k not in probs), None
        )
        if missing is not None:
            assert dist[missing] == 0.0
        assert dict(iter(dist)) == pytest.approx(probs)


class TestPackedKeyHelpers:
    @given(st.integers(0, 2**32 - 1), WIDTHS, st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_chunked_roundtrip(self, seed, n_bits, rows):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(rows, n_bits)).astype(bool)
        ints = [int(k) for k in pack_bit_rows(bits)]
        chunked = pack_bit_rows_chunked(bits)
        assert chunked_keys_to_ints(chunked, n_bits) == ints
        assert np.array_equal(ints_to_chunked_keys(ints, n_bits), chunked)

    @given(st.integers(0, 2**32 - 1), WIDTHS, st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_bit_cols_matches_bit_rows(self, seed, n_bits, rows):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(rows, n_bits)).astype(bool)
        cols = pack_bit_cols(np.ascontiguousarray(bits.T))
        if n_bits <= 62:
            assert np.array_equal(cols, pack_bit_rows(bits))
        else:
            assert np.array_equal(cols, pack_bit_rows_chunked(bits))
        a = Distribution.from_bit_rows(bits)
        b = Distribution.from_bit_cols(np.ascontiguousarray(bits.T))
        assert a.probs == b.probs


    @given(st.integers(0, 2**32 - 1), WIDTHS, st.integers(0, 50), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_keys_unpack_and_split_in_either_layout(self, seed, n_bits, rows, low):
        """``split_keys`` is ``(key >> low, key & mask)`` on Python ints, with
        each part in the layout of its own width."""
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(rows, n_bits)).astype(bool)
        low = min(low, n_bits)
        keys = pack_keys(bits)
        assert keys.ndim == (1 if n_bits <= 62 else 2)
        assert np.array_equal(unpack_keys(keys, n_bits), bits)
        assert np.array_equal(
            unpack_keys(keys, n_bits, [n_bits - 1, 0]), bits[:, [n_bits - 1, 0]]
        )
        high, index = split_keys(keys, n_bits, low)
        ints = [int(k) for k in pack_bit_rows(bits)]
        assert index.tolist() == [k & ((1 << low) - 1) for k in ints]
        assert np.array_equal(high, pack_keys(bits[:, : n_bits - low]))
        high_ints = (
            chunked_keys_to_ints(high, n_bits - low) if high.ndim == 2 else high.tolist()
        )
        assert high_ints == [k >> low for k in ints]


class TestSamplingHotLoop:
    def test_million_shots_is_fast(self):
        """10^6 shots from a 4-outcome distribution: one vectorised pass.

        The pre-refactor per-draw Python loop took seconds at this size;
        the ``np.unique`` kernel takes milliseconds.  The ceiling is
        generous (shared CI runners) but far below the loop's cost.
        """
        dist = Distribution(2, {0: 0.4, 1: 0.3, 2: 0.2, 3: 0.1})
        start = time.perf_counter()
        counts = dist.sample(1_000_000, rng=0)
        elapsed = time.perf_counter() - start
        assert sum(counts.values()) == 1_000_000
        assert elapsed < 2.0

    def test_mps_batched_sampling_is_fast(self):
        """MPS shot sampling is per-site vectorised, not per-shot."""
        from repro.circuits import Circuit, gates
        from repro.mps.simulator import MPSSimulator

        n = 24
        c = Circuit(n).append(gates.H, 0)
        for q in range(n - 1):
            c.append(gates.CX, q, q + 1)
        c.measure_all()
        sim = MPSSimulator()
        state = sim.run(c)
        state.sample_bits(10, rng=0)  # warm-up
        start = time.perf_counter()
        bits = state.sample_bits(20_000, rng=1)
        elapsed = time.perf_counter() - start
        assert bits.shape == (20_000, n)
        assert elapsed < 2.0
        dist = sim.sample(c, 4000, rng=2)
        assert set(dist.probs) == {0, 2**n - 1}


class TestProcessPoolDefaultDeterminism:
    """The process-pool default must reproduce serial/thread results exactly."""

    def _run(self, **execution):
        from repro.circuits import Circuit, gates
        from repro.core import ExecutionConfig, SamplingConfig, SuperSim

        c = Circuit(5).append(gates.H, 0)
        for q in range(4):
            c.append(gates.CX, q, q + 1)
        c.append(gates.T, 2)
        c.measure_all()
        sim = SuperSim(
            sampling=SamplingConfig(shots=300, seed=11),
            execution=ExecutionConfig(backend="mps", **execution),
        )
        return sim.run(c).distribution

    def test_auto_pool_matches_serial_and_threads(self):
        auto = self._run()  # pool=None: mps resolves to the process default
        serial = self._run(pool="thread", parallel=1)
        threads = self._run(pool="thread", parallel=3)
        processes = self._run(pool="process", parallel=2)
        assert auto.probs == serial.probs
        assert auto.probs == threads.probs
        assert auto.probs == processes.probs

    def test_python_bound_backends_resolve_to_process_pool(self):
        from repro.backends import get_backend

        for name in ("chform", "mps", "extended_stabilizer"):
            assert get_backend(name).capabilities.pool == "process"
        for name in ("stabilizer", "statevector"):
            assert get_backend(name).capabilities.pool == "thread"
