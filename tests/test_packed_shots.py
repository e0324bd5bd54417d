"""Shots stay packed: sampler, container and histograms on 64-shot words.

``AffineOutcomeDistribution.sample_words`` against the bit-major sampler
it replaced (``repro.testing.sampling``, same generator, bit for bit), and
``SampledVariantData`` on shot words against a plain bool-matrix
implementation of the same three queries.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.distributions import (
    Distribution,
    pack_bit_rows,
    pack_shots,
    unpack_shots,
)
from repro.backends import approx_result_bytes
from repro.core.evaluator import SampledVariantData, VariantData
from repro.stabilizer.tableau import AffineOutcomeDistribution
from repro.testing.sampling import bit_major_sample

SHOT_COUNTS = [1, 63, 64, 65, 5000]


def same_distribution(a: Distribution, b: Distribution) -> bool:
    return (
        a.n_bits == b.n_bits
        and np.array_equal(a.keys_array, b.keys_array)
        and np.array_equal(a.values_array, b.values_array)
    )


def tail_is_zero(words: np.ndarray, shots: int) -> bool:
    padded = unpack_shots(words, words.shape[1] * 64)
    return not padded[:, shots:].any()


# -- the sampler ----------------------------------------------------------------


@st.composite
def affine_forms(draw):
    m = draw(st.integers(0, 70))
    k = draw(st.integers(0, 40))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.random((m, k)) < density
    b = rng.random(m) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    return AffineOutcomeDistribution(A, b)


class TestSampleWords:
    @settings(max_examples=120, deadline=None)
    @given(affine_forms(), st.sampled_from(SHOT_COUNTS), st.integers(0, 2**32 - 1))
    @example(AffineOutcomeDistribution(np.zeros((5, 0)), [1, 0, 1, 1, 0]), 65, 0)
    @example(AffineOutcomeDistribution(np.ones((7, 9)), np.ones(7)), 5000, 1)
    def test_equals_the_bit_major_sampler(self, affine, shots, seed):
        words = affine.sample_words(shots, np.random.default_rng(seed))
        assert words.dtype == np.uint64
        assert words.shape == (affine.n_bits, (shots + 63) // 64)
        expected = bit_major_sample(affine, shots, np.random.default_rng(seed))
        assert np.array_equal(unpack_shots(words, shots), expected)
        assert tail_is_zero(words, shots)
        # ... so a popcount is the number of ones among the shots, no more
        assert np.array_equal(
            np.bitwise_count(words).sum(axis=1), expected.sum(axis=1, dtype=np.int64)
        )

    @pytest.mark.parametrize("shots", SHOT_COUNTS)
    def test_sample_bits_and_sample_unpack_the_one_sampler(self, shots):
        rng = np.random.default_rng(shots)
        affine = AffineOutcomeDistribution(
            rng.random((9, 6)) < 0.4, rng.random(9) < 0.5
        )
        expected = bit_major_sample(affine, shots, np.random.default_rng(3)).T
        bits = affine.sample_bits(shots, rng=3)
        assert bits.dtype == bool and bits.flags.c_contiguous
        assert np.array_equal(bits, expected)
        assert same_distribution(
            affine.sample(shots, rng=3), Distribution.from_bit_rows(expected)
        )

    def test_the_generator_is_left_where_the_old_sampler_left_it(self):
        affine = AffineOutcomeDistribution(np.eye(4, dtype=bool), np.zeros(4))
        packed, old = np.random.default_rng(5), np.random.default_rng(5)
        affine.sample_words(130, packed)
        bit_major_sample(affine, 130, old)
        assert packed.integers(1 << 62) == old.integers(1 << 62)


# -- the container --------------------------------------------------------------


class BoolMatrixData(VariantData):
    """Finite-shot data as it was held before: one bool per shot and bit.
    ``conditioned_tables`` is the inherited default, cut out of ``joint``."""

    def __init__(self, bits):
        self.bits = np.asarray(bits, dtype=bool)

    def joint(self, cols):
        return Distribution.from_bit_rows(self.bits[:, cols])

    def joint_tables(self, windows, tail):
        tail_key = pack_bit_rows(self.bits[:, tail]).astype(np.intp)
        width = len(windows[0])
        counts = np.empty((len(windows), 2**width, 2 ** len(tail)), dtype=np.intp)
        for table, cols in zip(counts, windows):
            key = pack_bit_rows(self.bits[:, list(cols)]).astype(np.intp)
            table[...] = np.bincount(
                (key << len(tail)) | tail_key, minlength=table.size
            ).reshape(table.shape)
        return counts / len(self.bits)


def shot_matrix(shots, n=20, seed=0):
    rng = np.random.default_rng(seed)
    # a few constant and a few duplicated columns among the biased ones
    bits = rng.random((shots, n)) < rng.uniform(0.1, 0.9, size=n)
    bits[:, 3] = True
    bits[:, 7] = False
    bits[:, 11] = bits[:, 2]
    return bits


def windows_of(width, n, tail, seed):
    rng = np.random.default_rng(seed)
    free = [q for q in range(n) if q not in tail]
    picks = [tuple(rng.permutation(free)[:width].tolist()) for _ in range(4)]
    return picks + picks[:1]


class TestSampledVariantData:
    @pytest.mark.parametrize("shots", SHOT_COUNTS)
    def test_bits_round_trip(self, shots):
        bits = shot_matrix(shots)
        data = SampledVariantData.from_bits(bits)
        assert data.shots == shots and data.words.shape == (20, (shots + 63) // 64)
        assert data.words.dtype == np.uint64 and tail_is_zero(data.words, shots)
        assert data.bits.dtype == bool and np.array_equal(data.bits, bits)
        again = SampledVariantData(pack_shots(data.bits), shots)
        assert np.array_equal(again.words, data.words)

    @pytest.mark.parametrize("shots", [1, 63, 64, 65, 777])
    @pytest.mark.parametrize("n_tail", [0, 1, 2])
    @pytest.mark.parametrize("width", [0, 1, 2, 12])
    def test_queries_equal_the_bool_matrix_implementation(self, width, n_tail, shots):
        bits = shot_matrix(shots, seed=width + 10 * n_tail)
        packed, plain = SampledVariantData.from_bits(bits), BoolMatrixData(bits)
        tail = [19, 5][:n_tail]
        windows = windows_of(width, 20, tail, seed=shots)
        tables = packed.joint_tables(windows, tail)
        assert tables.shape == (len(windows), 2**width, 2**n_tail)
        assert np.array_equal(tables, plain.joint_tables(windows, tail))
        for cols in windows:
            cols = list(cols) + tail
            assert same_distribution(packed.joint(cols), plain.joint(cols))
        fixed = [c for c in (2, 3, 11) if c not in windows[0]]
        rows = np.array([[1, 1, 1], [0, 1, 0], [1, 0, 1], [1, 1, 1]], dtype=bool)
        rows = rows[:, : len(fixed)]
        got = packed.conditioned_tables(list(windows[0]), fixed, rows, tail)
        expected = plain.conditioned_tables(list(windows[0]), fixed, rows, tail)
        assert len(got) == len(expected) == len(rows)
        for (keys, probs), (want_keys, want_probs) in zip(got, expected):
            assert np.array_equal(keys, want_keys)
            assert np.array_equal(probs, want_probs)

    def test_a_joint_past_62_bits_uses_chunked_keys_as_before(self):
        bits = shot_matrix(300, n=70)
        cols = list(range(69, -1, -1))
        packed, plain = SampledVariantData.from_bits(bits), BoolMatrixData(bits)
        assert packed.joint(cols).keys_array.ndim == 2
        assert same_distribution(packed.joint(cols), plain.joint(cols))

    def test_a_200q_5000_shot_variant_is_an_eighth_of_its_bool_matrix(self):
        affine = AffineOutcomeDistribution(np.eye(200, dtype=bool), np.zeros(200))
        words = affine.sample_words(5000, np.random.default_rng(0))
        data = SampledVariantData(words, 5000)
        assert data.words.nbytes == 200 * 79 * 8
        pickled = len(pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL))
        assert pickled <= 140_000
        assert abs(approx_result_bytes(data) - pickled) <= 0.1 * pickled
        restored = pickle.loads(pickle.dumps(data))
        assert restored.shots == 5000 and np.array_equal(restored.words, data.words)
