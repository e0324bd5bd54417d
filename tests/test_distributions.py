"""Tests for distribution containers and fidelity metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    Distribution,
    hellinger_fidelity,
    mean_marginal_fidelity,
    total_variation_distance,
)


class TestConstruction:
    def test_from_counts(self):
        d = Distribution.from_counts(2, {0b00: 3, 0b11: 1})
        assert np.isclose(d[0b00], 0.75)
        assert np.isclose(d[0b11], 0.25)

    def test_from_array(self):
        d = Distribution.from_array(np.array([0.5, 0, 0, 0.5]))
        assert d.n_bits == 2
        assert np.isclose(d[0b11], 0.5)

    def test_from_array_bad_length(self):
        with pytest.raises(ValueError):
            Distribution.from_array(np.array([0.5, 0.25, 0.25]))

    def test_point(self):
        d = Distribution.point(3, 0b101)
        assert d[0b101] == 1.0
        assert len(d) == 1

    def test_zero_entries_dropped(self):
        d = Distribution(1, {0: 1.0, 1: 0.0})
        assert len(d) == 1


class TestTransforms:
    def test_bits(self):
        d = Distribution.point(3, 0b110)
        assert d.bits(0b110) == (1, 1, 0)

    def test_marginal(self):
        d = Distribution(2, {0b00: 0.5, 0b11: 0.5})
        m = d.marginal([0])
        assert m.n_bits == 1
        assert np.isclose(m[0], 0.5)

    def test_marginal_reorders(self):
        d = Distribution.point(2, 0b10)
        m = d.marginal([1, 0])
        assert m[0b01] == 1.0

    def test_single_bit_marginals(self):
        d = Distribution(2, {0b00: 0.5, 0b11: 0.5})
        m = d.single_bit_marginals()
        assert np.allclose(m, [[0.5, 0.5], [0.5, 0.5]])

    def test_clipped_removes_negatives(self):
        d = Distribution(1, {0: 1.1, 1: -0.1})
        c = d.clipped()
        assert c[0] == 1.0
        assert c[1] == 0.0

    def test_normalized(self):
        d = Distribution(1, {0: 2.0, 1: 2.0})
        n = d.normalized()
        assert np.isclose(n[0], 0.5)

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            Distribution(1, {}).normalized()

    def test_sample_counts(self):
        d = Distribution(1, {0: 0.5, 1: 0.5})
        counts = d.sample(1000, rng=0)
        assert sum(counts.values()) == 1000
        assert set(counts) <= {0, 1}

    def test_to_array_roundtrip(self):
        arr = np.array([0.25, 0.25, 0.5, 0.0])
        assert np.allclose(Distribution.from_array(arr).to_array(), arr)


class TestMetrics:
    def test_identical(self):
        d = Distribution(2, {0: 0.3, 3: 0.7})
        assert np.isclose(hellinger_fidelity(d, d), 1.0)
        assert total_variation_distance(d, d) == 0.0
        assert np.isclose(mean_marginal_fidelity(d, d), 1.0)

    def test_disjoint(self):
        a = Distribution.point(1, 0)
        b = Distribution.point(1, 1)
        assert hellinger_fidelity(a, b) == 0.0
        assert total_variation_distance(a, b) == 1.0

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            hellinger_fidelity(Distribution.point(1, 0), Distribution.point(2, 0))

    def test_known_value(self):
        a = Distribution(1, {0: 0.5, 1: 0.5})
        b = Distribution(1, {0: 1.0})
        assert np.isclose(hellinger_fidelity(a, b), 0.5)

    @given(st.lists(st.floats(min_value=0.01, max_value=1), min_size=4, max_size=4),
           st.lists(st.floats(min_value=0.01, max_value=1), min_size=4, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_fidelity_bounds(self, pa, qa):
        p = Distribution.from_array(np.array(pa) / sum(pa))
        q = Distribution.from_array(np.array(qa) / sum(qa))
        f = hellinger_fidelity(p, q)
        assert 0.0 <= f <= 1.0 + 1e-9
        assert np.isclose(hellinger_fidelity(p, q), hellinger_fidelity(q, p))


class TestInformationMetrics:
    def test_kl_zero_for_identical(self):
        from repro.analysis import kl_divergence

        d = Distribution(2, {0: 0.25, 1: 0.75})
        assert np.isclose(kl_divergence(d, d), 0.0)

    def test_kl_infinite_outside_support(self):
        from repro.analysis import kl_divergence

        p = Distribution(1, {0: 0.5, 1: 0.5})
        q = Distribution(1, {0: 1.0})
        assert kl_divergence(p, q) == float("inf")

    def test_kl_known_value(self):
        from repro.analysis import kl_divergence

        p = Distribution(1, {0: 0.75, 1: 0.25})
        q = Distribution(1, {0: 0.5, 1: 0.5})
        expected = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
        assert np.isclose(kl_divergence(p, q), expected)

    def test_cross_entropy_decomposition(self):
        # H(p, q) = H(p) + D(p || q)
        from repro.analysis import cross_entropy, kl_divergence

        p = Distribution(1, {0: 0.3, 1: 0.7})
        q = Distribution(1, {0: 0.6, 1: 0.4})
        entropy = -(0.3 * np.log(0.3) + 0.7 * np.log(0.7))
        assert np.isclose(cross_entropy(p, q), entropy + kl_divergence(p, q))

    def test_width_validation(self):
        from repro.analysis import cross_entropy, kl_divergence

        with pytest.raises(ValueError):
            kl_divergence(Distribution.point(1, 0), Distribution.point(2, 0))
        with pytest.raises(ValueError):
            cross_entropy(Distribution.point(1, 0), Distribution.point(2, 0))


class TestSharedKeyRange:
    """A distribution supported on every key of its width shares one
    read-only key array; its values stay its own."""

    def test_full_distributions_share_one_read_only_key_array(self):
        rng = np.random.default_rng(0)
        a = Distribution.from_array(rng.random(16) + 0.01)
        b = Distribution.from_array(rng.random(16) + 0.01)
        assert a.keys_array is b.keys_array
        assert a.keys_array.tolist() == list(range(16))
        assert not a.keys_array.flags.writeable
        with pytest.raises(ValueError):
            a.keys_array[0] = 5
        partial = Distribution.from_array(np.array([0.5, 0.0, 0.25, 0.25]))
        assert partial.keys_array.tolist() == [0, 2, 3]
        assert partial.keys_array.flags.writeable

    def test_a_live_accumulator_shares_the_key_range(self):
        from repro.core.reconstruction import _outcomes

        full = _outcomes(np.full(8, 0.125), [0, 1, 2], 0.0)
        assert full.keys_array is Distribution.from_array(np.full(8, 0.125)).keys_array
        some = _outcomes(np.array([0.5, 0.0, 0.0, 0.5]), [0, 1], 0.0)
        assert some.keys_array.tolist() == [0, 3]

    def test_from_array_does_not_alias_the_callers_values(self):
        probabilities = np.full(4, 0.25)
        d = Distribution.from_array(probabilities)
        probabilities[0] = 9.0
        assert d[0] == 0.25
        assert not np.shares_memory(d.values_array, probabilities)

    def test_clipped_keeps_the_keys_when_nothing_is_clipped(self):
        d = Distribution.from_array(np.array([0.2, 0.2, 0.4, 0.4]))
        c = d.clipped()
        assert c.keys_array is d.keys_array
        assert np.allclose(c.values_array, [1 / 6, 1 / 6, 1 / 3, 1 / 3])
        negative = Distribution.from_array(np.array([0.6, -0.1, 0.3, 0.2]))
        c = negative.clipped()
        assert c.keys_array.tolist() == [0, 2, 3]
        assert np.allclose(c.values_array, [0.6, 0.3, 0.2] / np.float64(1.1))

    def test_a_wire_round_trip_is_equal_and_writeable(self):
        from repro.service.protocol import _HEADER, decode_payload, encode_frame

        d = Distribution.from_array(np.array([0.1, 0.2, 0.3, 0.4]))
        d.probs  # a built dict cache does not travel
        frame = encode_frame({"distribution": d})
        back = decode_payload(frame[0], frame[_HEADER.size :])["distribution"]
        assert back.n_bits == d.n_bits
        assert back.probs == d.probs
        assert np.array_equal(back.keys_array, d.keys_array)
        assert np.array_equal(back.values_array, d.values_array)
        assert back.keys_array.flags.writeable and back.values_array.flags.writeable
        assert not d.keys_array.flags.writeable

    def test_zero_bits(self):
        d = Distribution.from_array(np.ones(1))
        assert d.n_bits == 0
        assert len(d) == 1 and d[0] == 1.0
        assert d.keys_array.tolist() == [0]
