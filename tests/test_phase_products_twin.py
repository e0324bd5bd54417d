"""The phases of Pauli-row products, as uint8 einsums, equal their integer twin.

``repro.stabilizer.tableau._product_phases`` multiplies its selections
with uint8 einsums, whose wrapping modulo 256 keeps the parities and the
phase sum modulo 4 it reads.  Its twin here is the integer version it
replaced (``selected @ swaps`` an int64 matmul): the powers must be equal
on random draws, stacked or not, down to empty selections, and on the
shapes the map solves hand it (a 200-window solve, a 60-bit level).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stabilizer.tableau import _product_phases


def reference_product_phases(x, z, sign, selected) -> np.ndarray:
    """The power of ``i`` (mod 4) of ordered products of Pauli rows, every
    product an integer matmul."""
    x8, z8 = x.astype(np.uint8), z.astype(np.uint8)
    phase = (x8 & z8).sum(axis=-1) + 2 * sign
    # a uint8 product wraps modulo 256, which keeps its parity
    swaps = np.triu(z8 @ np.swapaxes(x8, -1, -2) & 1, 1).astype(int)
    selected = selected.astype(int)
    return (selected * (phase[..., None, :] + 2 * (selected @ swaps))).sum(axis=-1) % 4


def _draw(rng, lead, r, n, s, density):
    x = rng.random(lead + (r, n)) < density
    z = rng.random(lead + (r, n)) < density
    sign = rng.random(lead + (r,)) < 0.5
    selected = rng.random(lead + (s, r)) < density
    return x, z, sign, selected


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
    r=st.integers(0, 70),
    n=st.integers(1, 300),
    s=st.integers(0, 40),
    density=st.sampled_from([0.05, 0.5, 0.95]),
)
def test_product_phases_equal_the_integer_twin(seed, lead, r, n, s, density):
    args = _draw(np.random.default_rng(seed), lead, r, n, s, density)
    got = _product_phases(*args)
    want = reference_product_phases(*args)
    assert got.shape == want.shape == lead + (s,)
    assert np.array_equal(got, want)


def test_product_phases_on_the_solve_shapes():
    rng = np.random.default_rng(0)
    # a 200-window solve of a 200-qubit fragment, and a 60-bit level
    for lead, r, n, s in (((200,), 3, 201, 17), ((1,), 65, 63, 317)):
        args = _draw(rng, lead, r, n, s, 0.5)
        assert np.array_equal(_product_phases(*args), reference_product_phases(*args))
