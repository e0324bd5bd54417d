"""The bit-major affine sampler: the packed sampler's oracle.

How :class:`~repro.stabilizer.tableau.AffineOutcomeDistribution` sampled
before shots stayed packed: draw the free bits as 64-shot words, fan them
out to one byte per bit, gather the unit rows of ``A``, run one GF(2)
matmul for the dense rows, XOR ``b``.  Production now maps the words
themselves (``sample_words``); this twin draws from the generator the same
way, so for equal generators the two must agree bit for bit
(``tests/test_packed_shots.py``).
"""

from __future__ import annotations

import numpy as np


def bit_major_sample(affine, shots: int, rng: np.random.Generator) -> np.ndarray:
    """``(m, shots)`` 0/1 bytes: row ``i`` is output bit ``i`` of every shot."""
    unit_rows, unit_cols, dense_rows = affine._plan()
    out = np.zeros((affine.n_bits, shots), dtype=np.uint8)
    if affine.n_free:
        words = rng.integers(
            0, 1 << 64, size=(affine.n_free, (shots + 63) >> 6), dtype=np.uint64
        )
        # fanned out by shifts, not by the production unpacker under test
        free_t = (words[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        free_t = free_t.astype(np.uint8).reshape(affine.n_free, -1)[:, :shots]
        if len(unit_rows):
            out[unit_rows] = free_t[unit_cols]
        if len(dense_rows):
            product = affine.A[dense_rows].astype(np.int64) @ free_t
            out[dense_rows] = product & 1
    out ^= affine.b.astype(np.uint8)[:, None]
    return out
