"""The NumPy body of every registered kernel.

The bodies here are the hot loops of ``repro.stabilizer.tableau``,
``repro.analysis.distributions`` and ``repro.core.reconstruction``; the
call sites go through the registry so each kernel's calls and seconds
are counted by name.

This module must import nothing from the rest of ``repro`` (the hot-loop
modules import the kernels, not the other way around).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.registry import kernel

_ONE = np.uint64(1)


@kernel("apply_layers")
def apply_layers(layers, x, z, sign) -> None:
    """Apply fused Clifford layers to row-packed ``x``/``z``/``sign`` in place.

    Every array packs 64 generator rows per word (``x``/``z`` shape
    ``(row_words, qubits)``, ``sign`` shape ``(row_words,)``), so a layer
    of L gates is a handful of bitwise ops on ``(words, L)`` column
    gathers — per-gate Python dispatch disappears and 64 rows advance per
    machine word.
    """
    for name, qarr in layers:
        if name == "CX":
            cs, ts = qarr[:, 0], qarr[:, 1]
            xc = x[:, cs]
            zt = z[:, ts]
            sign ^= np.bitwise_xor.reduce(
                xc & zt & ~(x[:, ts] ^ z[:, cs]), axis=1
            )
            x[:, ts] ^= xc
            z[:, cs] ^= zt
            continue
        qs = qarr[:, 0]
        if name == "H":
            xs = x[:, qs]
            zs = z[:, qs]
            sign ^= np.bitwise_xor.reduce(xs & zs, axis=1)
            x[:, qs] = zs
            z[:, qs] = xs
        elif name == "S":
            xs = x[:, qs]
            sign ^= np.bitwise_xor.reduce(xs & z[:, qs], axis=1)
            z[:, qs] ^= xs
        elif name == "X":
            sign ^= np.bitwise_xor.reduce(z[:, qs], axis=1)
        elif name == "Z":
            sign ^= np.bitwise_xor.reduce(x[:, qs], axis=1)
        elif name == "Y":
            sign ^= np.bitwise_xor.reduce(x[:, qs] ^ z[:, qs], axis=1)
        else:  # pragma: no cover - compiler emits only the names above
            raise AssertionError(f"unknown layer gate {name!r}")


@kernel("row_mul")
def row_mul(x, z, sign, targets, source) -> None:
    """Row_t <- Row_s * Row_t for every t in ``targets`` (word-parallel).

    ``x``/``z`` are qubit-packed ``(rows, words)`` uint64, ``sign`` one
    bool per row; symbolic sign bits are the caller's business.  Phases:
    with rows R = (-1)^s i^(x.z) X^x Z^z, the product phase exponent
    (power of i) is ``t = x1.z1 + x2.z2 + 2*(z1.x2) + 2*s1 + 2*s2`` and
    the result sign is ``(t - x12.z12)/2 mod 2``; all dot products are
    word-wide popcounts.  ``source`` must not appear in ``targets``.
    """
    x1, z1 = x[source], z[source]
    x2, z2 = x[targets], z[targets]
    # popcount rows via `bitwise_count(...) @ ones8`: a uint8 matmul is
    # several times faster than .sum(axis=1), and the mod-256 wraparound
    # is harmless because every consumer reduces mod 4 or mod 2
    ones = np.ones(x.shape[1], dtype=np.uint8)
    c1 = int(np.bitwise_count(x1 & z1).sum()) & 3
    c2 = np.bitwise_count(x2 & z2) @ ones
    cross = np.bitwise_count(z1[None, :] & x2) @ ones
    new_x = x2 ^ x1[None, :]
    new_z = z2 ^ z1[None, :]
    c12 = np.bitwise_count(new_x & new_z) @ ones
    # uint8 arithmetic wraps mod 256, which preserves the mod-4 phase
    total = c1 + c2 + 2 * cross
    half = ((total - c12) % 4) >= 2
    sign[targets] = sign[targets] ^ sign[source] ^ half
    x[targets] = new_x
    z[targets] = new_z


@kernel("gf2_matmul")
def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a @ b) mod 2`` of two 0/1 matrices, exactly, through BLAS.

    Integer matmuls never hit BLAS in NumPy (they run as naive C loops),
    which made this the hot spot of batch sampling.  A float GEMM is
    bit-exact here: every accumulated sum is an integer bounded by the
    inner dimension, well inside float32's 2^24 exact-integer range
    (float64 beyond that), and the parity is taken after the product.
    """
    dtype = np.float32 if a.shape[1] < (1 << 24) else np.float64
    acc = a.astype(dtype) @ b.astype(dtype)
    return (acc.astype(np.int64) & 1).astype(bool)


@kernel("bit_gather")
def bit_gather(
    keys: np.ndarray, srcs: np.ndarray, dsts: np.ndarray
) -> np.ndarray:
    """Gather bits out of packed uint64 keys into new packed keys.

    ``out[i] = OR_j ((keys[i] >> srcs[j]) & 1) << dsts[j]`` — the
    marginalisation primitive: each kept bit position moves from its
    source shift to its destination shift.
    """
    out = np.zeros(len(keys), dtype=np.uint64)
    for j in range(len(srcs)):
        out |= ((keys >> srcs[j]) & _ONE) << dsts[j]
    return out


@kernel("inverse_cdf_indices")
def inverse_cdf_indices(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Side-right binary search of sorted ``uniforms`` against a CDF.

    ``uniforms`` must be ascending and pre-scaled to ``cdf[-1]``; the
    result is clamped to the last support index so a uniform that rounds
    up to exactly the total mass cannot index past the support.
    """
    idx = np.searchsorted(cdf, uniforms, side="right")
    return np.minimum(idx, len(cdf) - 1)


@kernel("dense_contract")
def dense_contract(operands: list, path) -> np.ndarray:
    """One multi-operand einsum in interleaved form with a precomputed path.

    ``operands`` is the interleaved ``[tensor, subscript, tensor,
    subscript, ..., out_subscript]`` list and ``path`` the
    ``np.einsum_path`` result for exactly these shapes (the caller
    memoizes it — see ``repro.core.reconstruction``).
    """
    return np.einsum(*operands, optimize=path)

