"""The body of every registered kernel.

The bodies here are the hot loops of ``repro.stabilizer`` (the gate walk
and the frame sampler), ``repro.analysis.distributions`` and
``repro.core.reconstruction`` — NumPy, except the gate walk, which runs
on Python ints; the call sites go through the registry so each kernel's
calls and seconds are counted by name.

This module must import nothing from the rest of ``repro`` (the hot-loop
modules import the kernels, not the other way around).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.registry import kernel

_ONE = np.uint64(1)


@kernel("apply_layers")
def apply_layers(program, x, z, sign: int) -> int:
    """Walk a Clifford gate program over integer columns; returns the sign.

    ``x[q]`` and ``z[q]`` hold column ``q`` as one Python int (bit ``r``
    is row ``r``: a batch of Pauli rows walked backward, or of Pauli frames)
    and are updated in place; ``sign`` packs the rows' sign bits the same
    way.  The steps of ``program`` — ``(name, q)`` or ``("CX", control,
    target)`` — run in order, each 1 to 4 big-int ops over every row at
    once (the Aaronson–Gottesman rules).  Every step reads all its
    columns before it writes one, so a qubit the columns lack fails
    before that step changes anything.
    """
    for step in program:
        name = step[0]
        if name == "S":
            q = step[1]
            xq = x[q]
            sign ^= xq & z[q]
            z[q] ^= xq
        elif name == "H":
            q = step[1]
            xq = x[q]
            zq = z[q]
            sign ^= xq & zq
            x[q] = zq
            z[q] = xq
        elif name == "CX":
            _, c, t = step
            xc = x[c]
            zt = z[t]
            sign ^= xc & zt & ~(x[t] ^ z[c])
            x[t] ^= xc
            z[c] ^= zt
        elif name == "X":
            sign ^= z[step[1]]
        elif name == "Z":
            sign ^= x[step[1]]
        elif name == "Y":
            q = step[1]
            sign ^= x[q] ^ z[q]
        else:
            raise ValueError(f"unknown program step {step!r}")
    return sign


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

