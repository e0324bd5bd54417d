"""numba-JIT (CPU) kernel variants: ``prange``-parallel packed-word loops.

Every function here exists in two forms:

* a plain-Python body (always defined, importable without numba) that
  operates on the same packed uint64 arrays as the NumPy reference —
  :data:`PY_IMPLS` exposes these so the parity test suite can verify the
  *algorithms* bit-for-bit even on hosts without numba installed;
* the ``numba.njit``-compiled version of the same body, registered as
  the ``"numba"`` tier variant when numba imports cleanly.

The JIT versions compile lazily on first call (``cache=True`` persists
the machine code across processes).  Determinism: every kernel is either
embarrassingly parallel over disjoint output rows (``prange`` writes
never overlap) or sequential, so results are bit-identical to the NumPy
reference at any thread count.

All mod-4 phase arithmetic is done in uint64 with wraparound: ``2**64``
is divisible by 4, so ``(a - b) & 3`` is exact even when the subtraction
wraps.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.registry import variant

try:  # pragma: no cover - exercised only where numba is installed
    import numba
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:
    numba = None
    HAVE_NUMBA = False
    prange = range

    def njit(*args, **kwargs):  # identity decorator: keep bodies runnable
        def decorate(fn):
            return fn

        return decorate


def _jit(**kwargs):
    """``numba.njit`` when available, identity otherwise."""
    return njit(**kwargs)


# -- popcount ----------------------------------------------------------------


def _popcount(v):
    """SWAR popcount of one uint64 word (numba has no np.bitwise_count)."""
    v = v - ((v >> 1) & 0x5555555555555555)
    v = (v & 0x3333333333333333) + ((v >> 2) & 0x3333333333333333)
    v = (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0F
    v = v + (v >> 8)
    v = v + (v >> 16)
    v = v + (v >> 32)
    return v & 0x7F


_popcount_py = _popcount
if HAVE_NUMBA:  # pragma: no cover - needs numba
    _popcount = njit(inline="always", cache=True)(_popcount)


# -- fused Clifford layers (row-packed) --------------------------------------
#
# x/z: (row_words, qubits) uint64 — 64 generator rows per word; sign:
# (row_words,) uint64.  Gates within one layer touch disjoint qubit
# columns, so the inner j-loop order is irrelevant and the outer w-loop
# parallelises with no write overlap.


def _layer_cx(x, z, sign, cs, ts):
    for w in prange(x.shape[0]):
        s = sign[w]
        for j in range(cs.shape[0]):
            c = cs[j]
            t = ts[j]
            xc = x[w, c]
            zt = z[w, t]
            s ^= xc & zt & ~(x[w, t] ^ z[w, c])
            x[w, t] = x[w, t] ^ xc
            z[w, c] = z[w, c] ^ zt
        sign[w] = s


def _layer_h(x, z, sign, qs):
    for w in prange(x.shape[0]):
        s = sign[w]
        for j in range(qs.shape[0]):
            q = qs[j]
            xv = x[w, q]
            zv = z[w, q]
            s ^= xv & zv
            x[w, q] = zv
            z[w, q] = xv
        sign[w] = s


def _layer_s(x, z, sign, qs):
    for w in prange(x.shape[0]):
        s = sign[w]
        for j in range(qs.shape[0]):
            q = qs[j]
            xv = x[w, q]
            s ^= xv & z[w, q]
            z[w, q] = z[w, q] ^ xv
        sign[w] = s


def _layer_x(x, z, sign, qs):
    for w in prange(x.shape[0]):
        s = sign[w]
        for j in range(qs.shape[0]):
            s ^= z[w, qs[j]]
        sign[w] = s


def _layer_z(x, z, sign, qs):
    for w in prange(x.shape[0]):
        s = sign[w]
        for j in range(qs.shape[0]):
            s ^= x[w, qs[j]]
        sign[w] = s


def _layer_y(x, z, sign, qs):
    for w in prange(x.shape[0]):
        s = sign[w]
        for j in range(qs.shape[0]):
            q = qs[j]
            s ^= x[w, q] ^ z[w, q]
        sign[w] = s


_LAYER_PY = {
    "CX": _layer_cx,
    "H": _layer_h,
    "S": _layer_s,
    "X": _layer_x,
    "Z": _layer_z,
    "Y": _layer_y,
}
if HAVE_NUMBA:  # pragma: no cover - needs numba
    _layer_cx = njit(parallel=True, cache=True)(_layer_cx)
    _layer_h = njit(parallel=True, cache=True)(_layer_h)
    _layer_s = njit(parallel=True, cache=True)(_layer_s)
    _layer_x = njit(parallel=True, cache=True)(_layer_x)
    _layer_z = njit(parallel=True, cache=True)(_layer_z)
    _layer_y = njit(parallel=True, cache=True)(_layer_y)

_LAYER_JIT = {
    "CX": _layer_cx,
    "H": _layer_h,
    "S": _layer_s,
    "X": _layer_x,
    "Z": _layer_z,
    "Y": _layer_y,
}


def _apply_layers_with(table, layers, x, z, sign):
    for name, qarr in layers:
        fn = table[name]
        if name == "CX":
            fn(
                x,
                z,
                sign,
                np.ascontiguousarray(qarr[:, 0]),
                np.ascontiguousarray(qarr[:, 1]),
            )
        else:
            fn(x, z, sign, np.ascontiguousarray(qarr[:, 0]))


def apply_layers(layers, x, z, sign):
    """numba-tier twin of the ``apply_layers`` NumPy reference."""
    _apply_layers_with(_LAYER_JIT, layers, x, z, sign)


def apply_layers_py(layers, x, z, sign):
    """The uncompiled algorithm, for parity testing without numba."""
    _apply_layers_with(_LAYER_PY, layers, x, z, sign)


# -- row products ------------------------------------------------------------


def _row_mul_body(x, z, sign, targets, source):
    n_words = x.shape[1]
    c1 = np.uint64(0)
    for w in range(n_words):
        c1 += _popcount(x[source, w] & z[source, w])
    for i in prange(targets.shape[0]):
        t = targets[i]
        c2 = np.uint64(0)
        cross = np.uint64(0)
        c12 = np.uint64(0)
        for w in range(n_words):
            x1 = x[source, w]
            z1 = z[source, w]
            x2 = x[t, w]
            z2 = z[t, w]
            c2 += _popcount(x2 & z2)
            cross += _popcount(z1 & x2)
            nx = x1 ^ x2
            nz = z1 ^ z2
            c12 += _popcount(nx & nz)
            x[t, w] = nx
            z[t, w] = nz
        total = c1 + c2 + np.uint64(2) * cross
        # uint64 wraparound keeps the mod-4 difference exact (2^64 % 4 == 0)
        half = ((total - c12) & np.uint64(3)) >= np.uint64(2)
        sign[t] = sign[t] ^ sign[source] ^ half


row_mul_py = _row_mul_body
if HAVE_NUMBA:  # pragma: no cover - needs numba
    _row_mul_body = njit(parallel=True, cache=True)(_row_mul_body)


def row_mul(x, z, sign, targets, source):
    """numba-tier twin of the ``row_mul`` NumPy reference (in place)."""
    _row_mul_body(x, z, sign, np.ascontiguousarray(targets), source)


# -- GF(2) matmul ------------------------------------------------------------


def _gf2_body(a, b):
    m = a.shape[0]
    k = a.shape[1]
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.uint8)
    for i in prange(m):
        for l in range(k):
            if a[i, l]:
                for j in range(n):
                    out[i, j] ^= b[l, j]
    return out


gf2_body_py = _gf2_body
if HAVE_NUMBA:  # pragma: no cover - needs numba
    _gf2_body = njit(parallel=True, cache=True)(_gf2_body)


def gf2_matmul(a, b):
    """numba-tier twin of the ``gf2_matmul`` NumPy reference."""
    a8 = np.ascontiguousarray(np.asarray(a), dtype=np.uint8)
    b8 = np.ascontiguousarray(np.asarray(b), dtype=np.uint8)
    return _gf2_body(a8, b8).astype(bool)


def gf2_matmul_py(a, b):
    """The uncompiled algorithm, for parity testing without numba."""
    a8 = np.ascontiguousarray(np.asarray(a), dtype=np.uint8)
    b8 = np.ascontiguousarray(np.asarray(b), dtype=np.uint8)
    return gf2_body_py(a8, b8).astype(bool)


# -- data-plane kernels ------------------------------------------------------


def _bit_gather_body(keys, srcs, dsts):
    out = np.zeros(keys.shape[0], dtype=np.uint64)
    one = np.uint64(1)
    for i in prange(keys.shape[0]):
        kv = keys[i]
        acc = np.uint64(0)
        for j in range(srcs.shape[0]):
            acc |= ((kv >> srcs[j]) & one) << dsts[j]
        out[i] = acc
    return out


bit_gather_py = _bit_gather_body
if HAVE_NUMBA:  # pragma: no cover - needs numba
    _bit_gather_body = njit(parallel=True, cache=True)(_bit_gather_body)


def bit_gather(keys, srcs, dsts):
    """numba-tier twin of the ``bit_gather`` NumPy reference."""
    return _bit_gather_body(
        np.ascontiguousarray(keys),
        np.ascontiguousarray(srcs),
        np.ascontiguousarray(dsts),
    )


def _inverse_cdf_body(cdf, uniforms):
    # uniforms ascending and pre-scaled to cdf[-1]: a single merge scan
    # replaces per-query binary searches (O(m + shots) vs O(shots log m)),
    # clamped to the last support index exactly like the reference
    out = np.empty(uniforms.shape[0], dtype=np.int64)
    m = cdf.shape[0]
    j = 0
    for i in range(uniforms.shape[0]):
        u = uniforms[i]
        while j < m - 1 and cdf[j] <= u:
            j += 1
        out[i] = j
    return out


inverse_cdf_py = _inverse_cdf_body
if HAVE_NUMBA:  # pragma: no cover - needs numba
    _inverse_cdf_body = njit(cache=True)(_inverse_cdf_body)


def inverse_cdf_indices(cdf, uniforms):
    """numba-tier twin of the ``inverse_cdf_indices`` NumPy reference."""
    return _inverse_cdf_body(
        np.ascontiguousarray(cdf), np.ascontiguousarray(uniforms)
    )


#: pure-Python twins of every numba kernel body, keyed by kernel name —
#: the parity suite runs these against the NumPy reference on any host
PY_IMPLS = {
    "apply_layers": apply_layers_py,
    "row_mul": lambda x, z, sign, targets, source: row_mul_py(
        x, z, sign, np.ascontiguousarray(targets), source
    ),
    "gf2_matmul": gf2_matmul_py,
    "bit_gather": bit_gather_py,
    "inverse_cdf_indices": inverse_cdf_py,
}


if HAVE_NUMBA:  # pragma: no cover - needs numba
    variant("apply_layers", "numba")(apply_layers)
    variant("row_mul", "numba")(row_mul)
    variant("gf2_matmul", "numba")(gf2_matmul)
    variant("bit_gather", "numba")(bit_gather)
    variant("inverse_cdf_indices", "numba")(inverse_cdf_indices)
    # dense_contract stays on the NumPy reference under the numba tier:
    # einsum contraction already runs in BLAS/C, where a JIT
    # re-implementation has nothing to win
