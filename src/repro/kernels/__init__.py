"""Runtime-dispatched kernel tier for the three hot loops.

``repro.kernels`` owns the performance-critical inner loops of the
stabilizer engine, the reconstruction contraction and the distribution
data plane.  Each kernel has a pure-NumPy reference implementation (the
correctness oracle, always available) plus an optional accelerated
variant — numba-JIT (CPU, ``prange``-parallel) — probed at import time and
selected by the active *tier*:

>>> import repro.kernels as rk
>>> rk.active_tier()            # what calls dispatch to right now
'numpy'
>>> rk.set_kernel_tier("numba") # falls back to 'numpy' if numba absent
'numpy'

The initial tier comes from the ``REPRO_KERNELS`` environment variable
(``auto`` | ``numpy`` | ``numba``; default ``auto`` = best available).
Missing optional dependencies are never an error: the
requested tier silently degrades to NumPy, per kernel.
"""

from __future__ import annotations

from repro.kernels import registry as _registry

# register the NumPy references first so every kernel name exists before
# the environment probe or any variant registration runs
from repro.kernels import _numpy as _numpy_impls  # noqa: F401

_registry._init_from_environment()

# accelerated variants self-register only when their dependency probes in
from repro.kernels import _numba as _numba_impls  # noqa: F401

from repro.kernels.registry import (
    TIERS,
    Kernel,
    active_tier,
    all_kernels,
    available_tiers,
    counters_snapshot,
    demotions,
    get_kernel,
    get_kernel_tier,
    set_kernel_tier,
    timings_since,
)

# the kernel dispatchers themselves (each is a `Kernel`; calling one
# dispatches to the active tier's implementation)
apply_layers = get_kernel("apply_layers")
row_mul = get_kernel("row_mul")
gf2_matmul = get_kernel("gf2_matmul")
bit_gather = get_kernel("bit_gather")
inverse_cdf_indices = get_kernel("inverse_cdf_indices")
dense_contract = get_kernel("dense_contract")

__all__ = [
    "TIERS",
    "Kernel",
    "active_tier",
    "all_kernels",
    "available_tiers",
    "counters_snapshot",
    "demotions",
    "get_kernel",
    "get_kernel_tier",
    "set_kernel_tier",
    "timings_since",
    "apply_layers",
    "row_mul",
    "gf2_matmul",
    "bit_gather",
    "inverse_cdf_indices",
    "dense_contract",
]
