"""The hot loops, one implementation each, counted by name.

``repro.kernels`` owns the performance-critical inner loops of the
stabilizer engine, the reconstruction contraction and the distribution
data plane.  Each kernel is a :class:`Kernel`: calling it runs its body
(NumPy, or Python ints for the gate walk) and adds to the kernel's
``calls`` / ``seconds`` counters, which :func:`counters_snapshot` /
:func:`timings_since` turn into per-run kernel timings.
"""

from __future__ import annotations

from repro.kernels import _numpy as _numpy_impls  # noqa: F401
from repro.kernels.registry import (
    Kernel,
    active_tier,
    all_kernels,
    counters_snapshot,
    get_kernel,
    timings_since,
)

apply_layers = get_kernel("apply_layers")
row_mul = get_kernel("row_mul")
bit_gather = get_kernel("bit_gather")
inverse_cdf_indices = get_kernel("inverse_cdf_indices")
dense_contract = get_kernel("dense_contract")

__all__ = [
    "Kernel",
    "active_tier",
    "all_kernels",
    "counters_snapshot",
    "get_kernel",
    "timings_since",
    "apply_layers",
    "row_mul",
    "bit_gather",
    "inverse_cdf_indices",
    "dense_contract",
]
