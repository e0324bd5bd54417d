"""Kernel registry: one named, counted NumPy implementation per hot loop.

Every hot-loop kernel is registered here under a name with the
:func:`kernel` decorator.  The registry exists for accounting, not
dispatch: every :class:`Kernel` counts calls and accumulated wall-clock
seconds, and :func:`counters_snapshot` / :func:`timings_since` let
callers (the ``SuperSim`` execute stage, the benchmark ledger) attribute
per-kernel time to a run.
"""

from __future__ import annotations

import time


class Kernel:
    """One named kernel: its implementation plus call/seconds counters."""

    __slots__ = ("name", "impl", "calls", "seconds")

    def __init__(self, name: str, impl):
        self.name = name
        self.impl = impl
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self.impl(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start
            self.calls += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel {self.name!r}>"


_KERNELS: dict[str, Kernel] = {}


def kernel(name: str):
    """Decorator: register ``fn`` as kernel ``name``.

    Returns the counting :class:`Kernel` (not the bare function), so the
    decorated name is directly callable.
    """

    def decorate(fn) -> Kernel:
        _KERNELS[name] = Kernel(name, fn)
        return _KERNELS[name]

    return decorate


def get_kernel(name: str) -> Kernel:
    return _KERNELS[name]


def all_kernels() -> dict[str, Kernel]:
    """Name -> :class:`Kernel` view of the registry (live, do not mutate)."""
    return dict(_KERNELS)


def active_tier() -> str:
    """The kernel implementation family, kept for host/ledger fingerprints."""
    return "numpy"


# -- per-kernel accounting ---------------------------------------------------


def counters_snapshot() -> dict[str, tuple[int, float]]:
    """``{kernel_name: (calls, seconds)}`` cumulative since import."""
    return {name: (k.calls, k.seconds) for name, k in _KERNELS.items()}


def timings_since(
    snapshot: dict[str, tuple[int, float]],
) -> dict[str, float]:
    """Per-kernel seconds elapsed since ``snapshot`` (only kernels that ran)."""
    out: dict[str, float] = {}
    for name, entry in _KERNELS.items():
        calls0, seconds0 = snapshot.get(name, (0, 0.0))
        if entry.calls > calls0:
            out[name] = entry.seconds - seconds0
    return out
