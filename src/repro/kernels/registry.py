"""Kernel registry with runtime tier dispatch (numpy / numba).

Every hot-loop kernel is registered here under a name, with a pure-NumPy
reference implementation that is always available and an optional
accelerated variant: numba-JIT (CPU, ``prange``-parallel).  The active
*tier* decides which variant a call dispatches to:

* ``REPRO_KERNELS`` environment variable — ``auto`` (default, best
  available), ``numpy`` or ``numba`` — read once at import;
* :func:`set_kernel_tier` — the programmatic override, e.g. in tests or
  benchmarks.

Optional dependencies are *detected and probed at import time* (a tier
whose import or smoke-call fails is simply unavailable) and a requested
tier that is unavailable silently falls back to NumPy, so the library
never hard-requires numba.  Per-kernel dispatch is lazy: a tier that has
no variant of some kernel falls back to the NumPy reference for that
kernel only.

Every :class:`Kernel` counts calls and accumulated wall-clock seconds;
:func:`counters_snapshot` / :func:`timings_since` let callers (the
``SuperSim`` execute stage) attribute per-kernel time to a run.

Correctness contract: integer/bit kernels must match the NumPy reference
bit-for-bit on every tier; float-accumulation kernels within 1e-12
(``tests/test_kernel_tiers.py`` enforces both).
"""

from __future__ import annotations

import os
import time
import warnings

#: recognised tier names, reference first
TIERS = ("numpy", "numba")


class Kernel:
    """One named kernel: a NumPy reference plus optional tier variants.

    Calling the kernel dispatches to the active tier's variant (NumPy
    reference when the tier has none) and accumulates per-kernel call
    and wall-clock counters.
    """

    __slots__ = ("name", "impls", "calls", "seconds")

    def __init__(self, name: str):
        self.name = name
        self.impls: dict[str, object] = {}
        self.calls = 0
        self.seconds = 0.0

    def tiers(self) -> tuple[str, ...]:
        """Tiers this kernel has an implementation for (registry order)."""
        return tuple(t for t in TIERS if t in self.impls)

    def impl_for(self, tier: str):
        """The callable a given active tier would dispatch to."""
        return self.impls.get(tier) or self.impls["numpy"]

    def __call__(self, *args, **kwargs):
        impl = self.impls.get(_ACTIVE) or self.impls["numpy"]
        start = time.perf_counter()
        try:
            return impl(*args, **kwargs)
        except Exception as exc:
            reference = self.impls["numpy"]
            if impl is reference:
                raise
            # An accelerated variant faulted (e.g. a JIT failure).  Re-run
            # on the NumPy reference: if that also raises, the inputs were
            # bad — propagate the original error and keep the variant; if
            # it succeeds, the variant itself is broken — demote this
            # kernel to NumPy for the rest of the process and record the
            # demotion for fault reports.
            try:
                value = reference(*args, **kwargs)
            except Exception:
                raise exc from None
            _demote(self, _ACTIVE, exc)
            return value
        finally:
            self.seconds += time.perf_counter() - start
            self.calls += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel {self.name!r} tiers={self.tiers()}>"


_KERNELS: dict[str, Kernel] = {}

#: per-process log of (kernel name, tier, error repr) demotions, in order
_DEMOTIONS: list[tuple[str, str, str]] = []


def _demote(entry: Kernel, tier: str, exc: Exception) -> None:
    """Drop a faulting accelerated variant; future calls use NumPy."""
    entry.impls.pop(tier, None)
    _DEMOTIONS.append((entry.name, tier, f"{type(exc).__name__}: {exc}"))
    warnings.warn(
        f"kernel {entry.name!r} {tier} variant faulted "
        f"({type(exc).__name__}: {exc}); demoted to the NumPy reference "
        "for the rest of this process",
        RuntimeWarning,
        stacklevel=3,
    )


def demotions() -> tuple[tuple[str, str, str], ...]:
    """Accelerated-variant demotions so far: (kernel, tier, error) tuples.

    Callers that want only *new* demotions (the ``SuperSim`` execute
    stage attributing them to one run's fault report) snapshot
    ``len(demotions())`` before and slice after.
    """
    return tuple(_DEMOTIONS)


def kernel(name: str):
    """Decorator: register ``fn`` as the NumPy reference of kernel ``name``.

    Returns the :class:`Kernel` dispatcher (not the bare function), so the
    decorated name is directly callable with tier dispatch.
    """

    def decorate(fn) -> Kernel:
        entry = _KERNELS.setdefault(name, Kernel(name))
        entry.impls["numpy"] = fn
        return entry

    return decorate


def variant(name: str, tier: str):
    """Decorator: register ``fn`` as kernel ``name``'s ``tier`` variant."""
    if tier not in TIERS:
        raise ValueError(f"unknown kernel tier {tier!r} (expected one of {TIERS})")

    def decorate(fn):
        entry = _KERNELS.setdefault(name, Kernel(name))
        entry.impls[tier] = fn
        return fn

    return decorate


def get_kernel(name: str) -> Kernel:
    return _KERNELS[name]


def all_kernels() -> dict[str, Kernel]:
    """Name -> :class:`Kernel` view of the registry (live, do not mutate)."""
    return dict(_KERNELS)


# -- tier detection and selection -------------------------------------------

#: probe results: tier -> available?  (numpy is axiomatically available)
_DETECTED: dict[str, bool] = {"numpy": True}


def _probe_numba() -> bool:
    """Import numba and smoke-compile a trivial function."""
    try:
        import numba
    except Exception:
        return False
    try:
        probe = numba.njit(cache=False)(lambda v: v + 1)
        return int(probe(1)) == 2
    except Exception:  # pragma: no cover - broken numba install
        return False


def available_tiers() -> tuple[str, ...]:
    """Tiers whose import-time probe succeeded (always includes numpy)."""
    return tuple(t for t in TIERS if _DETECTED.get(t))


def _resolve(requested: str) -> str:
    """Map a requested tier onto an available one (numpy as fallback)."""
    if requested == "auto":
        requested = "numba"
    return requested if _DETECTED.get(requested) else "numpy"


_REQUESTED = "auto"
_ACTIVE = "numpy"


def set_kernel_tier(tier: str) -> str:
    """Select the kernel tier; returns the tier that actually activated.

    ``tier`` is ``"auto"`` or one of :data:`TIERS`.  Requesting a tier
    whose optional dependency is missing silently activates NumPy — the
    same fallback the ``REPRO_KERNELS`` environment variable gets — so
    deployment configs stay portable across hosts with and without
    accelerators.
    """
    global _REQUESTED, _ACTIVE
    if tier not in TIERS and tier != "auto":
        raise ValueError(
            f"unknown kernel tier {tier!r} (expected 'auto' or one of {TIERS})"
        )
    _REQUESTED = tier
    _ACTIVE = _resolve(tier)
    return _ACTIVE


def get_kernel_tier() -> str:
    """The *requested* tier (``auto`` until overridden)."""
    return _REQUESTED


def active_tier() -> str:
    """The tier calls actually dispatch to right now."""
    return _ACTIVE


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


def _init_from_environment() -> None:
    """Probe optional tiers and honour ``REPRO_KERNELS`` (import-time)."""
    _DETECTED["numba"] = _probe_numba()
    requested = os.environ.get("REPRO_KERNELS", "auto").strip().lower()
    if requested not in TIERS and requested != "auto":
        warnings.warn(
            f"REPRO_KERNELS={requested!r} is not one of "
            f"{('auto',) + TIERS}; using 'auto'",
            RuntimeWarning,
            stacklevel=2,
        )
        requested = "auto"
    set_kernel_tier(requested)
