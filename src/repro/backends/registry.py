"""The backend registry: string names usable everywhere a backend is.

``register_backend("mps", factory)`` makes ``get_backend("mps")`` — and
therefore ``SuperSim(backend="mps")``, the benchmark CLIs and the apps —
construct that backend on demand.  Factories (not instances) are stored so
every caller gets a fresh, independently configurable backend; passing an
already-built :class:`~repro.backends.base.Backend` through
:func:`get_backend` is the identity, which is what keeps explicit instance
overrides working.
"""

from __future__ import annotations

from typing import Callable

from repro.backends.base import Backend

_REGISTRY: dict[str, Callable[..., Backend]] = {}


def register_backend(
    name: str, factory: Callable[..., Backend], replace: bool = False
) -> None:
    """Register a backend factory under ``name``.

    ``factory(**kwargs)`` must return a :class:`Backend`.  Re-registering an
    existing name raises unless ``replace=True`` (so tests can stub).
    """
    key = name.lower()
    if key in _REGISTRY and not replace:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[key] = factory


def unregister_backend(name: str) -> None:
    _REGISTRY.pop(name.lower(), None)


def get_backend(backend: str | Backend, **kwargs) -> Backend:
    """Resolve a backend name (or pass an instance through).

    ``kwargs`` are forwarded to the factory, e.g.
    ``get_backend("statevector", max_qubits=20)``.
    """
    if isinstance(backend, Backend):
        return backend
    key = str(backend).lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown backend {backend!r}; registered: {sorted(_REGISTRY)}"
        )
    instance = _REGISTRY[key](**kwargs)
    if not isinstance(instance, Backend):
        raise TypeError(
            f"factory for {backend!r} returned {type(instance).__name__}, "
            "not a Backend"
        )
    return instance


def available_backends() -> list[str]:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)


def default_backend_pool() -> list[Backend]:
    """One instance of each built-in backend — the default routing pool.

    The single source of truth for what ``SuperSim`` and
    ``FragmentEvaluator`` route over when no explicit router is given.
    Its statevector backend stops at 20 qubits.
    """
    return [
        get_backend("stabilizer"),
        get_backend("chform"),
        get_backend("statevector", max_qubits=20),
        get_backend("mps"),
        get_backend("extended_stabilizer"),
    ]
