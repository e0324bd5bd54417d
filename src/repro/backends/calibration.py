"""Cost-model calibration: measure the router's constants on this machine.

The backend cost models (:meth:`Backend.estimate_cost`) fix each
simulator's *scaling shape* — tableau ``n^2/64``, statevector ``2^n``, MPS
``chi^3``, extended stabilizer ``2^T`` — in arbitrary comparable units.
Routing only needs the models' *ratios* to be right, and those ratios
depend on machine constants (numpy dispatch overhead, BLAS speed, cache
sizes) the analytic models cannot know.

:func:`measure_cost_scales` closes that gap: it times every backend on a
small canonical workload its capabilities admit, divides measured seconds
by the model's prediction, and returns per-backend multipliers.  Feed the
result straight to the router::

    from repro.backends import BackendRouter
    from repro.backends.calibration import measure_cost_scales

    router = BackendRouter(cost_scales=measure_cost_scales())
    SuperSim(execution=ExecutionConfig(router=router))

With calibrated scales, a backend's scored cost is (roughly) predicted
wall-clock seconds on this machine, so "cheapest capable backend" becomes
"fastest capable backend".

The constants are measured *per machine*, not per repo, so
``measure_cost_scales(cache_path=...)`` persists them keyed by a host
fingerprint (platform + CPU count): a later call on the same host reads
the file back instead of re-timing, and a call on a *different* host
(changed container image, new CPU count) auto-remeasures and overwrites.
``calibrated_router()`` wraps the whole recipe in one call.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.backends.base import Backend, CircuitFeatures
from repro.backends.registry import available_backends, get_backend
from repro.circuits.circuit import Circuit
from repro.circuits.gates import T
from repro.circuits.random import random_clifford_circuit


def calibration_circuit(backend: Backend, seed: int = 0) -> Circuit:
    """A small canonical workload admitted by ``backend``'s capabilities.

    Clifford-only backends get a pure random Clifford circuit; everyone
    else gets the same circuit with a diagonal non-Clifford (T) gate
    appended, which also satisfies ``diagonal_nonclifford_only`` backends.
    """
    caps = backend.capabilities
    width = 8
    for limit in (caps.max_qubits, caps.max_qubits_exact):
        if limit is not None:
            width = min(width, limit)
    width = max(2, width)
    circuit = random_clifford_circuit(width, 2 * width, rng=seed)
    if not caps.clifford_only:
        circuit.append(T, 0)
    circuit.measure_all()
    return circuit


def host_fingerprint() -> str:
    """A stable identifier of the machine the constants were measured on.

    Covers the facts that move the measured ratios: CPU architecture and
    platform, logical CPU count and the Python/numpy major environment;
    the trailing ``kernels=numpy`` field keeps fingerprints comparable
    with constants measured by earlier releases.  Deliberately excludes
    anything repo- or checkout-specific.
    """
    from repro.kernels import active_tier

    return "|".join(
        (
            platform.system(),
            platform.machine(),
            f"cpus={os.cpu_count()}",
            f"py={platform.python_version_tuple()[0]}.{platform.python_version_tuple()[1]}",
            f"numpy={np.__version__.split('.')[0]}.{np.__version__.split('.')[1]}",
            f"kernels={active_tier()}",
        )
    )


def default_cache_path() -> Path:
    """Where calibration constants persist by default.

    ``$REPRO_CALIBRATION_CACHE`` overrides; otherwise the XDG cache dir
    (``$XDG_CACHE_HOME`` or ``~/.cache``) under ``repro-supersim/``.
    """
    override = os.environ.get("REPRO_CALIBRATION_CACHE")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro-supersim" / "cost_scales.json"


def _same_host_scales(path: Path) -> dict[str, float]:
    """Every valid cached scale measured on *this* host (possibly empty).

    A file from a different host, an unreadable file, or entries that are
    not positive floats all contribute nothing.
    """
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        return {}  # no cache yet: the normal first-run case, stay quiet
    except (OSError, ValueError) as exc:
        # a cache that exists but cannot be read is worth a warning:
        # silently re-measuring makes startup mysteriously slow
        import warnings

        warnings.warn(
            f"ignoring unreadable calibration cache {path} "
            f"({type(exc).__name__}: {exc}); re-measuring cost scales",
            RuntimeWarning,
            stacklevel=3,
        )
        return {}
    if payload.get("host") != host_fingerprint():
        return {}  # measured on a different machine: remeasure
    scales = payload.get("scales")
    if not isinstance(scales, dict):
        return {}
    valid: dict[str, float] = {}
    for name, value in scales.items():
        try:
            value = float(value)
        except (TypeError, ValueError):
            continue
        if value > 0:
            valid[name] = value
    return valid


def _load_cached_scales(path: Path, wanted: list[str]) -> dict[str, float]:
    """Cached same-host scales restricted to ``wanted`` (possibly partial)."""
    scales = _same_host_scales(path)
    return {name: scales[name] for name in wanted if name in scales}


def _store_scales(path: Path, scales: dict[str, float]) -> None:
    payload = {"host": host_fingerprint(), "scales": scales}
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        os.replace(tmp, path)
    except OSError:
        pass  # persistence is best-effort; the measurement still returns


def measure_cost_scales(
    backends: list[Backend | str] | None = None,
    repeats: int = 3,
    seed: int = 0,
    cache_path: str | Path | bool | None = None,
) -> dict[str, float]:
    """Measured seconds-per-model-unit for each backend.

    Each backend runs its calibration workload ``repeats`` times (best
    time wins, to shed warm-up noise) through the same entry point the
    evaluator uses — ``affine_distribution`` for affine-capable backends,
    ``probabilities`` otherwise.  The returned mapping plugs into
    ``BackendRouter(cost_scales=...)``.

    ``cache_path`` persists the constants keyed by :func:`host_fingerprint`:
    ``True`` uses :func:`default_cache_path`, a path uses that file, and
    ``None``/``False`` (default) measures fresh without touching disk.
    A cached entry from a different host is ignored wholesale; on the same
    host only the backends the cache does not yet cover are re-timed.
    """
    if backends is None:
        backends = available_backends()
    resolved = [
        get_backend(b) if isinstance(b, str) else b for b in backends
    ]
    path: Path | None = None
    if cache_path is True:
        path = default_cache_path()
    elif cache_path not in (None, False):
        path = Path(cache_path)
    cached: dict[str, float] = {}
    if path is not None:
        cached = _load_cached_scales(path, [b.name for b in resolved])
        if all(b.name in cached for b in resolved):
            return cached
        resolved = [b for b in resolved if b.name not in cached]
    scales: dict[str, float] = {}
    for backend in resolved:
        circuit = calibration_circuit(backend, seed=seed)
        features = CircuitFeatures.from_circuit(circuit)
        predicted = float(backend.estimate_cost(features))
        if predicted <= 0:  # defensive: degenerate model
            continue

        def run() -> None:
            if backend.capabilities.affine:
                backend.affine_distribution(circuit)
            else:
                backend.probabilities(circuit)

        run()  # warm caches (compiled programs, lazy imports)
        best = np.inf
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        scales[backend.name] = best / predicted
    if path is not None:
        # keep same-host constants for backends not re-measured now
        _store_scales(path, {**_same_host_scales(path), **scales})
    return {**cached, **scales}


def calibrated_router(
    cache_path: str | Path | bool | None = True, **router_kwargs
):
    """A :class:`~repro.backends.router.BackendRouter` with measured scales.

    Persists the measurement under the host fingerprint by default
    (``cache_path=True``), so repeated sessions on one machine pay the
    timing cost once and a moved checkout (different host) re-calibrates
    automatically::

        SuperSim(execution=ExecutionConfig(router=calibrated_router()))
    """
    from repro.backends.router import BackendRouter

    scales = measure_cost_scales(cache_path=cache_path)
    return BackendRouter(cost_scales=scales, **router_kwargs)
