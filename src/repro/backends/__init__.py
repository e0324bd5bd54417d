"""Pluggable simulation backends: protocol, registry, routing, caching.

This package turns the framework's simulators into a first-class subsystem
(paper §V-B dispatch + the §XI extension points):

* :mod:`repro.backends.base` — the :class:`Backend` protocol, its
  :class:`Capabilities` record and the :class:`CircuitFeatures` the router
  scores against;
* :mod:`repro.backends.registry` — string-named backend factories
  (``get_backend("mps")``), so backends are selectable from ``SuperSim``,
  the apps and the benchmark CLIs without imports;
* :mod:`repro.backends.adapters` — adapters for the five simulator
  families (stabilizer tableau, CH form, statevector, MPS, extended
  stabilizer), each with a capability record and cost model;
* :mod:`repro.backends.router` — :class:`BackendRouter`, which picks the
  cheapest capable backend per fragment;
* :mod:`repro.backends.cache` — the content-addressed
  :class:`VariantCache` that deduplicates variant simulations across
  fragments and across ``run()`` calls.

Plugging in a new backend::

    from repro.backends import Backend, Capabilities, register_backend

    class MyBackend(Backend):
        name = "mine"
        capabilities = Capabilities(max_qubits=30)
        def probabilities(self, circuit): ...
        def sample(self, circuit, shots, rng=None): ...

    register_backend("mine", MyBackend)
    SuperSim(execution=ExecutionConfig(backend="mine"))
    # ... or let the router score it, or pin one fragment after planning:
    # SuperSim().plan(circuit).with_backend(0, "mine").execute()
"""

from repro.backends.adapters import (
    CHFormBackend,
    ExtendedStabilizerBackend,
    LegacyBackendAdapter,
    MPSBackend,
    StabilizerBackend,
    StatevectorBackend,
    as_backend,
)
from repro.backends.base import Backend, Capabilities, CircuitFeatures
from repro.backends.calibration import (
    calibrated_router,
    calibration_circuit,
    default_cache_path,
    host_fingerprint,
    measure_cost_scales,
)
from repro.backends.cache import (
    VariantCache,
    approx_result_bytes,
    circuit_fingerprint,
    noise_fingerprint,
)
from repro.backends.registry import (
    available_backends,
    default_backend_pool,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.backends.router import BackendRouter, NoCapableBackendError

register_backend("stabilizer", StabilizerBackend)
register_backend("chform", CHFormBackend)
register_backend("statevector", StatevectorBackend)
register_backend("mps", MPSBackend)
register_backend("extended_stabilizer", ExtendedStabilizerBackend)

__all__ = [
    "Backend",
    "Capabilities",
    "CircuitFeatures",
    "BackendRouter",
    "NoCapableBackendError",
    "calibration_circuit",
    "calibrated_router",
    "default_cache_path",
    "host_fingerprint",
    "measure_cost_scales",
    "VariantCache",
    "approx_result_bytes",
    "circuit_fingerprint",
    "noise_fingerprint",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
    "default_backend_pool",
    "as_backend",
    "StabilizerBackend",
    "CHFormBackend",
    "StatevectorBackend",
    "MPSBackend",
    "ExtendedStabilizerBackend",
    "LegacyBackendAdapter",
]
