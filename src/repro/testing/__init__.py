"""Testing utilities that ship with the library.

:mod:`repro.testing.chaos` — the deterministic fault-injection harness
(seeded exception / delay / worker-crash schedules, the
:class:`~repro.testing.chaos.ChaosBackend` persistent-failure wrapper,
and the :class:`~repro.testing.chaos.ChaosTransport` network-fault
wrapper) that the chaos test suite and the distributed-service
resilience/soak tests drive against the fault-tolerant execution engine.

:mod:`repro.testing.reconstruction` — the ``4^k`` assignment loop, the
oracle the einsum recombination is property-tested and benchmarked
against (import it explicitly; it pulls in :mod:`repro.core`).

:mod:`repro.testing.sampling` — the bit-major affine sampler the packed
``AffineOutcomeDistribution.sample_words`` replaced, its oracle.

:mod:`repro.testing.tomography` — the per-variant route of a Clifford
fragment (every variant spelled out and swept alone), the oracle of the
tensors read off its Pauli map (import it explicitly; it pulls in
:mod:`repro.core`).
"""

from repro.testing.chaos import (
    ChaosBackend,
    ChaosSchedule,
    ChaosTransport,
    ChaosTransportFactory,
    InjectedFault,
    SimulatedWorkerCrash,
)

__all__ = [
    "ChaosBackend",
    "ChaosSchedule",
    "ChaosTransport",
    "ChaosTransportFactory",
    "InjectedFault",
    "SimulatedWorkerCrash",
]
