"""The backend protocol: capabilities, circuit features, and cost models.

A *backend* is anything that can turn a circuit into outcome statistics.
The paper's central trick (§V-B) is routing each fragment variant to the
cheapest simulator that can handle it; this module defines the vocabulary
that makes the routing decision explicit instead of a hard-coded branch:

* :class:`Capabilities` — a static record of what a backend can do
  (Clifford-only?, width limits, exactness, noise support, affine
  readout);
* :class:`CircuitFeatures` — the per-circuit facts the router scores
  against (width, Clifford-ness, T-count, entangling depth);
* :class:`Backend` — the abstract interface every simulator adapter
  implements: ``probabilities`` / ``sample`` plus optional
  ``affine_distribution`` (exact Clifford output at any width),
  ``pauli_map`` (every variant of a Clifford fragment at once) and
  ``sample_noisy_bits`` (Pauli-frame noisy sampling), and an
  ``estimate_cost`` model used to pick the cheapest capable backend.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.analysis.distributions import Distribution
from repro.circuits.circuit import Circuit


@dataclass(frozen=True)
class Capabilities:
    """Static description of a backend's admissible workloads.

    ``max_qubits`` limits every mode; ``max_qubits_exact`` further limits
    exact (``probabilities``) evaluation when enumeration is the only
    readout (``None`` means the same as ``max_qubits``).
    """

    clifford_only: bool = False
    max_qubits: int | None = None
    max_qubits_exact: int | None = None
    exact: bool = True
    supports_noise: bool = False
    affine: bool = False
    diagonal_nonclifford_only: bool = False


@dataclass(frozen=True)
class CircuitFeatures:
    """The facts about a circuit that drive backend selection."""

    n_qubits: int
    num_ops: int
    is_clifford: bool
    t_count: int
    two_qubit_count: int
    entangling_depth: int
    has_nondiagonal_nonclifford: bool

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "CircuitFeatures":
        """The features of ``circuit``, counted once per op count: kept in
        its :meth:`~repro.circuits.circuit.Circuit.derived` space, so
        routing, job building and cost estimates share one count."""
        derived = circuit.derived()
        features = derived.get("features")
        if features is None:
            features = derived["features"] = cls._count(circuit)
        return features

    @classmethod
    def _count(cls, circuit: Circuit) -> "CircuitFeatures":
        """The features read off ``circuit``'s op table by walks of its
        column lists: the multi-qubit ops and the non-Clifford count by
        gate lookup, the entangling depth over the multi-qubit ops."""
        table = circuit.table
        gate_index = table.gate_index.tolist()
        arity = table.arity.tolist()
        wide = [
            (a, arity[g])
            for g, a in zip(gate_index, table.offsets.tolist())
            if arity[g] >= 2
        ]
        t_count = sum(map((~table.clifford).tolist().__getitem__, gate_index))
        wires = table.wires.tolist()
        level = [0] * circuit.n_qubits
        for a, k in wide:
            if k == 2:  # the common case, spelled out
                p, q = wires[a], wires[a + 1]
                level[p] = level[q] = max(level[p], level[q]) + 1
                continue
            qubits = wires[a : a + k]
            new = max([level[q] for q in qubits]) + 1
            for q in qubits:
                level[q] = new
        return cls(
            n_qubits=circuit.n_qubits,
            num_ops=len(table),
            is_clifford=t_count == 0,
            t_count=t_count,
            two_qubit_count=len(wide),
            entangling_depth=max(level, default=0),
            has_nondiagonal_nonclifford=any(
                not clifford
                and gate.num_qubits >= 2
                and not np.allclose(
                    gate.matrix, np.diag(np.diag(gate.matrix)), atol=1e-12
                )
                for gate, clifford in zip(table.gates, table.clifford)
            ),
        )


class Backend(abc.ABC):
    """Abstract simulator interface consumed by the router and the engine.

    Concrete adapters wrap the existing simulator classes (which remain the
    implementation core) — see :mod:`repro.backends.adapters`.
    """

    name: str = "backend"
    capabilities: Capabilities = Capabilities()

    @abc.abstractmethod
    def probabilities(self, circuit: Circuit) -> Distribution:
        """Exact outcome distribution over the circuit's measured qubits."""

    @abc.abstractmethod
    def sample(
        self,
        circuit: Circuit,
        shots: int,
        rng: np.random.Generator | int | None = None,
    ) -> Distribution:
        """Empirical outcome distribution from ``shots`` samples."""

    # -- optional capabilities ------------------------------------------------

    def affine_distribution(self, circuit: Circuit):
        """Exact Clifford output in affine-subspace form (any width).

        Only meaningful when ``capabilities.affine`` is true.
        """
        raise NotImplementedError(f"{self.name} has no affine readout")

    def pauli_map(self, body: Circuit, inputs, outputs):
        """Every variant of a Clifford fragment at once: how ``body``
        conjugates Paulis (:class:`~repro.stabilizer.tableau.PauliMap`),
        which the fragment's tomography is read from.

        ``inputs`` and ``outputs`` are the fragment's cut wires in order.
        Only meaningful when ``capabilities.affine`` is true.
        """
        raise NotImplementedError(f"{self.name} has no affine readout")

    def sample_noisy_bits(
        self,
        circuit: Circuit,
        noise,
        shots: int,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """(shots, m) outcome bits under a Pauli noise model.

        Only meaningful when ``capabilities.supports_noise`` is true.
        """
        raise NotImplementedError(f"{self.name} does not support noise")

    # -- routing ------------------------------------------------------------

    def can_handle(
        self, features: CircuitFeatures, exact: bool = True, noisy: bool = False
    ) -> bool:
        """Whether this backend admits the circuit at all."""
        caps = self.capabilities
        if caps.clifford_only and not features.is_clifford:
            return False
        if noisy and not caps.supports_noise:
            return False
        if exact and not caps.exact:
            return False
        if caps.diagonal_nonclifford_only and features.has_nondiagonal_nonclifford:
            return False
        limit = caps.max_qubits
        if exact and caps.max_qubits_exact is not None:
            limit = caps.max_qubits_exact
        if limit is not None and features.n_qubits > limit:
            return False
        return True

    def estimate_cost(
        self, features: CircuitFeatures, mode: str = "exact"
    ) -> float:
        """Rough per-variant cost estimate; lower wins at routing time.

        ``mode`` is ``"exact"`` (full ``probabilities`` readout) or
        ``"sampled"`` (``sample`` / noisy bit sampling) — backends whose
        exact readout enumerates the output space are much cheaper when
        only samples are needed, and modelling that keeps the router from
        over-charging them for sampled fragments.  Units are arbitrary but
        must be comparable across backends.  The router passes ``mode`` by
        keyword.
        """
        return float(features.num_ops + 1) * float(features.n_qubits + 1)

    def cache_token(self) -> tuple:
        """A stable, hashable description of this backend's configuration.

        Used as the backend component of variant-cache keys: two instances
        with equal tokens must produce identical results for identical
        circuits.  The default captures the class identity plus every
        scalar attribute of the backend and of a wrapped ``simulator``
        (which covers knobs like ``max_bond`` or ``mixing_steps`` that
        change results).  Override when configuration lives elsewhere.
        """

        def scalars(obj) -> tuple:
            attrs = getattr(obj, "__dict__", None) or {}
            return tuple(
                sorted(
                    (k, v)
                    for k, v in attrs.items()
                    if isinstance(v, (int, float, str, bool, type(None)))
                )
            )

        token: tuple = (
            type(self).__module__,
            type(self).__qualname__,
            self.name,
            scalars(self),
        )
        simulator = getattr(self, "simulator", None)
        if simulator is not None:
            token += (type(simulator).__qualname__, scalars(simulator))
        return token

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
