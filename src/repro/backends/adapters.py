"""Backend adapters wrapping the five simulator families.

Each adapter keeps the existing simulator class as its implementation core
and adds the three things the routing layer needs: a
:class:`~repro.backends.base.Capabilities` record, a cost model, and a
uniform ``probabilities`` / ``sample`` surface.  The cost models encode the
paper's scaling facts (tableau ~ n^2, statevector ~ 2^n, MPS ~ chi^3 with
chi growing with entangling depth, extended stabilizer ~ 2^T), which is
what makes "cheapest capable backend" reproduce — and generalise — the old
``if fragment.is_clifford`` dispatch.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.distributions import Distribution, enumerated_bit_rows
from repro.backends.base import Backend, Capabilities, CircuitFeatures
from repro.circuits.circuit import Circuit


class StabilizerBackend(Backend):
    """Tableau simulation: exact affine output at any width, Clifford only."""

    name = "stabilizer"
    capabilities = Capabilities(
        clifford_only=True,
        exact=True,
        supports_noise=True,
        affine=True,
    )

    def __init__(self):
        from repro.stabilizer.simulator import StabilizerSimulator

        self.simulator = StabilizerSimulator()

    def probabilities(self, circuit: Circuit) -> Distribution:
        return self.simulator.probabilities(circuit)

    def sample(self, circuit, shots, rng=None) -> Distribution:
        return self.simulator.sample(circuit, shots, rng)

    def affine_distribution(self, circuit: Circuit):
        return self.simulator.affine_distribution(circuit)

    def pauli_map(self, body: Circuit, inputs, outputs):
        return self.simulator.pauli_map(body, inputs, outputs)

    def sample_noisy_bits(self, circuit, noise, shots, rng=None) -> np.ndarray:
        from repro.stabilizer.frames import FrameSampler

        return FrameSampler(circuit, noise).sample_bits(shots, rng)

    def estimate_cost(
        self, features: CircuitFeatures, mode: str = "exact"
    ) -> float:
        # bit-packed word-parallel tableau: a gate is a few big-int ops
        # over all 2n rows (~n/64 words each) and the measurement
        # sweep ~n^2/64 — the cheapest Clifford engine by a wide margin,
        # exact at any width, and its affine readout makes sampling no
        # more expensive than exact evaluation (mode-independent)
        n = features.n_qubits
        return (
            float(n) * float(features.num_ops + 1) + float(n * n)
        ) / 64.0


class CHFormBackend(Backend):
    """Phase-exact stabilizer simulation through a single CH form.

    Functionally a (narrower) alternative to the tableau: it tracks the
    global phase, and readout enumerates amplitudes, so exact evaluation is
    limited to small registers.  Registered mainly as the routing target
    for phase-sensitive Clifford work and as the simplest template for
    plugging in a new backend.
    """

    name = "chform"
    capabilities = Capabilities(
        clifford_only=True,
        max_qubits=16,
        exact=True,
        pool="process",
    )

    def __init__(self, max_qubits: int = 16):
        self.max_qubits = max_qubits

    def _state(self, circuit: Circuit):
        from repro.chform.state import CHForm

        if circuit.n_qubits > self.max_qubits:
            raise ValueError(
                f"{circuit.n_qubits} qubits exceeds the CH-form enumeration "
                f"limit of {self.max_qubits}"
            )
        state = CHForm(circuit.n_qubits)
        state.apply_circuit(circuit)
        return state

    def probabilities(self, circuit: Circuit) -> Distribution:
        state = self._state(circuit)
        n = circuit.n_qubits
        probs = np.abs(state.amplitudes(enumerated_bit_rows(n))) ** 2
        full = Distribution.from_array(probs)
        measured = circuit.measured_qubits
        if measured == tuple(range(n)):
            return full
        return full.marginal(list(measured))

    def sample(self, circuit, shots, rng=None) -> Distribution:
        return self.probabilities(circuit).resample(shots, rng)

    def estimate_cost(
        self, features: CircuitFeatures, mode: str = "exact"
    ) -> float:
        n = features.n_qubits
        # gate cost ~ tableau (with a phase-tracking constant); readout
        # enumerates 2^n amplitudes at O(n^2) each — in both modes, since
        # sample() draws from the enumerated distribution
        return 8.0 * float(n * n) * float(features.num_ops + 1) + float(
            n * n
        ) * float(2 ** min(n, 26))


class StatevectorBackend(Backend):
    """Dense exact simulation; the ground-truth backend for narrow circuits."""

    name = "statevector"
    capabilities = Capabilities(max_qubits=26, exact=True)

    def __init__(self, max_qubits: int = 26):
        from repro.statevector.simulator import StatevectorSimulator

        self.simulator = StatevectorSimulator(max_qubits=max_qubits)
        self.capabilities = Capabilities(max_qubits=max_qubits, exact=True)

    def probabilities(self, circuit: Circuit) -> Distribution:
        return self.simulator.probabilities(circuit)

    def sample(self, circuit, shots, rng=None) -> Distribution:
        return self.simulator.sample(circuit, shots, rng)

    def estimate_cost(
        self, features: CircuitFeatures, mode: str = "exact"
    ) -> float:
        # 2^n amplitudes touched per gate; exact readout additionally
        # builds and marginalises the dense 2^n distribution, while
        # sampling just draws indices from the amplitude array — charging
        # the full exact constant to sampled fragments over-penalised the
        # statevector at routing time
        scale = 4.0 if mode == "exact" else 1.0
        return scale * float(2**features.n_qubits) * float(features.num_ops + 1)


class MPSBackend(Backend):
    """Matrix-product-state simulation: wide but shallow-entanglement work."""

    name = "mps"
    capabilities = Capabilities(
        max_qubits=None, max_qubits_exact=14, exact=True, pool="process"
    )

    def __init__(self, cutoff: float = 1e-12, max_bond: int | None = None):
        from repro.mps.simulator import MPSSimulator

        self.simulator = MPSSimulator(cutoff=cutoff, max_bond=max_bond)

    def probabilities(self, circuit: Circuit) -> Distribution:
        return self.simulator.probabilities(circuit)

    def sample(self, circuit, shots, rng=None) -> Distribution:
        return self.simulator.sample(circuit, shots, rng)

    def estimate_cost(
        self, features: CircuitFeatures, mode: str = "exact"
    ) -> float:
        # bond dimension grows with entangling depth, capped by width;
        # SVD per two-qubit gate carries a heavy constant.  The chain
        # dominates in both modes (exact readout is width-capped anyway).
        chi = 2.0 ** min(features.entangling_depth, features.n_qubits // 2, 10)
        return 64.0 * float(features.num_ops + 1) * float(features.n_qubits) * chi**3


class ExtendedStabilizerBackend(Backend):
    """Low-rank stabilizer (Clifford+T) simulation; cost doubles per T gate."""

    name = "extended_stabilizer"
    capabilities = Capabilities(
        max_qubits=63,
        max_qubits_exact=16,
        exact=True,
        diagonal_nonclifford_only=True,
        pool="process",
    )

    def __init__(
        self,
        max_qubits: int = 63,
        mixing_steps: int = 5000,
        max_terms: int = 4096,
    ):
        from repro.extended_stabilizer.simulator import ExtendedStabilizerSimulator

        self.simulator = ExtendedStabilizerSimulator(
            max_qubits=max_qubits,
            mixing_steps=mixing_steps,
            max_terms=max_terms,
        )

    def probabilities(self, circuit: Circuit) -> Distribution:
        return self.simulator.probabilities(circuit)

    def sample(self, circuit, shots, rng=None) -> Distribution:
        return self.simulator.sample(circuit, shots, rng)

    def can_handle(self, features, exact=True, noisy=False) -> bool:
        if not super().can_handle(features, exact=exact, noisy=noisy):
            return False
        # each non-Clifford diagonal doubles the stabilizer rank
        return 2**features.t_count <= self.simulator.max_terms

    def estimate_cost(
        self, features: CircuitFeatures, mode: str = "exact"
    ) -> float:
        # rank = 2^T terms, each tableau-like per gate; exact readout
        # costs rank * n^2 per amplitude over an effectively-2^n support,
        # while the sampled path mixes a norm-estimation chain whose
        # length is fixed (mixing_steps), not exponential in width
        n = features.n_qubits
        rank = float(2 ** min(features.t_count, 12))
        gate_cost = 16.0 * rank * float(n * n) * float(features.num_ops + 1)
        if mode == "exact":
            readout = rank * float(n * n) * float(2 ** min(n, 26))
        else:
            readout = rank * float(n * n) * float(self.simulator.mixing_steps)
        return gate_cost + readout


class LegacyBackendAdapter(Backend):
    """Wraps a bare duck-typed simulator (``probabilities`` + ``sample``).

    This is what lets ``ExecutionPlan.with_backend`` accept a bare
    simulator: any object exposing the old informal protocol becomes a
    routable backend with permissive capabilities.
    """

    def __init__(self, simulator, name: str | None = None):
        self.simulator = simulator
        self.name = name or getattr(simulator, "name", type(simulator).__name__)
        self.capabilities = Capabilities(exact=True)

    def probabilities(self, circuit: Circuit) -> Distribution:
        return self.simulator.probabilities(circuit)

    def sample(self, circuit, shots, rng=None) -> Distribution:
        return self.simulator.sample(circuit, shots, rng)


def as_backend(obj, name: str | None = None) -> Backend:
    """Coerce an object to a :class:`Backend` (identity for real backends)."""
    if isinstance(obj, Backend):
        return obj
    return LegacyBackendAdapter(obj, name=name)
