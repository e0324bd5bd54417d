"""VQE machinery: Hamiltonians, Pauli expectations, CAFQA search (§IV-B).

CAFQA (the paper's reference [42]) initialises a VQA by searching over the
*Clifford points* of the ansatz parameter space, where every candidate can
be scored with cheap stabilizer simulation.  ``cafqa_search`` implements
that discrete coordinate-descent; ``pauli_expectation`` scores arbitrary
(near-Clifford) circuits through any backend that can produce output
distributions over a few qubits — including SuperSim, which is what enables
the paper's "near-CAFQA" extension (Clifford ansatz + a few T gates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.paulis.pauli import PauliString
from repro.stabilizer.simulator import StabilizerSimulator
from repro.stabilizer.tableau import pauli_expectations


@dataclass(frozen=True)
class Hamiltonian:
    """A weighted sum of Pauli strings: ``H = sum_k coeffs[k] * P_k``."""

    n_qubits: int
    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        for _, label in self.terms:
            if len(label) != self.n_qubits:
                raise ValueError(f"term {label!r} has wrong width")

    def paulis(self) -> list[tuple[float, PauliString]]:
        return [(c, PauliString.from_label(l)) for c, l in self.terms]


def transverse_field_ising(n: int, j: float = 1.0, h: float = 1.0) -> Hamiltonian:
    """``H = -J sum Z_i Z_{i+1} - h sum X_i`` on a chain."""
    terms: list[tuple[float, str]] = []
    for i in range(n - 1):
        label = "".join("Z" if q in (i, i + 1) else "I" for q in range(n))
        terms.append((-j, label))
    for i in range(n):
        label = "".join("X" if q == i else "I" for q in range(n))
        terms.append((-h, label))
    return Hamiltonian(n, tuple(terms))


def h2_hamiltonian() -> Hamiltonian:
    """The textbook 2-qubit H2 Hamiltonian (STO-3G, 0.735 A, parity mapping)."""
    return Hamiltonian(
        2,
        (
            (-1.052373245772859, "II"),
            (0.39793742484318045, "ZI"),
            (-0.39793742484318045, "IZ"),
            (-0.01128010425623538, "ZZ"),
            (0.18093119978423156, "XX"),
        ),
    )


_BASIS_ROTATION = {"X": (gates.H,), "Y": (gates.SDG, gates.H), "Z": (), "I": ()}


def as_scorer(backend):
    """Coerce a backend spec into something that can score circuits.

    A registered backend name becomes that backend; a backend or simulator
    object and a :class:`~repro.core.supersim.SuperSim` pass through.  To
    score through the cutting pipeline under particular settings, build
    the ``SuperSim`` from its configs and pass it.
    """
    if isinstance(backend, str):
        from repro.backends import get_backend

        return get_backend(backend)
    return backend


def pauli_expectation(circuit: Circuit, pauli: PauliString, backend) -> float:
    """``<P>`` of the circuit's output state through a distribution backend.

    ``backend`` is anything :func:`as_scorer` accepts — a registered
    backend name (``"statevector"``, ``"mps"``, ...), anything with a
    ``probabilities(circuit)`` method, a
    :class:`~repro.core.supersim.SuperSim` (whose
    ``run(circuit, keep_qubits=...)`` keeps the reconstruction narrow).
    The circuit is augmented with basis rotations so that ``<P>`` becomes
    a parity of Z-basis outcomes on P's support — which keeps the
    evaluation narrow even at large widths.
    """
    support = [q for q in range(pauli.n) if pauli.label()[q] != "I"]
    if not support:
        return float(pauli.scalar().real)
    rotated = circuit.copy()
    for q in support:
        for gate in _BASIS_ROTATION[pauli.label()[q]]:
            rotated.append(gate, q)
    rotated.measure(support)
    from repro.core.supersim import SuperSim

    backend = as_scorer(backend)
    if isinstance(backend, SuperSim):
        dist = backend.run(rotated, keep_qubits=support).distribution
    else:
        dist = backend.probabilities(rotated)
    return float(dist.parity_expectation() * pauli.scalar().real)


def energy(circuit: Circuit, hamiltonian: Hamiltonian, backend=None) -> float:
    """``<H>`` of the circuit's output state.

    ``backend`` may be ``None`` (stabilizer fast path) or anything
    :func:`as_scorer` accepts — a registered backend name, a backend
    object or a SuperSim instance.  With the default stabilizer backend
    (Clifford circuits only) each term is an exact expectation in
    {-1, 0, +1}, every term read off one backward walk — the CAFQA fast
    path.
    """
    if backend is None:
        backend = StabilizerSimulator()
    else:
        backend = as_scorer(backend)
    if isinstance(getattr(backend, "simulator", None), StabilizerSimulator):
        # unwrap the registry adapter so "stabilizer" hits the fast path
        backend = backend.simulator
    if isinstance(backend, StabilizerSimulator):
        terms = hamiltonian.paulis()
        values = pauli_expectations(circuit, [p for _c, p in terms])
        return float(sum(c * value for (c, _p), value in zip(terms, values)))
    return float(
        sum(
            c * pauli_expectation(circuit, p, backend)
            for c, p in hamiltonian.paulis()
        )
    )


def cafqa_search(
    ansatz,
    hamiltonian: Hamiltonian,
    iterations: int = 2,
    rng: np.random.Generator | int | None = None,
    initial_steps=None,
    restarts: int = 3,
) -> tuple[np.ndarray, float]:
    """Discrete coordinate descent over Clifford points of the ansatz.

    ``ansatz`` provides ``num_parameters`` and ``clifford_circuit(steps)``
    (e.g. :class:`repro.apps.hwea.HWEA`); each parameter takes a value in
    {0, 1, 2, 3} (multiples of pi/2).  The descent restarts from several
    random points (coordinate descent over a discrete cube is prone to local
    minima).  Returns ``(best_steps, best_energy)``.
    """
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    sim = StabilizerSimulator()
    best_steps: np.ndarray | None = None
    best_energy = np.inf
    for restart in range(max(1, restarts)):
        if initial_steps is not None and restart == 0:
            steps = np.array(initial_steps, dtype=int)
        else:
            steps = rng.integers(0, 4, size=ansatz.num_parameters)
        current_energy = energy(ansatz.clifford_circuit(steps), hamiltonian, sim)
        for _ in range(iterations):
            improved = False
            order = rng.permutation(ansatz.num_parameters)
            for index in order:
                current = steps[index]
                for candidate in range(4):
                    if candidate == current:
                        continue
                    steps[index] = candidate
                    e = energy(ansatz.clifford_circuit(steps), hamiltonian, sim)
                    if e < current_energy - 1e-12:
                        current_energy = e
                        current = candidate
                        improved = True
                steps[index] = current
            if not improved:
                break
        if current_energy < best_energy:
            best_energy = current_energy
            best_steps = steps.copy()
    return best_steps, best_energy
