"""High-level stabilizer simulator facade (the framework's Stim)."""

from __future__ import annotations

import numpy as np

from repro.analysis.distributions import Distribution
from repro.circuits.circuit import Circuit
from repro.paulis.pauli import PauliString
from repro.stabilizer.frames import FrameSampler
from repro.stabilizer.noise import NoiseModel
from repro.stabilizer.tableau import (
    PREPEND_GATES,
    AffineOutcomeDistribution,
    Tableau,
    move_outcome_row,
)


#: collapsed tableaus kept per body (one per recent preparation); each is
#: the size of the evolved tableau plus a ``measured x symbols`` bool matrix
COLLAPSED_KEPT = 4


def _around_shared_body(circuit: Circuit):
    """``(body, prefix, suffix)`` of a circuit around a shared body whose
    prefix :meth:`Tableau.prepend` can compose; ``None`` for any other."""
    shared = circuit.shared_body()
    if shared is None:
        return None
    body, start, stop = shared
    prefix = circuit.ops[:start]
    if not all(op.gate.name in PREPEND_GATES for op in prefix):
        return None
    return body, prefix, circuit.ops[stop:]


def _prepared(body: Circuit, prefix) -> Tableau:
    """A writable tableau of ``prefix`` then ``body``, the body evolved once."""
    derived = body.derived()
    evolved = derived.get("tableau")
    if evolved is None:
        evolved = Tableau(body.n_qubits)
        evolved.apply_circuit(body)
        derived["tableau"] = evolved.freeze()
    tableau = evolved.copy()
    for op in reversed(prefix):
        tableau.prepend(op.gate.name, op.qubits[0])
    return tableau


def _collapsed(body: Circuit, prefix, early: tuple[int, ...]):
    """``(tableau, A, b)`` after ``prefix``, ``body`` and the symbolic
    measurement of ``early``, shared through ``body.derived()``."""
    key = (tuple((op.gate.name, op.qubits[0]) for op in prefix), early)
    derived = body.derived()
    kept = derived.get("collapsed", {})
    entry = kept.get(key)
    if entry is None:
        tableau = _prepared(body, prefix)
        # room for the late wires' symbols too: copies never have to grow
        tableau.reset_symbols(body.n_qubits)
        A, b = tableau.measure_symbolic_rows(early)
        A.setflags(write=False)
        b.setflags(write=False)
        entry = (tableau.freeze(), A, b)
        # a new dict per insertion: readers in other threads never see one
        # change under them, and a lost update only repeats a sweep
        recent = list(kept.items())[-(COLLAPSED_KEPT - 1) :]
        derived["collapsed"] = dict(recent + [(key, entry)])
    return entry


def _measured_late(
    body: Circuit, prefix, suffix, late: frozenset, measured: tuple[int, ...]
) -> AffineOutcomeDistribution:
    """Outcome form of ``prefix + body + suffix`` over ``measured``: the
    shared sweep, then the ``late`` wires, then their rows moved into place."""
    collapsed, A_early, b_early = _collapsed(
        body, prefix, tuple(q for q in measured if q not in late)
    )
    tableau = collapsed.copy()
    for op in suffix:
        tableau.apply_operation(op.gate, op.qubits)
    targets = [i for i, q in enumerate(measured) if q in late]
    A_late, b_late = tableau.measure_symbolic_rows([measured[i] for i in targets])
    A = np.zeros((len(measured), A_late.shape[1]), dtype=bool)
    A[: A_early.shape[0], : A_early.shape[1]] = A_early
    A[A_early.shape[0] :] = A_late
    b = np.concatenate([b_early, b_late])
    # late row i sits behind the early rows and the late rows already
    # moved; everything in front of its target is final
    for src, dst in enumerate(targets, start=len(b_early)):
        A, b = move_outcome_row(A, b, src, dst)
    return AffineOutcomeDistribution(A, b)


class StabilizerSimulator:
    """Clifford-circuit simulation with Stim-like capabilities.

    * exact output distributions (affine-subspace form, any width),
    * fast multi-shot sampling,
    * exact Pauli expectations in {-1, 0, +1},
    * Pauli-frame noisy sampling.

    Backed by the bit-packed word-parallel tableau
    (:mod:`repro.stabilizer.tableau`): circuits run as fused same-gate
    layers over ``uint64``-packed generator rows, so gate cost scales as
    ``n/64`` per layer column and measurement as ``n^2/64``.
    """

    name = "stabilizer"

    def run(self, circuit: Circuit) -> Tableau:
        """Evolve |0...0> through the circuit; returns the final tableau.

        A circuit around a shared body (:meth:`Circuit.shared_body` — the
        variants of one fragment) evolves the body once: its tableau is
        kept, frozen, on the body object, and each circuit copies it,
        composes its state-preparation gates in front
        (:meth:`Tableau.prepend`) and applies its trailing gates.  Prefix
        gates ``prepend`` does not know fall back to plain evolution.
        """
        around = _around_shared_body(circuit)
        if around is not None:
            body, prefix, suffix = around
            tableau = _prepared(body, prefix)
            for op in suffix:
                tableau.apply_operation(op.gate, op.qubits)
            return tableau
        tableau = Tableau(circuit.n_qubits)
        tableau.apply_circuit(circuit)
        return tableau

    def affine_distribution(self, circuit: Circuit) -> AffineOutcomeDistribution:
        """Exact outcome distribution in affine-subspace form.

        Works at any width — this is what lets the framework evaluate
        Clifford fragments with hundreds of qubits exactly.

        The general path is one symbolic measurement sweep of
        :meth:`run`'s tableau.  The circuits around one shared body that
        also share their preparation differ, after the body, only by
        single-qubit gates on the wires the body was embedded with as
        :meth:`Circuit.measured_last` — a fragment's cut wires, a
        variant's measurement basis.  Those circuits share the sweep over
        every other measured wire: it runs once, on the prepared tableau,
        and the collapsed tableau and its outcome rows stay on the body
        (the last :data:`COLLAPSED_KEPT` preparations; variants come
        preparation-major).  Each circuit then copies that tableau, applies
        its trailing gates, measures its cut wires and moves their rows
        from the end into ``measured_qubits`` order
        (:func:`~repro.stabilizer.tableau.move_outcome_row`) — the same
        ``A`` and ``b``, bit for bit, as the general path, which anything
        else takes: another prefix or suffix, and any circuit that has
        lost its body (mutated, or unpickled in a worker process).
        """
        around = _around_shared_body(circuit)
        if around is not None:
            body, prefix, suffix = around
            late = circuit.measured_last()
            if all(
                op.gate.is_clifford and len(op.qubits) == 1 and op.qubits[0] in late
                for op in suffix
            ):
                return _measured_late(
                    body, prefix, suffix, late, circuit.measured_qubits
                )
        return self.run(circuit).measurement_distribution(circuit.measured_qubits)

    def probabilities(self, circuit: Circuit, max_free: int = 20) -> Distribution:
        """Exact enumerated distribution (support must be <= 2**max_free)."""
        return self.affine_distribution(circuit).to_distribution(max_free)

    def sample(
        self,
        circuit: Circuit,
        shots: int,
        rng: np.random.Generator | int | None = None,
    ) -> Distribution:
        return self.affine_distribution(circuit).sample(shots, rng)

    def expectation(self, circuit: Circuit, pauli: PauliString) -> int:
        """Exact <P> of the final state: -1, 0, or +1 (paper §IX)."""
        return self.run(circuit).expectation(pauli)

    def sample_noisy(
        self,
        circuit: Circuit,
        noise: NoiseModel,
        shots: int,
        rng: np.random.Generator | int | None = None,
    ) -> Distribution:
        """Noisy sampling via Pauli-frame propagation."""
        return FrameSampler(circuit, noise).sample(shots, rng)
