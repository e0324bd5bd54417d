"""High-level stabilizer simulator facade (the framework's Stim).

Besides the facade, this module holds what the variants of one fragment
share (:meth:`StabilizerSimulator.affine_distribution`): the body's Choi
tableau after one symbolic sweep (:func:`_swept`), its post-selection on a
preparation (:func:`_collapsed`) and the per-variant measurement of the cut
wires (:func:`_measured_late`), all kept on the body's
:meth:`~repro.circuits.circuit.Circuit.derived` space.
:meth:`StabilizerSimulator.run` shares none of it: it evolves the circuit
from |0...0>, reusing only the body's compiled layers.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.distributions import Distribution
from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.errors import PostSelectionError
from repro.paulis.pauli import PauliString
from repro.stabilizer.frames import FrameSampler
from repro.stabilizer.noise import NoiseModel
from repro.stabilizer.tableau import (
    AffineOutcomeDistribution,
    Tableau,
    compile_clifford_layers,
    move_outcome_row,
    substitute_symbol,
)


#: conditioned tableaus kept per body (one per recent preparation); each is
#: the size of the swept tableau plus a ``measured x symbols`` bool matrix
COLLAPSED_KEPT = 4

#: how each tomographic preparation of an input wire, named by the gates
#: that prepare it (:mod:`repro.core.variants`), is post-selected on the
#: wire's Bell ancilla: the gates to put on the ancilla, then the Z outcome
#: to keep.  Keeping ``<psi|`` on the ancilla hands the wire the transpose
#: ``|psi*>``, so |+i> is Y outcome 1 — which S then H turn into Z outcome 0
_POST_SELECTIONS = {
    (): ((), False),  # |0>: Z outcome 0
    ("X",): ((), True),  # |1>: Z outcome 1
    ("H",): ((gates.H,), False),  # |+>: X outcome 0
    ("H", "S"): ((gates.S, gates.H), False),  # |+i>
}


def _preparations(prefix, inputs: tuple[int, ...]):
    """The gate names ``prefix`` puts on each wire of ``inputs``, in wire
    order; ``None`` unless that is one of the four preparations on each
    and ``prefix`` touches no other wire."""
    names: dict[int, tuple[str, ...]] = {q: () for q in inputs}
    for op in prefix:
        q = op.qubits[0]
        if q not in names:
            return None
        names[q] += (op.gate.name,)
    preps = tuple(names[q] for q in inputs)
    return preps if all(prep in _POST_SELECTIONS for prep in preps) else None


def _swept(body: Circuit, inputs: tuple[int, ...], early: tuple[int, ...]):
    """``(tableau, A, b)`` of ``body`` with every wire of ``inputs``
    Bell-paired to an ancilla behind the body's wires, after the symbolic
    measurement of ``early``; the one such sweep ``body.derived()`` keeps."""
    key = (inputs, early)
    derived = body.derived()
    entry = derived.get("swept")
    if entry is None or entry[0] != key:
        n = body.n_qubits
        # room for an ancilla's symbol and the late wires' too: copies
        # never have to grow
        tableau = Tableau(n + len(inputs), max_symbols=n + 1)
        for ancilla, q in enumerate(inputs, start=n):
            tableau.h(ancilla)
            tableau.cx(ancilla, q)
        tableau.apply_layers(compile_clifford_layers(body))
        A, b = tableau.measure_symbolic_rows(early)
        A.setflags(write=False)
        b.setflags(write=False)
        entry = derived["swept"] = (key, tableau.freeze(), A, b)
    return entry[1:]


def _collapsed(body: Circuit, inputs: tuple[int, ...], preps, early: tuple[int, ...]):
    """``(tableau, A, b)`` after the preparations ``preps`` of ``inputs``,
    ``body`` and the symbolic measurement of ``early``: the shared sweep,
    post-selected on each input's ancilla; kept on ``body.derived()``."""
    key = (inputs, preps, early)
    derived = body.derived()
    kept = derived.get("collapsed", {})
    entry = kept.get(key)
    if entry is None:
        swept, A, b = _swept(body, inputs, early)
        tableau, A, b = swept.copy(), A.copy(), b.copy()
        for ancilla, (wire, prep) in enumerate(zip(inputs, preps), start=body.n_qubits):
            basis, wanted = _POST_SELECTIONS[prep]
            for gate in basis:
                tableau.apply_operation(gate, (ancilla,))
            coeffs, const = tableau.measure_symbolic(ancilla)
            if not coeffs.any():
                # half of a Bell pair is maximally mixed whatever happened
                # to the other half: there is nothing to condition on
                raise PostSelectionError(
                    f"the ancilla of input wire {wire} of {body!r} measured to "
                    f"the constant {int(const)} while post-selecting the "
                    f"preparations {preps}"
                )
            value = const ^ wanted
            tableau.substitute_symbol(coeffs, value)
            A, b = substitute_symbol(A, b, coeffs, value)
        A.setflags(write=False)
        b.setflags(write=False)
        entry = (tableau.freeze(), A, b)
        # a new dict per insertion: readers in other threads never see one
        # change under them, and a lost update only repeats a conditioning
        recent = list(kept.items())[-(COLLAPSED_KEPT - 1) :]
        derived["collapsed"] = dict(recent + [(key, entry)])
    return entry


def _measured_late(
    body: Circuit, inputs, preps, suffix, late: frozenset, measured: tuple[int, ...]
) -> AffineOutcomeDistribution:
    """Outcome form of ``preps + body + suffix`` over ``measured``: the
    shared sweep, then the ``late`` wires, then their rows moved into place."""
    collapsed, A_early, b_early = _collapsed(
        body, inputs, preps, tuple(q for q in measured if q not in late)
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
        """Evolve |0...0> through the circuit; returns the final tableau."""
        tableau = Tableau(circuit.n_qubits)
        tableau.apply_circuit(circuit)
        return tableau

    def affine_distribution(self, circuit: Circuit) -> AffineOutcomeDistribution:
        """Exact outcome distribution in affine-subspace form.

        Works at any width — this is what lets the framework evaluate
        Clifford fragments with hundreds of qubits exactly.

        The general path is one symbolic measurement sweep of
        :meth:`run`'s tableau.  The circuits around one shared body — a
        fragment's variants — differ in front of it only by the state
        handed to the wires the body was embedded with as
        :meth:`Circuit.prepared`, and behind it only by single-qubit gates
        on the :meth:`Circuit.measured_last` wires.  They share one
        evolution and one sweep: the body runs once on a tableau that
        Bell-pairs every prepared wire with an ancilla (the body's Choi
        state), every measured wire not left for last is measured once,
        symbolically, and that tableau and its outcome rows stay on the
        body.  A preparation is then a post-selection of the ancillas on
        a copy (:data:`_POST_SELECTIONS`): the ancilla's symbolic outcome
        is set to the wanted value and one symbol is substituted away,
        in the tableau and in the rows
        (:func:`~repro.stabilizer.tableau.substitute_symbol`); the last
        :data:`COLLAPSED_KEPT` conditioned copies are kept too (variants
        come preparation-major).  Each circuit copies its preparation's,
        applies its trailing gates, measures its cut wires and moves their
        rows from the end into ``measured_qubits`` order
        (:func:`~repro.stabilizer.tableau.move_outcome_row`) — the same
        ``A`` and ``b``, bit for bit, as the general path, which anything
        else takes: a prefix that is not a preparation of a prepared wire,
        another suffix, and any circuit that has lost its body (mutated,
        or unpickled in a worker process).
        """
        shared = circuit.shared_body()
        if shared is not None:
            body, start, stop = shared
            inputs, late = circuit.prepared(), circuit.measured_last()
            preps = _preparations(circuit.ops[:start], inputs)
            suffix = circuit.ops[stop:]
            if preps is not None and all(
                op.gate.is_clifford and len(op.qubits) == 1 and op.qubits[0] in late
                for op in suffix
            ):
                return _measured_late(
                    body, inputs, preps, suffix, late, circuit.measured_qubits
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
