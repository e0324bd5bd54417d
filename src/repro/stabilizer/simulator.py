"""High-level stabilizer simulator facade (the framework's Stim).

Besides the facade, this module evaluates a whole noiseless Clifford
fragment at once (:func:`choi_variants`, behind
:meth:`StabilizerSimulator.affine_variants`): the body's Choi tableau is
evolved and swept once, post-selected once per preparation of the input
wires, and each measurement basis of the output wires measures only those
wires, late.  :meth:`StabilizerSimulator.run` and
:meth:`StabilizerSimulator.affine_distribution` share none of it: they
evolve one circuit from |0...0>.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.analysis.distributions import Distribution
from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.errors import PostSelectionError
from repro.paulis.pauli import PauliString
from repro.stabilizer.tableau import (
    AffineOutcomeDistribution,
    Tableau,
    compile_clifford_layers,
    move_outcome_row,
    substitute_symbol,
)

#: how each tomographic preparation of an input wire — by index: |0>, |1>,
#: |+>, |+i> — is post-selected on the wire's Bell ancilla: the gates to put
#: on the ancilla, then the Z outcome to keep.  Keeping ``<psi|`` on the
#: ancilla hands the wire the transpose ``|psi*>``, so |+i> is Y outcome 1 —
#: which S then H turn into Z outcome 0
_POST_SELECTIONS = (
    ((), False),  # |0>: Z outcome 0
    ((), True),  # |1>: Z outcome 1
    ((gates.H,), False),  # |+>: X outcome 0
    ((gates.S, gates.H), False),  # |+i>
)

#: the gates that rotate an output wire into each measurement basis — by
#: index: Z, X, Y — before it is measured in Z
_BASES = ((), (gates.H,), (gates.SDG, gates.H))


def choi_variants(
    body: Circuit, inputs: Sequence[int], outputs: Sequence[int]
) -> tuple[Tableau, list[AffineOutcomeDistribution]]:
    """Every variant of a Clifford fragment from one evolution of its body.

    A variant hands each wire of ``inputs`` one of the four preparations
    of :data:`_POST_SELECTIONS`, runs ``body``, rotates each wire of
    ``outputs`` into one of the three bases of :data:`_BASES` and measures
    every wire.  The variants come preparation-major, in
    ``itertools.product`` order over the wires in the order given; each
    outcome form is over wires ``0 .. n-1``, bit for bit the sweep of a
    from-scratch evolution of the spelled-out variant.

    The body runs once, on a tableau that Bell-pairs every input wire with
    an ancilla behind the body's wires (its Choi state), and every wire
    that is not an output is measured once, symbolically.  A preparation
    post-selects the ancillas on a copy: the ancilla's symbolic outcome is
    set to the wanted value and one symbol is substituted away, in the
    tableau and in the rows (:func:`substitute_symbol`).  A basis then
    rotates and measures the output wires on a copy of that, and moves
    their rows from the end into wire order (:func:`move_outcome_row`).

    Returns ``(swept, forms)``: the swept Choi tableau, frozen, and the
    variants' outcome forms.  Raises ``ValueError`` if a wire is out of
    range or repeated within ``inputs`` or within ``outputs``.
    """
    n = body.n_qubits
    for role, wires in (("input", inputs), ("output", outputs)):
        if len(set(wires)) < len(wires) or any(not 0 <= q < n for q in wires):
            raise ValueError(
                f"{role} wires {list(wires)} must be distinct wires of {body!r}"
            )
    late = sorted(outputs)
    early = tuple(q for q in range(n) if q not in late)
    # room for an ancilla's symbol and the late wires' too: copies never
    # have to grow
    swept = Tableau(n + len(inputs), max_symbols=n + 1)
    for ancilla, q in enumerate(inputs, start=n):
        swept.h(ancilla)
        swept.cx(ancilla, q)
    swept.apply_layers(compile_clifford_layers(body))
    A_swept, b_swept = swept.measure_symbolic_rows(early)
    swept.freeze()
    forms = []
    for preps in itertools.product(range(4), repeat=len(inputs)):
        collapsed, A_early, b_early = swept.copy(), A_swept.copy(), b_swept.copy()
        for ancilla, (wire, prep) in enumerate(zip(inputs, preps), start=n):
            basis, wanted = _POST_SELECTIONS[prep]
            for gate in basis:
                collapsed.apply_operation(gate, (ancilla,))
            coeffs, const = collapsed.measure_symbolic(ancilla)
            if not coeffs.any():
                # half of a Bell pair is maximally mixed whatever happened
                # to the other half: there is nothing to condition on
                raise PostSelectionError(
                    f"the ancilla of input wire {wire} of {body!r} measured to "
                    f"the constant {int(const)} while post-selecting the "
                    f"preparations {preps}"
                )
            value = const ^ wanted
            collapsed.substitute_symbol(coeffs, value)
            A_early, b_early = substitute_symbol(A_early, b_early, coeffs, value)
        for bases in itertools.product(range(3), repeat=len(outputs)):
            tableau = collapsed.copy()
            for wire, basis in zip(outputs, bases):
                for gate in _BASES[basis]:
                    tableau.apply_operation(gate, (wire,))
            A_late, b_late = tableau.measure_symbolic_rows(late)
            A = np.zeros((n, A_late.shape[1]), dtype=bool)
            A[: A_early.shape[0], : A_early.shape[1]] = A_early
            A[A_early.shape[0] :] = A_late
            b = np.concatenate([b_early, b_late])
            # late row i sits behind the early rows and the late rows
            # already moved; everything in front of its target is final
            for src, dst in enumerate(late, start=len(b_early)):
                A, b = move_outcome_row(A, b, src, dst)
            forms.append(AffineOutcomeDistribution(A, b))
    return swept, forms


class StabilizerSimulator:
    """Clifford-circuit simulation with Stim-like capabilities.

    * exact output distributions (affine-subspace form, any width),
    * fast multi-shot sampling,
    * exact Pauli expectations in {-1, 0, +1}.

    Pauli-frame noisy sampling is :class:`~repro.stabilizer.frames.FrameSampler`.

    Backed by the bit-packed word-parallel tableau
    (:mod:`repro.stabilizer.tableau`): a circuit runs as one walk of its
    gate program over int columns of all ``2n`` rows, a few big-int ops
    per gate, and measurement costs ``n^2/64`` word ops.
    """

    name = "stabilizer"

    def run(self, circuit: Circuit) -> Tableau:
        """Evolve |0...0> through the circuit; returns the final tableau."""
        tableau = Tableau(circuit.n_qubits)
        tableau.apply_circuit(circuit)
        return tableau

    def affine_distribution(self, circuit: Circuit) -> AffineOutcomeDistribution:
        """Exact outcome distribution in affine-subspace form: one symbolic
        measurement sweep of :meth:`run`'s tableau.

        Works at any width — this is what lets the framework evaluate
        Clifford circuits with hundreds of qubits exactly.
        """
        return self.run(circuit).measurement_distribution(circuit.measured_qubits)

    def affine_variants(
        self, body: Circuit, inputs: Sequence[int], outputs: Sequence[int]
    ) -> list[AffineOutcomeDistribution]:
        """Every variant of a Clifford fragment in affine-subspace form,
        from one evolution of its body (:func:`choi_variants`)."""
        return choi_variants(body, inputs, outputs)[1]

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
