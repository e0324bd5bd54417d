"""The per-variant route of a Clifford fragment's tomography: the oracle.

A noiseless Clifford fragment is read off one backward walk of its body
(:class:`~repro.stabilizer.tableau.PauliMap`).  Its slow twin spells every
variant out (:func:`~repro.core.variants.variant_circuit`), evolves each
from |0...0> through the byte-per-bit forward tableau
(:class:`~repro.stabilizer._reference.ReferenceTableau`, which shares no
code with the walk), measures it symbolically, and hands the exact outcome
forms to the generic tomography variant by variant.  Both must build the
same tensors, byte for byte.
"""

from __future__ import annotations

from repro.circuits.circuit import Circuit
from repro.core.evaluator import FragmentData, VariantData
from repro.core.fragments import Fragment
from repro.core.variants import all_variants, variant_circuit
from repro.stabilizer._reference import ReferenceTableau
from repro.stabilizer.tableau import AffineOutcomeDistribution


class AffineVariantData(VariantData):
    """One Clifford variant's exact outcome form behind ``joint``."""

    def __init__(self, affine):
        self.affine = affine

    def joint(self, cols):
        return self.affine.marginal_distribution(cols)


def reference_distribution(circuit: Circuit) -> AffineOutcomeDistribution:
    """The measured qubits' outcome form, evolved forward and measured
    symbolically by the reference tableau."""
    tableau = ReferenceTableau(circuit.n_qubits)
    tableau.apply_circuit(circuit)
    return tableau.measurement_distribution(circuit.measured_qubits)


def per_variant_data(fragment: Fragment) -> FragmentData:
    """Every variant of a Clifford fragment spelled out and simulated alone."""
    return FragmentData(
        fragment,
        {
            spec: AffineVariantData(
                reference_distribution(variant_circuit(fragment, *spec))
            )
            for spec in all_variants(fragment)
        },
    )
