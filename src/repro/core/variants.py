"""Fragment variant generation (paper §V-B).

A *variant* of a fragment fixes one prepared state per quantum input and one
measurement basis per quantum output:

* preparations: the tomographically complete set |0>, |1>, |+>, |+i>
  (4 states — the minimal informationally complete choice used by the
  maximum-likelihood tomography of the paper's reference [40]);
* bases: Z, X, Y (3 single-qubit Pauli bases).

``PREP_COEFFICIENTS`` records how each Pauli operator expands over the
prepared states' density matrices, which is what turns variant statistics
into the Pauli-indexed fragment tensors consumed by reconstruction:

    I = r(|0>) + r(|1>)
    Z = r(|0>) - r(|1>)
    X = 2 r(|+>)  - r(|0>) - r(|1>)
    Y = 2 r(|+i>) - r(|0>) - r(|1>)

:func:`variant_circuit` spells one variant out as a self-contained
:class:`Circuit`: the preparation gates, the fragment's body, the basis
rotations.  Non-Clifford and noisy fragments are evaluated variant by
variant through it, and it is the oracle of the shared evaluation of a
noiseless Clifford fragment: there the fragment is one job, the stabilizer
backend walks its body backwards once
(:meth:`~repro.backends.base.Backend.pauli_map`), and the tomography reads
every variant's share off the images (see "Reading a fragment backwards" in
:mod:`repro.stabilizer.tableau`) — no variant is spelled out.
``PREP_COEFFICIENTS`` serves the variant-by-variant route only.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.core.fragments import Fragment

#: prepared states at quantum inputs, by index
PREP_STATES = ("0", "1", "+", "+i")
#: measurement bases at quantum outputs, by index
MEAS_BASES = ("Z", "X", "Y")
#: Pauli order used for cut indices everywhere
PAULIS = ("I", "X", "Y", "Z")

#: PREP_COEFFICIENTS[pauli_index][prep_index]
PREP_COEFFICIENTS = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],    # I
        [-1.0, -1.0, 2.0, 0.0],  # X
        [-1.0, -1.0, 0.0, 2.0],  # Y
        [1.0, -1.0, 0.0, 0.0],   # Z
    ]
)

#: measurement basis index used to estimate each output Pauli (I uses Z data)
BASIS_FOR_PAULI = (0, 1, 2, 0)  # I->Z, X->X, Y->Y, Z->Z

_PREP_OPS = {
    0: (),
    1: ((gates.X,),),
    2: ((gates.H,),),
    3: ((gates.H,), (gates.S,)),
}
_BASIS_OPS = {
    0: (),                                 # Z: nothing
    1: ((gates.H,),),                      # X: H then measure Z
    2: ((gates.SDG,), (gates.H,)),         # Y: Sdg, H then measure Z
}


def prep_state_vector(index: int) -> np.ndarray:
    vecs = {
        0: np.array([1, 0], dtype=complex),
        1: np.array([0, 1], dtype=complex),
        2: np.array([1, 1], dtype=complex) / np.sqrt(2),
        3: np.array([1, 1j], dtype=complex) / np.sqrt(2),
    }
    return vecs[index]


def variant_circuit(
    fragment: Fragment, preps: tuple[int, ...], bases: tuple[int, ...]
) -> Circuit:
    """Build the runnable circuit for one variant.

    Every fragment qubit ends in a measurement (wire segments end either at
    a cut — rotated into the chosen basis — or at the circuit end), so the
    variant measures all qubits; bit columns equal local qubit indices.
    """
    circuit = Circuit(fragment.n_qubits)
    for (cut, lq), prep in zip(fragment.quantum_inputs, preps):
        for op_gates in _PREP_OPS[prep]:
            circuit.append(op_gates[0], lq)
    for gate, qubits in fragment.circuit.pairs():
        circuit.append(gate, *qubits)
    for (cut, lq), basis in zip(fragment.quantum_outputs, bases):
        for op_gates in _BASIS_OPS[basis]:
            circuit.append(op_gates[0], lq)
    circuit.measure_all()
    return circuit


def all_variants(fragment: Fragment) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Iterate over every (preps, bases) combination of a fragment."""
    prep_space = itertools.product(range(4), repeat=len(fragment.quantum_inputs))
    for preps in prep_space:
        basis_space = itertools.product(
            range(3), repeat=len(fragment.quantum_outputs)
        )
        for bases in basis_space:
            yield preps, bases
