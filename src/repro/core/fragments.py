"""Fragment data structures produced by cutting a circuit.

A *cut* sits on one qubit's wire between two operations.  Cutting partitions
the circuit's wire segments into connected components; each component is a
:class:`Fragment` with its own local qubit register.  Every fragment qubit
(wire segment) has one of four boundary roles on each side (paper §V-B):

* **circuit input** — the segment starts at the beginning of the original
  circuit (initialised to |0>, nothing to vary);
* **quantum input** — the segment starts at a cut (prepared in each of the
  tomographically complete states |0>, |1>, |+>, |+i>);
* **circuit output** — the segment ends at the end of the original circuit
  (measured in the computational basis);
* **quantum output** — the segment ends at a cut (measured in each of the
  X, Y, Z bases).

One segment can hold several roles at once (e.g. the one-qubit fragment
containing an isolated T gate is both a quantum input and a quantum output).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuits.circuit import Circuit


@dataclass(frozen=True, order=True)
class Cut:
    """A wire cut on ``qubit``, after ``position`` operations on that wire.

    ``position`` counts operations *acting on that qubit* from the start of
    the circuit; a cut at position ``p`` separates that wire's ops
    ``0..p-1`` (upstream) from ``p..`` (downstream).
    """

    qubit: int
    position: int

    def __post_init__(self):
        if self.position <= 0:
            raise ValueError(
                "cut position must be positive: position 0 would sit before "
                "the first operation, where the |0> initialisation already "
                "provides a known state"
            )


@dataclass
class Fragment:
    """One connected subcircuit of a cut circuit."""

    index: int
    circuit: Circuit
    # local qubits by role; quantum inputs/outputs carry their global cut id
    circuit_inputs: list[int] = field(default_factory=list)
    quantum_inputs: list[tuple[int, int]] = field(default_factory=list)   # (cut, q)
    quantum_outputs: list[tuple[int, int]] = field(default_factory=list)  # (cut, q)
    circuit_outputs: list[tuple[int, int]] = field(default_factory=list)  # (orig, q)

    @property
    def n_qubits(self) -> int:
        return self.circuit.n_qubits

    @property
    def is_clifford(self) -> bool:
        return self.circuit.is_clifford

    @property
    def num_variants(self) -> int:
        """4 preparations per quantum input x 3 bases per quantum output."""
        return 4 ** len(self.quantum_inputs) * 3 ** len(self.quantum_outputs)

    @property
    def cut_wires(self) -> tuple[list[int], list[int]]:
        """The local qubits of the quantum inputs and of the quantum
        outputs, each in cut order."""
        return (
            [q for _cut, q in self.quantum_inputs],
            [q for _cut, q in self.quantum_outputs],
        )

    @property
    def incident_cuts(self) -> list[int]:
        cuts = [c for c, _ in self.quantum_inputs]
        cuts += [c for c, _ in self.quantum_outputs]
        return sorted(set(cuts))

    def output_qubit_for(self, original_qubit: int) -> int:
        for orig, local in self.circuit_outputs:
            if orig == original_qubit:
                return local
        raise KeyError(f"qubit {original_qubit} is not an output of this fragment")

    def __repr__(self) -> str:
        return (
            f"Fragment({self.index}: {self.n_qubits}q, {len(self.circuit)} ops, "
            f"{'Clifford' if self.is_clifford else 'non-Clifford'}, "
            f"qi={len(self.quantum_inputs)}, qo={len(self.quantum_outputs)})"
        )


@dataclass
class CutCircuit:
    """A circuit together with its cuts and resulting fragments."""

    original: Circuit
    cuts: list[Cut]
    fragments: list[Fragment]

    @property
    def num_cuts(self) -> int:
        return len(self.cuts)

    @property
    def reconstruction_terms(self) -> int:
        """The ``4^k`` Pauli assignments summed during recombination."""
        return 4**self.num_cuts

    def fragment_of_output(self, original_qubit: int) -> tuple[Fragment, int]:
        """The fragment (and local qubit) holding an original circuit output."""
        for fragment in self.fragments:
            for orig, local in fragment.circuit_outputs:
                if orig == original_qubit:
                    return fragment, local
        raise KeyError(f"no fragment owns output qubit {original_qubit}")

    def __repr__(self) -> str:
        return (
            f"CutCircuit({self.num_cuts} cuts, {len(self.fragments)} fragments: "
            f"{[f.n_qubits for f in self.fragments]})"
        )
