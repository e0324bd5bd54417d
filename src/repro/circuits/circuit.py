"""Quantum circuit intermediate representation.

A :class:`Circuit` is an ordered list of gate :class:`Operation`s on integer
qubits ``0 .. n-1``, plus an optional set of *terminally measured* qubits
(computational basis).  Terminal-only measurement matches the circuit-cutting
model of the paper: circuit outputs are always measured in the Z basis, and
mid-circuit measurement never occurs inside fragments.

:meth:`Circuit.derived` is a scratch dict for values computed from ``ops``
alone (Clifford-ness, a compiled gate program), emptied by any mutation of
``ops``; it re-validates by element identity (Operations are immutable) and
is not pickled.
"""

from __future__ import annotations

from operator import is_
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.circuits.gates import Gate


def _same_objects(a: list, b: list) -> bool:
    """Element-by-element identity of two lists."""
    return len(a) == len(b) and all(map(is_, a, b))


class Operation:
    """A gate applied to a tuple of distinct qubits."""

    __slots__ = ("gate", "qubits")

    def __init__(self, gate: Gate, qubits: Sequence[int]):
        qubits = tuple(map(int, qubits))
        n = len(qubits)
        if n != gate.num_qubits:
            raise ValueError(
                f"{gate!r} acts on {gate.num_qubits} qubits, got {qubits}"
            )
        if (qubits[0] == qubits[1]) if n == 2 else (n > 2 and len(set(qubits)) != n):
            raise ValueError(f"repeated qubit in {qubits}")
        self.gate = gate
        self.qubits = qubits

    @classmethod
    def _trusted(cls, gate: Gate, qubits: tuple[int, ...]) -> "Operation":
        """An operation from parts already checked — ``qubits`` a tuple of
        ``gate.num_qubits`` distinct plain ints — built without checking
        them again."""
        op = object.__new__(cls)
        op.gate = gate
        op.qubits = qubits
        return op

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operation):
            return NotImplemented
        return self.gate == other.gate and self.qubits == other.qubits

    def __hash__(self) -> int:
        return hash((self.gate, self.qubits))

    def __repr__(self) -> str:
        return f"{self.gate!r}{list(self.qubits)}"


class Circuit:
    """An n-qubit circuit: gate operations plus terminal measurements."""

    # class-level default: instances unpickled without this attribute (see
    # ``__getstate__``) read it as "nothing derived"
    _derived: "tuple[list[Operation], dict] | None" = None

    def __init__(self, n_qubits: int, operations: Iterable[Operation] = ()):
        if n_qubits < 0:
            raise ValueError("n_qubits must be non-negative")
        self.n_qubits = int(n_qubits)
        self.ops: list[Operation] = []
        self._measured: tuple[int, ...] | None = None
        for op in operations:
            self._check(op)
            self.ops.append(op)

    def _check(self, op: Operation) -> None:
        qubits = op.qubits
        if qubits and (min(qubits) < 0 or max(qubits) >= self.n_qubits):
            raise ValueError(
                f"operation {op!r} out of range for {self.n_qubits} qubits"
            )

    # -- construction ------------------------------------------------------

    def append(self, gate: Gate, *qubits: int) -> "Circuit":
        """Append ``gate`` on ``qubits``; returns self for chaining."""
        op = Operation(gate, qubits)
        self._check(op)
        self.ops.append(op)
        return self

    def extend(self, ops: Iterable[Operation]) -> "Circuit":
        for op in ops:
            self._check(op)
            self.ops.append(op)
        return self

    # -- shared derived work ---------------------------------------------------

    def derived(self) -> dict:
        """Scratch space for values computed from ``ops`` alone.

        Holds a snapshot of the op list next to the values and
        re-validates it by element identity on every call: Operations are
        immutable and the snapshot keeps the old objects alive, so any
        mutation of ``ops`` — append, insert, in-place replacement —
        hands back a fresh, empty dict.  Store finished values with one
        assignment; concurrent callers may then compute a value twice but
        never see it half-built.
        """
        held = self._derived
        if held is None or not _same_objects(held[0], self.ops):
            held = self._derived = (list(self.ops), {})
        return held[1]

    def __getstate__(self) -> dict:
        # what was derived from the ops is rebuilt on demand: it does not
        # travel
        state = self.__dict__.copy()
        state.pop("_derived", None)
        return state

    def measure(self, qubits: Sequence[int]) -> "Circuit":
        """Mark qubits as terminally measured (computational basis)."""
        qubits = tuple(sorted(int(q) for q in qubits))
        if any(q < 0 or q >= self.n_qubits for q in qubits):
            raise ValueError("measurement qubit out of range")
        if len(set(qubits)) != len(qubits):
            raise ValueError("repeated measurement qubit")
        self._measured = qubits
        return self

    def measure_all(self) -> "Circuit":
        return self.measure(range(self.n_qubits))

    @property
    def measured_qubits(self) -> tuple[int, ...]:
        """Terminally measured qubits; defaults to all qubits."""
        if self._measured is None:
            return tuple(range(self.n_qubits))
        return self._measured

    @property
    def has_explicit_measurements(self) -> bool:
        return self._measured is not None

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    def __getitem__(self, index):
        if isinstance(index, slice):
            sub = Circuit(self.n_qubits, self.ops[index])
            return sub
        return self.ops[index]

    @property
    def is_clifford(self) -> bool:
        """True when every gate in the circuit is a Clifford gate."""
        derived = self.derived()
        value = derived.get("is_clifford")
        if value is None:
            value = all(op.gate.is_clifford for op in self.ops)
            derived["is_clifford"] = value
        return value

    @property
    def non_clifford_indices(self) -> list[int]:
        """Positions of the non-Clifford operations."""
        return [i for i, op in enumerate(self.ops) if not op.gate.is_clifford]

    @property
    def num_non_clifford(self) -> int:
        return len(self.non_clifford_indices)

    @property
    def depth(self) -> int:
        """Circuit depth: longest chain of operations sharing qubits."""
        level = [0] * self.n_qubits
        for op in self.ops:
            new = max(level[q] for q in op.qubits) + 1
            for q in op.qubits:
                level[q] = new
        return max(level, default=0)

    def gate_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.gate.name] = counts.get(op.gate.name, 0) + 1
        return counts

    # -- transformations -----------------------------------------------------

    def copy(self) -> "Circuit":
        out = Circuit(self.n_qubits, self.ops)
        out._measured = self._measured
        return out

    def __add__(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit count mismatch")
        out = Circuit(self.n_qubits, self.ops + other.ops)
        out._measured = other._measured if other._measured is not None else self._measured
        return out

    def inverse(self) -> "Circuit":
        """The inverse circuit (measurements dropped)."""
        out = Circuit(self.n_qubits)
        for op in reversed(self.ops):
            out.append(op.gate.inverse(), *op.qubits)
        return out

    def map_qubits(self, mapping: dict[int, int], n_qubits: int) -> "Circuit":
        """Relabel qubits; ``mapping[old] = new`` must cover every used qubit."""
        out = Circuit(n_qubits)
        for op in self.ops:
            out.append(op.gate, *(mapping[q] for q in op.qubits))
        if self._measured is not None:
            out.measure([mapping[q] for q in self._measured])
        return out

    # -- dense matrix (small circuits / tests) --------------------------------

    def unitary(self) -> np.ndarray:
        """Dense unitary of the gate part (qubit 0 = most significant bit)."""
        n = self.n_qubits
        if n > 12:
            raise ValueError("unitary() limited to 12 qubits")
        from repro._tensor import apply_matrix_to_axes

        dim = 2**n
        state = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
        for op in self.ops:
            state = apply_matrix_to_axes(state, op.gate.matrix, op.qubits)
        return state.reshape(dim, dim)

    def __repr__(self) -> str:
        meas = f", measure={list(self.measured_qubits)}" if self._measured else ""
        return f"Circuit({self.n_qubits} qubits, {len(self.ops)} ops{meas})"
