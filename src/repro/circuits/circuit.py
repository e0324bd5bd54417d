"""Quantum circuit intermediate representation.

A :class:`Circuit` is an ordered list of gate :class:`Operation`s on integer
qubits ``0 .. n-1``, plus an optional set of *terminally measured* qubits
(computational basis).  Terminal-only measurement matches the circuit-cutting
model of the paper: circuit outputs are always measured in the Z basis, and
mid-circuit measurement never occurs inside fragments.

Every pass over a circuit's gates — Clifford detection, the cut, the
compiled gate program, the fingerprint, the routing features — reads its
:class:`OpTable`: the ops as columns (a gate index per op and every op's
wires in CSR form), the way Stim keeps a circuit as flat gate and target
buffers.  A circuit built by ``append`` keeps its ``ops`` list as the
truth and derives the table from it in one walk (:attr:`Circuit.table`).
A circuit born from a table (:meth:`Circuit.from_table`, what the cutter
makes of each fragment body) has no op list until something reads
``ops``: it is built then, once, and from there on ``ops`` is the truth.

:meth:`Circuit.derived` is a scratch dict for values computed from ``ops``
alone (the table, Clifford-ness, a compiled gate program), emptied by any
mutation of ``ops``; it re-validates by element identity (Operations are
immutable) and is not pickled.  A table-born circuit whose ``ops`` were
never read has nothing to mutate: its derived space starts with its table
and is kept when ``ops`` is built.
"""

from __future__ import annotations

import threading
from operator import is_
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.circuits.gates import Gate


#: held while a table-born circuit builds its ``ops`` list
_BUILDING = threading.Lock()


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


#: a table with at least this many (op, wire) entries is cut (``find_cuts``
#: and ``cut_circuit``) by NumPy passes, a smaller one by walks of its
#: column lists (:attr:`OpTable.by_arrays`); every other pass over a table
#: walks its columns at any size.  Cut times on a 2-core host (HWEA
#: circuits with two T gates, medians, arrays vs walks): 39 entries 0.16 vs
#: 0.12 ms, 79: 0.24 vs 0.16, 183: 0.19 vs 0.40, 609: 0.28 vs 0.70, 2 007:
#: 0.51 vs 2.0, 5 007: 1.1 vs 5.1.  Next to a busy Python thread the arrays
#: lose at every size (5 007 entries: 159 vs 19 ms): each NumPy call that
#: releases the GIL can wait out a whole switch interval to get it back.
#: So this is not the crossover (between 79 and 183 entries alone): it
#: keeps the small circuits the service plans on its threads (the
#: service-sweep circuits, 39 and 183 entries) on walks and the 200-qubit
#: circuits (5 007) on arrays, the two regimes timed end to end; any value
#: from 184 to 5 007 reads the same on every benchmark workload.
ARRAY_PASSES_FROM = 1024


class OpTable:
    """A circuit's ops as columns.

    ``gates`` holds each distinct gate object once (by identity, in order
    of first use); op ``i`` applies ``gates[gate_index[i]]`` to
    ``wires[offsets[i]:offsets[i + 1]]`` (CSR form, so gates of any arity
    sit side by side).  ``clifford`` and ``arity`` are per-gate lookups.
    A table is never written after it is built.
    """

    __slots__ = ("gates", "gate_index", "offsets", "wires", "clifford", "arity")

    def __init__(
        self,
        gates: Sequence[Gate],
        gate_index: np.ndarray,
        wires: np.ndarray,
        offsets: np.ndarray | None = None,
    ):
        self.gates = tuple(gates)
        self.clifford = np.array([g.is_clifford for g in self.gates], dtype=bool)
        self.arity = np.array([g.num_qubits for g in self.gates], dtype=np.int32)
        self.gate_index = gate_index
        self.wires = wires
        if offsets is None:
            offsets = np.zeros(len(gate_index) + 1, dtype=np.int32)
            np.cumsum(self.arity[gate_index], out=offsets[1:])
        self.offsets = offsets

    @classmethod
    def from_ops(cls, ops: Iterable[Operation]) -> "OpTable":
        """The table of an op list, in one walk."""
        index: dict[int, int] = {}
        gates: list[Gate] = []
        gate_index: list[int] = []
        wires: list[int] = []
        offsets = [0]
        for op in ops:
            gate = op.gate
            i = index.get(id(gate))
            if i is None:
                i = index[id(gate)] = len(gates)
                gates.append(gate)
            gate_index.append(i)
            wires += op.qubits
            offsets.append(len(wires))
        return cls(
            gates,
            np.array(gate_index, dtype=np.int32),
            np.array(wires, dtype=np.int32),
            np.array(offsets, dtype=np.int32),
        )

    def __len__(self) -> int:
        return len(self.gate_index)

    @property
    def by_arrays(self) -> bool:
        """Whether this table is cut by NumPy array passes
        (``ARRAY_PASSES_FROM``)."""
        return len(self.wires) >= ARRAY_PASSES_FROM

    def wire_ops(self) -> np.ndarray:
        """The op of each entry of ``wires``."""
        return np.repeat(
            np.arange(len(self.gate_index), dtype=np.int32), np.diff(self.offsets)
        )

    def operations(self) -> list[Operation]:
        """The ops the table holds, built unchecked (they were checked
        when the table's source was built)."""
        trusted = Operation._trusted
        gates = self.gates
        wires = self.wires.tolist()
        bounds = self.offsets.tolist()
        return [
            trusted(gates[g], tuple(wires[a:b]))
            for g, a, b in zip(self.gate_index.tolist(), bounds, bounds[1:])
        ]


class Circuit:
    """An n-qubit circuit: gate operations plus terminal measurements."""

    # class-level defaults: an appended circuit unpickled without
    # ``_derived`` (see ``__getstate__``) reads it as "nothing derived";
    # ``_table`` is set only on a table-born circuit, and stays set
    _derived: "tuple[list[Operation] | None, dict] | None" = None
    _table: OpTable | None = None

    def __init__(self, n_qubits: int, operations: Iterable[Operation] = ()):
        if n_qubits < 0:
            raise ValueError("n_qubits must be non-negative")
        self.n_qubits = int(n_qubits)
        self.ops: list[Operation] = []
        self._measured: tuple[int, ...] | None = None
        for op in operations:
            self._check(op)
            self.ops.append(op)

    @classmethod
    def from_table(cls, n_qubits: int, table: OpTable) -> "Circuit":
        """A circuit holding ``table``'s ops on ``n_qubits`` wires, unchecked
        (every wire must be below ``n_qubits``); its ``ops`` list is built
        from the table when first read."""
        out = object.__new__(cls)
        out.n_qubits = n_qubits
        out._measured = None
        out._table = table
        out._derived = (None, {"table": table})
        return out

    def __getattr__(self, name: str):
        # reached only when ``name`` is not set: ``ops`` of a table-born
        # circuit is built on first read, once, under a lock (other
        # threads may miss ``ops`` meanwhile and wait here).  The derived
        # space is re-snapshotted before ``ops`` is published, so
        # ``derived()`` never sees the new list without its snapshot.
        table = self.__dict__.get("_table")
        if name != "ops" or table is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        with _BUILDING:
            ops = self.__dict__.get("ops")
            if ops is None:
                ops = table.operations()
                self._derived = (list(ops), self._derived[1])
                self.ops = ops
        return ops

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
        hands back a fresh, empty dict.  A table-born circuit whose
        ``ops`` were never read has nothing to re-validate: its dict
        starts with ``"table"``.  Store finished values with one
        assignment; concurrent callers may then compute a value twice but
        never see it half-built.
        """
        ops = self.__dict__.get("ops")  # read before the snapshot: see __getattr__
        held = self._derived
        if ops is not None and (held is None or not _same_objects(held[0], ops)):
            held = self._derived = (list(ops), {})
        return held[1]

    @property
    def table(self) -> OpTable:
        """The ops as an :class:`OpTable`, derived once per op list."""
        derived = self.derived()
        table = derived.get("table")
        if table is None:
            table = derived["table"] = OpTable.from_ops(self.ops)
        return table

    def __getstate__(self) -> dict:
        # what was derived from the ops is rebuilt on demand: it does not
        # travel (a table-born circuit travels as its table until its ops
        # are built, then as its ops)
        state = self.__dict__.copy()
        state.pop("_derived", None)
        if "ops" in state:
            state.pop("_table", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if "ops" not in state:
            self._derived = (None, {"table": self._table})

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
        ops = self.__dict__.get("ops")
        return len(self._table if ops is None else ops)

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
            value = derived["is_clifford"] = bool(self.table.clifford.all())
        return value

    @property
    def non_clifford_indices(self) -> list[int]:
        """Positions of the non-Clifford operations."""
        table = self.table
        return np.flatnonzero(~table.clifford[table.gate_index]).tolist()

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
        if "ops" in self.__dict__:
            out = Circuit(self.n_qubits, self.ops)
        else:  # the table is never written: share it
            out = Circuit.from_table(self.n_qubits, self._table)
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
        return f"Circuit({self.n_qubits} qubits, {len(self)} ops{meas})"
