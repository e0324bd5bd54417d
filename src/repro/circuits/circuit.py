"""Quantum circuit intermediate representation.

A :class:`Circuit` is an ordered sequence of gate :class:`Operation`s on
integer qubits ``0 .. n-1``, plus an optional set of *terminally measured*
qubits (computational basis).  Terminal-only measurement matches the
circuit-cutting model of the paper: circuit outputs are always measured in
the Z basis, and mid-circuit measurement never occurs inside fragments.

A circuit *is* its op table, the way Stim keeps a circuit as flat gate and
target buffers: each distinct gate object once (in order of first use), a
gate index per op and every op's wires in CSR form.  ``append`` and
``extend`` check each op and write it straight into these columns; a
circuit born from a table (:meth:`Circuit.from_table`, what the cutter
makes of each fragment body) takes the table's columns.  Every pass over
the gates — Clifford detection, the cut, the compiled gate program, the
fingerprint, the routing features — reads the columns as an
:class:`OpTable` (:attr:`Circuit.table`); :meth:`Circuit.pairs` walks
them as ``(gate, qubits)`` pairs.  ``ops`` is a read-only tuple of
:class:`Operation`s built from the columns only when something reads it.

Ops are only ever added, so :meth:`Circuit.derived`, a scratch dict for
values computed from the ops alone (the table, Clifford-ness, a compiled
gate program), is keyed by the op count: any append empties it.  It is
not pickled; the columns are.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.circuits.gates import Gate


def _checked(gate: Gate, qubits: Sequence[int]) -> tuple[int, ...]:
    """``qubits`` as a tuple of plain ints, checked to be
    ``gate.num_qubits`` distinct wires."""
    qubits = tuple(map(int, qubits))
    n = len(qubits)
    if n != gate.num_qubits:
        raise ValueError(f"{gate!r} acts on {gate.num_qubits} qubits, got {qubits}")
    if (qubits[0] == qubits[1]) if n == 2 else (n > 2 and len(set(qubits)) != n):
        raise ValueError(f"repeated qubit in {qubits}")
    return qubits


class Operation:
    """A gate applied to a tuple of distinct qubits."""

    __slots__ = ("gate", "qubits")

    def __init__(self, gate: Gate, qubits: Sequence[int]):
        self.gate = gate
        self.qubits = _checked(gate, qubits)

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
    def by_first_use(cls, gates, gate_index, wires, offsets=None) -> "OpTable":
        """The table of these columns with only the ``gates`` that
        ``gate_index`` uses, renumbered by first use."""
        used = list(dict.fromkeys(gate_index.tolist()))
        renumber = np.zeros(len(gates), dtype=np.int32)
        renumber[used] = np.arange(len(used))
        return cls([gates[g] for g in used], renumber[gate_index], wires, offsets)

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


class Circuit:
    """An n-qubit circuit: gate operations plus terminal measurements."""

    def __init__(self, n_qubits: int, operations: Iterable[Operation] = ()):
        if n_qubits < 0:
            raise ValueError("n_qubits must be non-negative")
        self.n_qubits = int(n_qubits)
        self._measured: tuple[int, ...] | None = None
        self._hold([], [], [], [0])
        self.extend(operations)

    def _hold(self, gates, gate_index, wires, offsets, derived=None) -> None:
        """Take these column lists (:class:`OpTable`'s columns) as the
        ops, and ``derived`` as what is derived from them."""
        self._gates: list[Gate] = gates
        self._gate_of = {id(gate): i for i, gate in enumerate(gates)}
        self._gate_index: list[int] = gate_index
        self._wires: list[int] = wires
        self._offsets: list[int] = offsets
        self._derived = (len(gate_index), derived or {})

    @classmethod
    def from_table(cls, n_qubits: int, table: OpTable) -> "Circuit":
        """A circuit holding ``table``'s ops on ``n_qubits`` wires, unchecked
        (every wire must be below ``n_qubits``); ``table`` is its table."""
        out = cls(n_qubits)
        columns = (table.gate_index, table.wires, table.offsets)
        out._hold(list(table.gates), *(c.tolist() for c in columns), {"table": table})
        return out

    # -- construction ------------------------------------------------------

    def append(self, gate: Gate, *qubits: int) -> "Circuit":
        """Append ``gate`` on ``qubits``; returns self for chaining."""
        qubits = _checked(gate, qubits)
        if qubits and (min(qubits) < 0 or max(qubits) >= self.n_qubits):
            raise ValueError(
                f"operation {gate!r}{list(qubits)} out of range "
                f"for {self.n_qubits} qubits"
            )
        index = self._gate_of.get(id(gate))
        if index is None:
            index = self._gate_of[id(gate)] = len(self._gates)
            self._gates.append(gate)
        self._gate_index.append(index)
        self._wires += qubits
        self._offsets.append(len(self._wires))
        return self

    def extend(self, ops: Iterable[Operation]) -> "Circuit":
        for op in ops:
            self.append(op.gate, *op.qubits)
        return self

    # -- shared derived work ---------------------------------------------------

    def derived(self) -> dict:
        """Scratch space for values computed from the ops alone.

        Ops are only ever added, so the dict is kept until the op count
        changes and then handed back fresh and empty.  A table-born
        circuit's dict starts with ``"table"``.  Store finished values with
        one assignment; concurrent callers may then compute a value twice
        but never see it half-built.
        """
        count, values = self._derived
        if count != len(self._gate_index):
            values = {}
            self._derived = (len(self._gate_index), values)
        return values

    @property
    def table(self) -> OpTable:
        """The ops as an :class:`OpTable`: the columns as arrays, built once
        per op count."""
        derived = self.derived()
        table = derived.get("table")
        if table is None:
            columns = (self._gate_index, self._wires, self._offsets)
            table = derived["table"] = OpTable(
                self._gates, *(np.array(c, dtype=np.int32) for c in columns)
            )
        return table

    def pairs(self) -> Iterator[tuple[Gate, tuple[int, ...]]]:
        """Each op as a ``(gate, qubits)`` pair, read off the columns
        without building an ``Operation``."""
        gates, wires, bounds = self._gates, self._wires, self._offsets
        for g, a, b in zip(self._gate_index, bounds, bounds[1:]):
            yield gates[g], tuple(wires[a:b])

    @property
    def ops(self) -> tuple[Operation, ...]:
        """The ops as a read-only tuple of ``Operation``s, built unchecked
        (they were checked when added) on first read, once per op count:
        readers racing on one build all get the tuple stored first."""
        derived = self.derived()
        ops = derived.get("ops")
        if ops is None:
            trusted = Operation._trusted
            built = tuple(trusted(gate, qubits) for gate, qubits in self.pairs())
            ops = derived.setdefault("ops", built)
        return ops

    def __getstate__(self) -> tuple:
        # what was derived from the ops is rebuilt on demand: only the
        # columns travel
        columns = (self._gates, self._gate_index, self._wires, self._offsets)
        return (self.n_qubits, self._measured, *columns)

    def __setstate__(self, state: tuple) -> None:
        self.n_qubits, self._measured, *columns = state
        self._hold(*columns)

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
        return len(self._gate_index)

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
        out = Circuit(self.n_qubits)
        out._measured = self._measured
        columns = (self._gates, self._gate_index, self._wires, self._offsets)
        out._hold(*map(list, columns))
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
