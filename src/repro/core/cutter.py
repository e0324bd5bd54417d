"""The SuperSim circuit cutter (paper §V-A).

``find_cuts`` parses a near-Clifford circuit and places cuts that isolate
its non-Clifford operations from the Clifford bulk; ``cut_circuit`` splits a
circuit along a given cut set into :class:`Fragment` objects.  Both read
the circuit's :class:`~repro.circuits.circuit.OpTable`, not its ops.
``find_cuts`` cuts wherever a wire's Clifford flag changes.
``cut_circuit`` gives every (op, wire) entry its segment id, joins
segments by union-find over the pairs that multi-qubit ops span, and
hands each fragment its slice of the table.  Both run as NumPy passes (a
stable sort of the entries by wire, a ``searchsorted`` against the sorted
cut keys, stable sorts by fragment) on a large table and as walks of the
column lists on a small one, where NumPy's per-call cost and its GIL
releases would dominate
(:data:`~repro.circuits.circuit.ARRAY_PASSES_FROM` says where and why).  A
fragment body is not re-validated: the source circuit's ops were checked
when they were added, a local qubit is below its fragment's width by
construction, and an op's wires lie in distinct segments.

The default ``ISOLATE`` strategy cuts every wire of a non-Clifford operation
immediately before and after it, except where the wire starts or ends the
circuit (those boundaries are free) or where the neighbouring operation is
itself non-Clifford (adjacent non-Clifford ops share a fragment, so a cut
between them would be wasted).  This realises the paper's bound: the number
of cuts is at most twice the number of non-Clifford gates.

The ``GREEDY_MERGE`` strategy additionally drops cuts whose removal does not
increase the total cut count — merging a non-Clifford gate into a
neighbouring Clifford region when that region is small enough to simulate
exactly anyway (Fig. 2's observation that a bigger, cheaper-to-stitch
fragment can beat a minimal one).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.circuits.circuit import Circuit, OpTable
from repro.core.fragments import Cut, CutCircuit, Fragment


class CutStrategy(enum.Enum):
    #: isolate every non-Clifford op with cuts on all its wires
    ISOLATE = "isolate"
    #: isolate, then drop cuts that merely separate small Clifford tails
    GREEDY_MERGE = "greedy_merge"


def find_cuts(
    circuit: Circuit, strategy: CutStrategy = CutStrategy.ISOLATE
) -> list[Cut]:
    """Cut locations isolating the non-Clifford operations of ``circuit``.

    ``strategy`` may be a :class:`CutStrategy`, its string value, or a
    :class:`~repro.core.config.CutConfig` (whose strategy is used).
    """
    strategy = getattr(strategy, "strategy", strategy)
    if isinstance(strategy, str):
        strategy = CutStrategy(strategy)
    # a cut sits wherever a wire passes between a Clifford and a
    # non-Clifford op: never at a wire's ends (free boundaries), never
    # between two non-Clifford ops (they share a fragment)
    table = circuit.table
    places = _array_cuts if table.by_arrays else _walked_cuts
    result = [Cut(q, p) for q, p in places(table, circuit.n_qubits)]
    if strategy is CutStrategy.GREEDY_MERGE:
        result = _greedy_merge(circuit, result)
    return result


def _array_cuts(table: OpTable, n: int):
    """The (wire, position) of each cut, by one stable sort of the (op,
    wire) entries by wire: each wire's ops in order, as Clifford flags."""
    order, position, _totals = _wire_positions(table, n)
    wires = table.wires[order]
    flags = table.clifford[table.gate_index][table.wire_ops()][order]
    at = np.flatnonzero((wires[1:] == wires[:-1]) & (flags[1:] != flags[:-1])) + 1
    return zip(wires[at].tolist(), position[at].tolist())


def _walked_cuts(table: OpTable, n: int):
    """:func:`_array_cuts` by one walk of the ops: each wire keeps its op
    count and its last op's Clifford flag."""
    clifford = table.clifford.tolist()
    wires = table.wires.tolist()
    bounds = table.offsets.tolist()
    last = [None] * n
    position = [0] * n
    places = []
    for g, a, b in zip(table.gate_index.tolist(), bounds, bounds[1:]):
        flag = clifford[g]
        for q in wires[a:b]:
            if last[q] is not None and last[q] != flag:
                places.append((q, position[q]))
            last[q] = flag
            position[q] += 1
    return sorted(places)


def _greedy_merge(circuit: Circuit, cuts: list[Cut]) -> list[Cut]:
    """Drop cuts one at a time while the fragment count stays above one.

    Removing a cut merges the non-Clifford fragment with a Clifford
    neighbour; that enlarges the non-Clifford fragment (more expensive exact
    simulation) but removes a factor of 4 from reconstruction.  The greedy
    rule drops a cut whenever the merged fragment stays small (at most
    ``_MERGE_LIMIT`` qubits), mirroring the paper's Fig. 2 discussion.
    """
    merge_limit = 10
    current = list(cuts)
    improved = True
    while improved and len(current) > 0:
        improved = False
        for cut in list(current):
            trial = [c for c in current if c != cut]
            try:
                trial_cc = cut_circuit(circuit, trial)
            except ValueError:
                continue
            largest_ncl = max(
                (f.n_qubits for f in trial_cc.fragments if not f.is_clifford),
                default=0,
            )
            if largest_ncl <= merge_limit and len(trial_cc.fragments) > 1:
                current = trial
                improved = True
                break
    return current


def plan_cuts(
    circuit: Circuit, config, cuts: list[Cut] | None = None
) -> CutCircuit:
    """Find (or validate) cuts under a :class:`~repro.core.config.CutConfig`
    and split the circuit.

    This is the cut stage of the plan→execute pipeline: explicit ``cuts``
    bypass the search but still face the ``max_cuts`` reconstruction
    guard.
    """
    if cuts is None:
        cuts = find_cuts(circuit, config.strategy)
    if len(cuts) > config.max_cuts:
        raise ValueError(
            f"{len(cuts)} cuts would need 4^{len(cuts)} reconstruction "
            f"terms (max_cuts={config.max_cuts}); SuperSim targets "
            "near-Clifford circuits with few non-Clifford gates"
        )
    return cut_circuit(circuit, cuts)


def cut_circuit(circuit: Circuit, cuts: list[Cut]) -> CutCircuit:
    """Split ``circuit`` along ``cuts`` into fragments.

    A wire with ``c`` cuts has ``c + 1`` segments, numbered wire by wire:
    segment ``s`` of qubit ``q`` has id ``first[q] + s``.  Every (op,
    wire) entry of the circuit's table gets its segment id; union-find
    joins the segments that multi-qubit ops span.  Each connected group
    is a fragment, numbered by its smallest segment id, with one local
    qubit per segment in id order; every boundary list comes out in
    ascending order.  A fragment's body is born from its slice of the
    table (:meth:`Circuit.from_table`, op order kept, wires mapped to
    local qubits).

    The entries' segments, the joins and the slices come from NumPy
    passes on a large table (:func:`_array_segments`,
    :func:`_array_joins`, :func:`_array_slices`) and from walks of the
    column lists on a small one (:func:`_walked_segments`,
    :func:`_walked_joins`, :func:`_walked_slices`); both give the same
    fragment tables, column for column
    (:attr:`~repro.circuits.circuit.OpTable.by_arrays`).
    """
    n = circuit.n_qubits
    cuts = sorted(set(cuts))
    table = circuit.table
    by_arrays = table.by_arrays
    segment, totals = (_array_segments if by_arrays else _walked_segments)(table, n, cuts)
    for cut in cuts:
        # a cut at or beyond the final op-position on its wire separates
        # nothing from nothing — the circuit end is already a free boundary
        if not (0 <= cut.qubit < n and cut.position < totals[cut.qubit]):
            raise ValueError(f"{cut} sits at or after the last operation on its wire")

    # union-find over segment ids, joined by multi-qubit operations
    parent = list(range(n + len(cuts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in (_array_joins if by_arrays else _walked_joins)(table, segment):
        a, b = find(a), find(b)
        if a != b:
            parent[b] = a

    # a group's first insertion is at its smallest id
    groups: dict[int, list[int]] = {}
    for sid in range(len(parent)):
        groups.setdefault(find(sid), []).append(sid)
    on_wire = [0] * n
    for cut in cuts:
        on_wire[cut.qubit] += 1
    first = [0]
    for count in on_wire:
        first.append(first[-1] + count + 1)
    wire_of = [q for q in range(n) for _ in range(on_wire[q] + 1)]
    fragment_of = [0] * len(parent)
    local_of = [0] * len(parent)
    fragments: list[Fragment] = []
    for f_index, sids in enumerate(groups.values()):
        fragment = Fragment(index=f_index, circuit=None)
        for lq, sid in enumerate(sids):
            fragment_of[sid] = f_index
            local_of[sid] = lq
            q = wire_of[sid]
            # the cuts are sorted by (qubit, position) and first[q] - q of
            # them lie on lower wires, so segment sid opens at cut
            # sid - q - 1 and closes at cut sid - q
            if sid == first[q]:
                fragment.circuit_inputs.append(lq)
            else:
                fragment.quantum_inputs.append((sid - q - 1, lq))
            if sid == first[q + 1] - 1:
                fragment.circuit_outputs.append((q, lq))
            else:
                fragment.quantum_outputs.append((sid - q, lq))
        fragments.append(fragment)
    slices = (_array_slices if by_arrays else _walked_slices)(
        table, segment, fragment_of, local_of
    )
    for fragment, sids, body in zip(fragments, groups.values(), slices):
        fragment.circuit = Circuit.from_table(len(sids), body)
    return CutCircuit(original=circuit, cuts=cuts, fragments=fragments)


def _wire_positions(table: OpTable, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (op, wire) entries of ``table`` on ``n`` wires, by wire:
    ``order`` sorts them stably (so by op within a wire), ``position[k]``
    is the position of entry ``order[k]`` on its wire, and ``totals`` the
    number of ops on each wire."""
    order = np.argsort(table.wires, kind="stable")
    totals = np.bincount(table.wires, minlength=n)
    first = np.cumsum(totals) - totals
    position = np.arange(len(order)) - np.repeat(first, totals)
    return order, position, totals


def _array_segments(table: OpTable, n: int, cuts: list[Cut]) -> tuple[np.ndarray, list[int]]:
    """Each entry's segment id, in op order, and each wire's op count: an
    entry's id is its wire plus the cuts at or before it, on lower wires
    or its own — one ``searchsorted`` against the sorted cut keys."""
    order, position, totals = _wire_positions(table, n)
    stride = len(position) + 1  # above every position on any wire
    cut_keys = np.array([c.qubit * stride + c.position for c in cuts], dtype=np.int64)
    wires = table.wires.astype(np.int64)
    at = np.empty_like(wires)
    at[order] = position
    segment = np.searchsorted(cut_keys, wires * stride + at, side="right") + wires
    return segment, totals.tolist()


def _walked_segments(table: OpTable, n: int, cuts: list[Cut]) -> tuple[list[int], list[int]]:
    """:func:`_array_segments` by one walk of the wire list: each wire
    keeps its running op position and a pointer into its cut positions."""
    on_wire: list[list[int]] = [[] for _ in range(n)]
    for cut in cuts:
        if 0 <= cut.qubit < n:
            on_wire[cut.qubit].append(cut.position)
    first = [0]
    for positions in on_wire:
        first.append(first[-1] + len(positions) + 1)
    # a -1 sentinel after each wire's last cut position matches no op
    ahead = [positions + [-1] for positions in on_wire]
    current = first[:n]
    position = [0] * n
    segment = []
    for q in table.wires.tolist():
        if position[q] == ahead[q][current[q] - first[q]]:
            current[q] += 1
        position[q] += 1
        segment.append(current[q])
    return segment, position


def _array_joins(table: OpTable, segment: np.ndarray):
    """The distinct segment pairs a multi-qubit op spans (first wire's
    segment, other wire's), by array passes (deduplicated by a dict:
    ``np.unique`` would import ``numpy.ma``, a megabyte of resident
    memory)."""
    anchor = segment[table.offsets[:-1]][table.wire_ops()]
    spans = anchor != segment
    return dict.fromkeys(zip(anchor[spans].tolist(), segment[spans].tolist()))


def _walked_joins(table: OpTable, segment: list[int]):
    """:func:`_array_joins` by a walk of the ops (pairs may repeat)."""
    bounds = table.offsets.tolist()
    for a, b in zip(bounds, bounds[1:]):
        for other in segment[a + 1 : b]:
            yield segment[a], other


def _array_slices(
    table: OpTable, segment: np.ndarray, fragment_of: list[int], local_of: list[int]
) -> list[OpTable]:
    """Each fragment's slice of ``table``, op order kept, on local wires
    and with only the gates it uses (numbered by first use), by stable
    sorts on the fragment of each op and of each entry.  An op lies in the
    fragment of its first wire's segment (union-find put all its wires
    there)."""
    count = max(fragment_of, default=-1) + 1
    op_fragment = np.array(fragment_of)[segment[table.offsets[:-1]]]
    op_order = np.argsort(op_fragment, kind="stable")
    op_bounds = np.searchsorted(op_fragment[op_order], np.arange(count + 1)).tolist()
    entry_fragment = op_fragment[table.wire_ops()]
    entry_order = np.argsort(entry_fragment, kind="stable")
    entry_bounds = np.searchsorted(entry_fragment[entry_order], np.arange(count + 1)).tolist()
    local = np.array(local_of, dtype=np.int32)[segment[entry_order]]
    slices = []
    for f in range(count):
        slices.append(
            OpTable.by_first_use(
                table.gates,
                table.gate_index[op_order[op_bounds[f] : op_bounds[f + 1]]],
                local[entry_bounds[f] : entry_bounds[f + 1]],
            )
        )
    return slices


def _walked_slices(
    table: OpTable, segment: list[int], fragment_of: list[int], local_of: list[int]
) -> list[OpTable]:
    """:func:`_array_slices` by a walk of the ops, appending each to its
    fragment's column lists (gates numbered by first use)."""
    count = max(fragment_of, default=-1) + 1
    columns: list[tuple[list, list, list, dict]] = [([], [], [0], {}) for _ in range(count)]
    bounds = table.offsets.tolist()
    for g, a, b in zip(table.gate_index.tolist(), bounds, bounds[1:]):
        gate_index, wires, offsets, renumber = columns[fragment_of[segment[a]]]
        gate_index.append(renumber.setdefault(g, len(renumber)))
        wires += [local_of[s] for s in segment[a:b]]
        offsets.append(len(wires))
    return [
        OpTable(
            [table.gates[g] for g in renumber],
            np.array(gate_index, dtype=np.int32),
            np.array(wires, dtype=np.int32),
            np.array(offsets, dtype=np.int32),
        )
        for gate_index, wires, offsets, renumber in columns
    ]
