"""The SuperSim circuit cutter (paper §V-A).

``find_cuts`` parses a near-Clifford circuit and places cuts that isolate
its non-Clifford operations from the Clifford bulk; ``cut_circuit`` splits a
circuit along a given cut set into :class:`Fragment` objects.  Both read
the circuit in one walk of its ops: ``find_cuts`` lists each wire's ops as
Clifford / non-Clifford flags and cuts wherever the flag changes, and
``cut_circuit`` gives every (op, wire) its segment id as it walks — each
wire keeps its running op position and a pointer into its sorted cut
positions — then joins segments by union-find over those integer ids and
places each op by the ids it stored.  A placed op is built without
re-validation (``Operation._trusted``): the source circuit's ops were
checked when they were added, a local qubit is below its fragment's width
by construction, and an op's wires lie in distinct segments.

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

from repro.circuits.circuit import Circuit, Operation
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
    # each wire's ops in order, as "is non-Clifford" flags
    wires: list[list[bool]] = [[] for _ in range(circuit.n_qubits)]
    for op in circuit.ops:
        flag = not op.gate.is_clifford
        for q in op.qubits:
            wires[q].append(flag)
    # a cut sits wherever a wire passes between a Clifford and a
    # non-Clifford op: never at a wire's ends (free boundaries), never
    # between two non-Clifford ops (they share a fragment)
    result = [
        Cut(q, p)
        for q, flags in enumerate(wires)
        for p in range(1, len(flags))
        if flags[p - 1] != flags[p]
    ]
    if strategy is CutStrategy.GREEDY_MERGE:
        result = _greedy_merge(circuit, result)
    return result


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
    segment ``s`` of qubit ``q`` has id ``first[q] + s``.  One walk of the
    ops gives every (op, wire) its segment id in O(1) — each wire keeps
    its running op position and a pointer to its next cut position — and
    union-find over those ids joins the segments an op spans.  Each
    connected group is a fragment, numbered by its smallest segment id,
    with one local qubit per segment in id order; a second walk places
    each op by the ids the first one stored, appending it to its
    fragment's op list unchecked.  Every boundary list comes out in
    ascending order.
    """
    n = circuit.n_qubits
    cuts = sorted(set(cuts))
    on_wire: list[list[int]] = [[] for _ in range(n)]
    for cut in cuts:
        if 0 <= cut.qubit < n:
            on_wire[cut.qubit].append(cut.position)
    first = [0]
    for positions in on_wire:
        first.append(first[-1] + len(positions) + 1)
    # a -1 sentinel after each wire's last cut position matches no op
    ahead = [positions + [-1] for positions in on_wire]
    segment = first[:n]
    position = [0] * n
    op_segments = []
    for op in circuit.ops:
        ids = []
        for q in op.qubits:
            if position[q] == ahead[q][segment[q] - first[q]]:
                segment[q] += 1
            position[q] += 1
            ids.append(segment[q])
        op_segments.append(ids)
    for cut in cuts:
        # a cut at or beyond the final op-position on its wire separates
        # nothing from nothing — the circuit end is already a free boundary
        if not (0 <= cut.qubit < n and cut.position < position[cut.qubit]):
            raise ValueError(f"{cut} sits at or after the last operation on its wire")

    # union-find over segment ids, joined by operations
    parent = list(range(first[n]))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ids in op_segments:
        if len(ids) > 1:
            root = find(ids[0])
            for other in ids[1:]:
                other = find(other)
                if other != root:
                    parent[other] = root

    # a group's first insertion is at its smallest id
    groups: dict[int, list[int]] = {}
    for sid in range(first[n]):
        groups.setdefault(find(sid), []).append(sid)
    wire_of = [q for q in range(n) for _ in range(len(on_wire[q]) + 1)]
    fragment_of = [0] * first[n]
    local_of = [0] * first[n]
    fragments: list[Fragment] = []
    for f_index, sids in enumerate(groups.values()):
        fragment = Fragment(index=f_index, circuit=Circuit(len(sids)))
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

    # place operations into fragment circuits (original order preserved),
    # unchecked: every check would pass (see the module docstring)
    trusted = Operation._trusted
    bodies = [fragment.circuit.ops for fragment in fragments]
    for op, ids in zip(circuit.ops, op_segments):
        f_index = fragment_of[ids[0]]
        for sid in ids:
            if fragment_of[sid] != f_index:  # pragma: no cover - union-find guarantees this
                raise AssertionError("operation spans fragments")
        bodies[f_index].append(trusted(op.gate, tuple([local_of[sid] for sid in ids])))
    return CutCircuit(original=circuit, cuts=cuts, fragments=fragments)
