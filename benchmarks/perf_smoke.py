"""Perf smoke benchmark: core hot-path timings, tracked from PR 3 onward.

Times the backward walk's readout against the byte-per-bit forward
reference tableau (``repro.stabilizer._reference``) on a 200-qubit
Clifford full-measurement workload and on a fresh 200-qubit HWEA (a CX
ladder, compile included), and the einsum reconstruction
against the ``4^k`` assignment loop (the oracle in
``repro.testing.reconstruction``) on a k=4 chain-cut benchmark, then
writes ``BENCH_core.json`` at the repository root.  CI runs this on
every push so the perf trajectory is visible in the artifact history.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py

Exit code is non-zero when the fast engines regress below the floors
asserted at the bottom (tableau >= 3x, HWEA ladder >= 2x, einsum beats
the loop while
matching it within 1e-9), so CI fails loudly on a perf regression.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

import numpy as np

import repro.kernels as rk
from repro.analysis.distributions import total_variation_distance
from repro.circuits import Circuit, gates, random_clifford_circuit
from repro.core import SuperSim
from repro.core.cutter import cut_circuit
from repro.core.evaluator import SampledVariantData
from repro.core.fragments import Cut
from repro.core.config import ReconstructionConfig
from repro.core.reconstruction import reconstruct_distribution
from repro.core.tomography import build_fragment_tensor
from repro.stabilizer import StabilizerSimulator
from repro.stabilizer._reference import ReferenceTableau
from repro.stabilizer.tableau import _unit_rows, heisenberg_images
from repro.testing.reconstruction import loop_reconstruct_distribution

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_core.json"

TABLEAU_QUBITS = 200
TABLEAU_DEPTH = 40
HWEA_LADDER_QUBITS = 200


def _best(fn, repeats: int) -> float:
    fn()  # warm-up: compiled layers, lazy imports
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _counting_map_eliminations(calls: list):
    """``mock.patch`` context recording the window count of every map
    elimination (``repro.core.tomography._solve_map``)."""
    from unittest import mock

    from repro.core import tomography

    real = tomography._solve_map

    def counted(pauli_map, windows):
        calls.append(len(windows))
        return real(pauli_map, windows)

    return mock.patch.object(tomography, "_solve_map", counted)


def _per_variant_route():
    """``mock.patch`` context sending every Clifford fragment job down the
    per-variant route: each variant spelled out, swept from scratch and
    handed to the generic tomography (the map's oracle)."""
    from unittest import mock

    from repro.core.fragments import Fragment
    from repro.core.variants import all_variants
    from repro.stabilizer.simulator import StabilizerSimulator
    from repro.testing.tomography import per_variant_data

    def per_variant(_self, body, inputs, outputs):
        fragment = Fragment(
            index=0,
            circuit=body,
            quantum_inputs=list(enumerate(inputs)),
            quantum_outputs=list(enumerate(outputs)),
        )
        results = per_variant_data(fragment).results
        return tuple(results[spec] for spec in all_variants(fragment))

    return mock.patch.object(StabilizerSimulator, "pauli_map", per_variant)


def bench_tableau() -> dict:
    """200-qubit Clifford circuit, exact outcome form over every qubit."""
    circuit = random_clifford_circuit(TABLEAU_QUBITS, TABLEAU_DEPTH, rng=0)
    qubits = tuple(range(TABLEAU_QUBITS))

    def reference_run():
        tableau = ReferenceTableau(TABLEAU_QUBITS)
        tableau.apply_circuit(circuit)
        tableau.measurement_distribution(qubits)

    simulator = StabilizerSimulator()
    packed = _best(lambda: simulator.affine_distribution(circuit), repeats=5)
    reference = _best(reference_run, repeats=2)
    return {
        "workload": (
            f"{TABLEAU_QUBITS}q random Clifford depth {TABLEAU_DEPTH}, outcome "
            "form over all qubits: affine_distribution (one backward walk) vs "
            "the reference tableau's apply_circuit + measurement_distribution"
        ),
        "packed_seconds": packed,
        "reference_seconds": reference,
        "speedup": reference / packed,
    }


def bench_hwea_ladder() -> dict:
    """A fresh 200-qubit, 5-round Clifford HWEA walked over ``2n`` rows.

    The HWEA entangler is a CX ladder: every CX waits for the one before
    it, the shape a same-gate layer scheduler could not fuse (almost every
    layer held a single CX).  Each walk takes a circuit it has not seen,
    so it pays the compile as well as the walk, over the rows ``X_q`` and
    ``Z_q`` of every qubit (as many as a tableau evolves); the reference
    applies the same ops to a tableau gate by gate.
    """
    from repro.apps.hwea import HWEA

    n = HWEA_LADDER_QUBITS
    circuit = HWEA(n, 5).random_clifford_instance(np.random.default_rng(0))
    # one unseen circuit per packed call (_best's warm-up + 5 repeats)
    fresh = iter([Circuit(n, circuit.ops) for _ in range(6)])
    units = _unit_rows(n, range(n))
    x = np.vstack([units, np.zeros_like(units)])
    z = np.vstack([np.zeros_like(units), units])

    def packed_run():
        heisenberg_images(next(fresh), x, z)

    def reference_run():
        ReferenceTableau(n).apply_circuit(circuit)

    packed = _best(packed_run, repeats=5)
    reference = _best(reference_run, repeats=2)
    return {
        "workload": (
            f"{n}q 5-round Clifford HWEA ({len(circuit.ops)} ops), a walk of "
            f"{2 * n} rows through a fresh circuit (compile + walk) vs the "
            "reference tableau's apply_circuit"
        ),
        "packed_seconds": packed,
        "reference_seconds": reference,
        "speedup": reference / packed,
    }


def bench_sampling() -> dict:
    """Multi-shot sampling from the exact affine form (vectorised keys)."""
    circuit = random_clifford_circuit(TABLEAU_QUBITS, TABLEAU_DEPTH, rng=0)
    affine = StabilizerSimulator().affine_distribution(circuit)
    shots = 20_000
    seconds = _best(lambda: affine.sample(shots, rng=1), repeats=3)
    # what the evaluator keeps of sampled shots (cache, SQLite row, wire)
    variant = SampledVariantData(
        affine.sample_words(shots, np.random.default_rng(1)), shots
    )
    return {
        "workload": f"{shots} shots from the {TABLEAU_QUBITS}q affine form",
        "seconds": seconds,
        "shots_per_second": shots / seconds,
        "variant_stored_bytes": variant.words.nbytes,
        "variant_packed_bytes": TABLEAU_QUBITS * -(-shots // 64) * 8,
    }


def bench_distribution_kernels() -> dict:
    """Array-native Distribution kernels vs the dict-based baseline.

    A 10^5-outcome sparse distribution over 40 bits: ``marginal`` onto 20
    positions and a 10^5-shot ``sample``, timed against inline re-creations
    of the pre-refactor per-outcome dict loops.
    """
    from repro.analysis.distributions import Distribution

    rng = np.random.default_rng(7)
    n_bits = 40
    support = 100_000
    keys = np.unique(
        rng.integers(0, 1 << n_bits, size=support + support // 8, dtype=np.uint64)
    )[:support]
    vals = rng.random(len(keys))
    vals /= vals.sum()
    dist = Distribution.from_arrays(n_bits, keys, vals, assume_sorted=True)
    probs_dict = dist.probs
    keep = list(range(0, n_bits, 2))
    shots = 100_000

    def dict_marginal():
        out = {}
        for outcome, p in probs_dict.items():
            key = 0
            for i in keep:
                key = (key << 1) | ((outcome >> (n_bits - 1 - i)) & 1)
            out[key] = out.get(key, 0.0) + p
        return out

    def dict_sample():
        sample_rng = np.random.default_rng(3)
        outcome_list = list(probs_dict)
        weights = np.array([probs_dict[k] for k in outcome_list])
        draws = sample_rng.choice(len(outcome_list), size=shots, p=weights)
        counts = {}
        for d in draws:
            counts[outcome_list[d]] = counts.get(outcome_list[d], 0) + 1
        return counts

    array_seconds = _best(
        lambda: (dist.marginal(keep), dist.sample(shots, rng=np.random.default_rng(3))),
        repeats=3,
    )
    dict_seconds = _best(lambda: (dict_marginal(), dict_sample()), repeats=1)
    return {
        "workload": (
            f"{support}-outcome sparse distribution over {n_bits} bits: "
            f"marginal onto {len(keep)} positions + {shots}-shot sample"
        ),
        "array_seconds": array_seconds,
        "dict_seconds": dict_seconds,
        "speedup": dict_seconds / array_seconds,
    }


def bench_mps_sampling() -> dict:
    """Per-site vectorised MPS shot sampling on a 24q GHZ chain."""
    from repro.mps.simulator import MPSSimulator

    n = 24
    circuit = Circuit(n).append(gates.H, 0)
    for q in range(n - 1):
        circuit.append(gates.CX, q, q + 1)
    circuit.measure_all()
    state = MPSSimulator().run(circuit)
    shots = 20_000
    seconds = _best(lambda: state.sample_bits(shots, rng=1), repeats=3)
    return {
        "workload": f"{shots} shots from a {n}q GHZ chain MPS",
        "seconds": seconds,
        "shots_per_second": shots / seconds,
    }


def _chain_workload(blocks: int, width: int, depth: int, seed: int):
    """A chain of Clifford blocks linked by one cut qubit each (k = blocks-1)."""
    rng = np.random.default_rng(seed)
    total = blocks * (width - 1) + 1
    circuit = Circuit(total)
    cuts = []
    for b in range(blocks):
        lo = b * (width - 1)
        if b > 0:
            boundary_ops = sum(1 for op in circuit.ops if lo in op.qubits)
            if boundary_ops == 0:
                circuit.append(gates.H, lo)
                boundary_ops = 1
            cuts.append(Cut(lo, boundary_ops))
        sub = random_clifford_circuit(width, depth, rng)
        circuit.extend(
            sub.map_qubits({i: lo + i for i in range(width)}, total).ops
        )
    circuit.measure_all()
    return circuit, cuts


def bench_reconstruction() -> dict:
    """k=4 chain-cut recombination: einsum contraction vs the loop oracle."""
    cc, tensors, kept_locals, keep = _recombination_workload()
    assert cc.num_cuts >= 4

    def run(reconstruct):
        return reconstruct(cc, tensors, kept_locals, keep, prune_zeros=False)[0]

    einsum_seconds = _best(lambda: run(reconstruct_distribution), repeats=3)
    loop_seconds = _best(lambda: run(loop_reconstruct_distribution), repeats=1)
    einsum_dist = run(reconstruct_distribution)
    loop_dist = run(loop_reconstruct_distribution)
    keys = set(einsum_dist.probs) | set(loop_dist.probs)
    max_abs_diff = max(
        abs(einsum_dist[key] - loop_dist[key]) for key in keys
    )
    return {
        "workload": (
            f"{len(keep)}q Clifford chain, k={cc.num_cuts} cuts, "
            f"{len(cc.fragments)} fragments, dense recombination"
        ),
        "einsum_seconds": einsum_seconds,
        "loop_seconds": loop_seconds,
        "speedup": loop_seconds / einsum_seconds,
        "max_abs_diff": max_abs_diff,
        "tv_distance": total_variation_distance(einsum_dist, loop_dist),
    }


def bench_streaming_reconstruction() -> dict:
    """Windowed marginal vs dense-then-marginalize at the widest dense size.

    Same k=4 chain workload as ``bench_reconstruction`` (21 kept bits is
    the widest size the dense ``4^k * 2^n`` path comfortably serves): an
    8-bit marginal in windowed mode builds the fragment tensors over the
    window only, so peak accumulator memory is ``2^8`` entries instead of
    ``2^21``.  Both sides run tomography + contraction on the same
    evaluated fragment data.  A 61-qubit recursive run rides along as the
    dense-infeasible demonstration: top-k reconstruction with peak memory
    bounded by ``2^qubit_limit``, and :func:`_recursive_61q_counts` adds
    the counts its per-level tomography and its contractions are gated on.
    """
    circuit, cuts = _chain_workload(blocks=5, width=5, depth=6, seed=1)
    keep = list(circuit.measured_qubits)
    window = keep[:8]
    dense_plan = SuperSim().plan(circuit, cuts=cuts)
    windowed_plan = SuperSim(
        reconstruction=ReconstructionConfig(mode="windowed", window=tuple(window))
    ).plan(circuit, cuts=cuts)
    cc = dense_plan.cut_circuit

    def dense():
        result = dense_plan.execute()
        return result.distribution.marginal(range(len(window))), result.stats

    def windowed():
        result = windowed_plan.execute()
        return result.distribution, result.stats

    dense_seconds = _best(lambda: dense(), repeats=3)
    windowed_seconds = _best(lambda: windowed(), repeats=3)
    dense_dist, dense_stats = dense()
    windowed_dist, windowed_stats = windowed()
    max_abs_diff = max(
        abs(dense_dist[key] - windowed_dist[key])
        for key in set(dense_dist.probs) | set(windowed_dist.probs)
    )

    wide = Circuit(61).append(gates.H, 0)
    for q in range(60):
        wide.append(gates.CX, q, q + 1)
    wide.append(gates.XPow(0.25), 30)
    wide_sim = SuperSim(
        reconstruction=ReconstructionConfig(qubit_limit=16, top_k=16)
    )
    recursive_seconds = _best(lambda: wide_sim.run(wide), repeats=3)
    wide_result = wide_sim.run(wide)
    return {
        "workload": (
            f"{circuit.n_qubits}q chain k={cc.num_cuts}: 8-bit windowed "
            "marginal vs dense-then-marginalize; 61q recursive top-k demo"
        ),
        "dense_seconds": dense_seconds,
        "windowed_seconds": windowed_seconds,
        "speedup": dense_seconds / windowed_seconds,
        "max_abs_diff": max_abs_diff,
        "dense_peak_entries": dense_stats.peak_window_entries,
        "windowed_peak_entries": windowed_stats.peak_window_entries,
        "peak_memory_ratio": (
            dense_stats.peak_window_entries
            / windowed_stats.peak_window_entries
        ),
        "recursive_61q_seconds": recursive_seconds,
        "recursive_61q_mode": wide_result.reconstruction_mode,
        "recursive_61q_windows": wide_result.reconstruction_windows,
        "recursive_61q_peak_entries": wide_result.stats.peak_window_entries,
        "recursive_61q_covered": wide_result.covered_probability,
        **_recursive_61q_counts(),
    }


def _recursive_61q_counts() -> dict:
    """Counts, not seconds, of a 61q recursive reconstruction.

    The ledger's ``wide61_recursive`` shape (two ``XPow(1/4)`` in a GHZ
    chain plus an even-pair CX layer: one 61q Clifford fragment with 144
    variants).  Per level, tomography must read the Clifford fragment's
    Pauli map with one GF(2) elimination (``tomography._solve_map``) —
    however many bins the frontier holds and however many variants the
    fragment has.  The top window, where nothing is pinned yet, is a
    conditioned level too (one zero-width row), so eliminations equal the
    conditioned levels and no Clifford fragment is ever built densely;
    once the reconstruction has returned, the tensor builder may still
    hold less than one window tensor.  A level's bins are contracted in
    batches, one per level and group of equal operand shapes — strictly
    fewer contractions than refined bins — and every bin, the top
    window's included, on its support: no bin's slice of an operand above
    ``4^4 * 64`` entries (a dense ``4^4 * 2^12`` one before fragment
    tensors lived on their supports).
    """
    import tracemalloc
    from unittest import mock

    from repro.core import reconstruction, supersim
    from repro.core.reconstruction import reconstruct_dynamic

    qubit_limit, top_k = 12, 64
    wide = Circuit(61).append(gates.H, 0)
    for q in range(60):
        wide.append(gates.CX, q, q + 1)
    for q in (27, 33):
        wide.append(gates.XPow(0.25), q)
    for q in range(0, 60, 2):
        wide.append(gates.CX, q, q + 1)
    sim = SuperSim()
    cc = sim.cut(wide.measure_all())
    fragment_evaluator = sim._evaluator()
    data = fragment_evaluator.evaluate_all(cc.fragments)

    counts = dict.fromkeys(
        (
            "levels",
            "variants",
            "dense_map_builds",
            "shape_groups",
            "contractions",
            "wide_contractions",
        ),
        0,
    )
    level_builder = supersim.build_conditioned_window_tensors
    dense_builder = supersim.build_fragment_tensor
    contract = reconstruction._dense_einsum

    def counted_contraction(tensors, axis_cuts, k, batch=0):
        # the largest operand one bin contributes: a batch's slice
        largest = max((t[0] if batch else t).size for t in tensors)
        counts["contractions"] += 1
        counts["wide_contractions"] += largest > 4**4 * 64
        return contract(tensors, axis_cuts, k, batch)

    def grouped(build):
        """``build``, counting each level's distinct bin operand shapes."""

        def level(window, fixed_qubits, fixed_rows):
            shapes = set()
            for tensors, kept_locals in build(window, fixed_qubits, fixed_rows):
                shape = tuple(getattr(t, "values", t).shape for t in tensors)
                counts["shape_groups"] += shape not in shapes
                shapes.add(shape)
                yield tensors, kept_locals

        return level

    def counted_level(fragment_data, *args, **kwargs):
        counts["levels"] += 1
        counts["variants"] += fragment_data.num_variants
        return level_builder(fragment_data, *args, **kwargs)

    def counted_dense(fragment_data, *args, **kwargs):
        counts["dense_map_builds"] += fragment_data.pauli_map is not None
        return dense_builder(fragment_data, *args, **kwargs)

    eliminations: list[int] = []
    with (
        mock.patch.object(supersim, "build_conditioned_window_tensors", counted_level),
        mock.patch.object(supersim, "build_fragment_tensor", counted_dense),
        _counting_map_eliminations(eliminations),
        mock.patch.object(reconstruction, "_dense_einsum", counted_contraction),
    ):
        builder = grouped(sim._dynamic_tensor_builder(cc, data, fragment_evaluator))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            _, stats = reconstruct_dynamic(
                cc, builder, list(range(61)), qubit_limit=qubit_limit, top_k=top_k
            )
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    window_tensor = max(
        8 * 4 ** (len(f.quantum_inputs) + len(f.quantum_outputs)) * 2**qubit_limit
        for f in cc.fragments
    )
    return {
        "recursive_61q_conditioned_levels": counts["levels"],
        "recursive_61q_level_variants": counts["variants"],
        "recursive_61q_dense_map_builds": counts["dense_map_builds"],
        "recursive_61q_map_eliminations": len(eliminations),
        "recursive_61q_windows_refined": stats.windows,
        "recursive_61q_shape_groups": counts["shape_groups"],
        "recursive_61q_contractions": counts["contractions"],
        "recursive_61q_wide_contractions": counts["wide_contractions"],
        "recursive_61q_peak_accumulator_entries": stats.peak_window_entries,
        "recursive_61q_window_tensor_bytes": window_tensor,
        "recursive_61q_retained_bytes": retained - before,
        "recursive_61q_peak_bytes": peak - before,
    }


def _recombination_workload(width: int | None = None):
    """Shared k=4 chain tensors for the recombination and path-cache
    benches, over all measured qubits or the first ``width`` of them."""
    circuit, cuts = _chain_workload(blocks=5, width=5, depth=6, seed=1)
    cc = cut_circuit(circuit, cuts)
    data = SuperSim()._evaluator().evaluate_all(cc.fragments)
    keep = list(circuit.measured_qubits)[:width]
    keep_set = set(keep)
    kept_locals = [
        [lq for oq, lq in f.circuit_outputs if oq in keep_set]
        for f in cc.fragments
    ]
    tensors = [
        build_fragment_tensor(d, kl) for d, kl in zip(data, kept_locals)
    ]
    return cc, tensors, kept_locals, keep


def bench_path_cache() -> dict:
    """Warm vs cold einsum contraction-path derivation on window contractions.

    The recursive dynamic-definition engine contracts identically-shaped
    small window tensors once per frontier bin; the memoized
    ``np.einsum_path`` (an ``lru_cache``) turns the per-window greedy path
    derivation into a lookup.  Cold clears the cache before every
    contraction (the pre-cache behaviour), warm reuses it.
    """
    from repro.core import reconstruction as rec

    # build the window's tensors once up front: the recursive driver gets
    # new ones per frontier bin, but the contraction over their shapes is
    # the part the path cache accelerates — time exactly that, repeated
    cc, tensors, kept_locals, window = _recombination_workload(width=8)

    def contract():
        return reconstruct_distribution(cc, tensors, kept_locals, window)

    # batch contractions per timed call: a single window contraction is
    # sub-millisecond, so timer/scheduler jitter would swamp the per-call
    # path-derivation saving
    batch = 20

    def cold():
        for _ in range(batch):
            rec._einsum_path.cache_clear()
            contract()

    def warm():
        for _ in range(batch):
            contract()

    cold_seconds = _best(cold, repeats=7) / batch
    rec._einsum_path.cache_clear()
    contract()  # prime
    warm_seconds = _best(warm, repeats=7) / batch
    before = rec._einsum_path.cache_info()
    contract()
    after = rec._einsum_path.cache_info()
    return {
        "workload": (
            f"repeated 8-bit window contraction of the k={cc.num_cuts} "
            "chain, cold (path re-derived) vs warm (path cache hit)"
        ),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "warm_cache_hits": after.hits - before.hits,
        "warm_cache_misses": after.misses - before.misses,
    }


def bench_variant_sharing() -> dict:
    """Per-fragment work happens once per fragment — gated on counts.

    One sampled evaluation of a 100q 1-T HWEA: a Clifford fragment is one
    stabilizer job whose variants share the fragment's compiled and
    evolved body, so the layer compiler and the ``apply_layers`` kernel run
    once per Clifford fragment; and all 100 single-qubit windows' tensors
    come out of one pass per fragment, equal to the per-window builds.
    Counts are exact, so the gate is safe on shared runners.
    """
    from repro.apps.hwea import HWEA
    from repro.core import SamplingConfig
    from repro.core.tomography import build_window_tensors
    from repro.stabilizer import tableau as tableau_module

    circuit = (
        HWEA(100, 5).near_clifford_instance(num_t=1, rng=np.random.default_rng(0))
    ).measure_all()
    sim = SuperSim(sampling=SamplingConfig(shots=1000, seed=0))
    fragments = sim.cut(circuit).fragments
    body_ops = sorted(len(f.circuit) for f in fragments if f.is_clifford)

    compiled: list[int] = []
    real_compile = tableau_module._compile_ops

    def counting_compile(ops):
        compiled.append(len(ops))
        return real_compile(ops)

    evaluator = sim._evaluator()
    layers_before = rk.counters_snapshot()["apply_layers"][0]
    tableau_module._compile_ops = counting_compile
    try:
        start = time.perf_counter()
        data = evaluator.evaluate_all(fragments)
        evaluate_seconds = time.perf_counter() - start
    finally:
        tableau_module._compile_ops = real_compile
    apply_layers_calls = rk.counters_snapshot()["apply_layers"][0] - layers_before

    tensors_equal = True
    start = time.perf_counter()
    batched = [
        build_window_tensors(d, [[lq] for _oq, lq in d.fragment.circuit_outputs])
        for d in data
    ]
    batched_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for d, tensors in zip(data, batched):
        for (_oq, lq), tensor in zip(d.fragment.circuit_outputs, tensors):
            if not np.array_equal(tensor, build_fragment_tensor(d, [lq])):
                tensors_equal = False
    per_window_seconds = time.perf_counter() - start
    return {
        "workload": (
            "100q 1-T HWEA, 1000 shots: one evaluate_all + 100 single-qubit "
            "window tensors per fragment"
        ),
        "clifford_fragments": len(body_ops),
        "stabilizer_jobs": evaluator.last_stats["backends"].get("stabilizer", 0),
        "compile_calls": len(compiled),
        "body_compiles": sorted(n for n in compiled if n in body_ops) == body_ops,
        "apply_layers_calls": apply_layers_calls,
        "tensors_equal": tensors_equal,
        "evaluate_seconds": evaluate_seconds,
        "batched_tensor_seconds": batched_seconds,
        "per_window_tensor_seconds": per_window_seconds,
    }


def bench_window_batch() -> dict:
    """Marginal windows are batched — gated on counts.

    ``single_qubit_marginals`` of a 100q 1-T HWEA: the windows are
    contracted once per distinct window *shape* (the ``dense_contract``
    kernel, twice per window before they were batched), and in exact mode
    a Clifford fragment's tensors of all its windows of one width come
    from one elimination of its Pauli map: ``tomography._solve_map`` runs
    at most once per Clifford fragment and window width.  Counts are
    exact, so the gate is safe on shared runners.  The batched and the
    oracle seconds (the per-variant route of every Clifford fragment and
    the window loop of ``repro.testing.reconstruction``) are reported, not
    gated, with whether both agree bit for bit.
    """
    from unittest import mock

    from repro.apps.hwea import HWEA
    from repro.core import SamplingConfig, reconstruction, supersim
    from repro.testing.reconstruction import (
        loop_reconstruct_windows,
        per_window_clipped,
    )

    circuit = (
        HWEA(100, 5).near_clifford_instance(num_t=1, rng=np.random.default_rng(0))
    ).measure_all()
    windows = [[q] for q in circuit.measured_qubits]
    counts = dict.fromkeys(("shapes", "elimination_bound"), 0)
    batched = reconstruction.reconstruct_windows

    def counted_windows(cut_circuit, tensors, layouts, **kwargs):
        counts["shapes"] += len(
            {tuple(t[w].shape for t in tensors) for w in range(len(layouts))}
        )
        counts["elimination_bound"] += sum(
            len({len(kept[i]) for kept, _order in layouts})
            for i, f in enumerate(cut_circuit.fragments)
            if f.is_clifford
        )
        return batched(cut_circuit, tensors, layouts, **kwargs)

    eliminations: list[int] = []
    with mock.patch.object(supersim, "reconstruct_windows", counted_windows):
        before = rk.counters_snapshot()["dense_contract"][0]
        SuperSim(sampling=SamplingConfig(shots=1000, seed=0)).single_qubit_marginals(
            circuit
        )
        contractions = rk.counters_snapshot()["dense_contract"][0] - before
        shapes = counts["shapes"]
        counts["elimination_bound"] = 0
        with _counting_map_eliminations(eliminations):
            SuperSim().single_qubit_marginals(circuit)

    def oracle():
        seen = {}

        def spied(cut_circuit, tensors, layouts, **kwargs):
            seen.update(cut_circuit=cut_circuit, tensors=tensors, kwargs=kwargs)
            return batched(cut_circuit, tensors, layouts, **kwargs)

        with (
            mock.patch.object(supersim, "reconstruct_windows", spied),
            _per_variant_route(),
        ):
            SuperSim().single_qubit_marginals(circuit)
        marginals = per_window_clipped(
            loop_reconstruct_windows(
                seen["cut_circuit"], seen["tensors"], windows, **seen["kwargs"]
            )
        )
        return np.array([[dist[0], dist[1]] for dist in marginals])

    def run():
        return SuperSim().single_qubit_marginals(circuit)

    return {
        "workload": (
            "100q 1-T HWEA single_qubit_marginals: contractions per window "
            "shape (sampled) and map eliminations per Clifford fragment and "
            "window width (exact), batched vs the per-variant, per-window oracle"
        ),
        "windows": len(windows),
        "window_shapes": shapes,
        "dense_contract_calls": contractions,
        "map_eliminations": len(eliminations),
        "map_elimination_bound": counts["elimination_bound"],
        "oracle_equal": run().tobytes() == oracle().tobytes(),
        "batched_seconds": _best(run, repeats=3),
        "oracle_seconds": _best(oracle, repeats=3),
    }


def bench_clifford_exact() -> dict:
    """Clifford fragments are exact in every mode — gated on counts.

    A sampled ``single_qubit_marginals`` of a 100q 1-T HWEA: no Clifford
    variant is sampled (``AffineOutcomeDistribution.sample_words`` never
    runs), each Clifford fragment is one stabilizer job keyed exact, and
    the jobs that carry shots are exactly those of the non-Clifford
    fragment.  Counts are exact, so the gate is safe on shared runners.
    """
    from unittest import mock

    from repro.apps.hwea import HWEA
    from repro.core import SamplingConfig
    from repro.core.evaluator import FragmentEvaluator
    from repro.stabilizer.tableau import AffineOutcomeDistribution

    circuit = (
        HWEA(100, 5).near_clifford_instance(num_t=1, rng=np.random.default_rng(0))
    ).measure_all()
    sim = SuperSim(sampling=SamplingConfig(shots=1000, seed=0))
    fragments = sim.cut(circuit).fragments
    jobs = []
    sample_words_calls = [0]
    build_jobs = FragmentEvaluator._build_jobs
    sample_words = AffineOutcomeDistribution.sample_words

    def counted_build_jobs(self, *args):
        assignments, unique = build_jobs(self, *args)
        jobs.extend(unique.values())
        return assignments, unique

    def counted_sample_words(self, *args, **kwargs):
        sample_words_calls[0] += 1
        return sample_words(self, *args, **kwargs)

    with (
        mock.patch.object(FragmentEvaluator, "_build_jobs", counted_build_jobs),
        mock.patch.object(
            AffineOutcomeDistribution, "sample_words", counted_sample_words
        ),
    ):
        start = time.perf_counter()
        sim.single_qubit_marginals(circuit)
        seconds = time.perf_counter() - start
    stabilizer = [job for job in jobs if job.backend.name == "stabilizer"]
    return {
        "workload": (
            "100q 1-T HWEA single_qubit_marginals at 1000 shots: how the "
            "Clifford fragments are evaluated"
        ),
        "sample_words_calls": sample_words_calls[0],
        "clifford_fragments": sum(fragment.is_clifford for fragment in fragments),
        "stabilizer_jobs": len(stabilizer),
        "stabilizer_exact_jobs": sum(job.key[-1] == "exact" for job in stabilizer),
        "shot_jobs": sum(job.shots is not None for job in jobs),
        "shot_fragments": sorted(
            {job.fragment_index for job in jobs if job.shots is not None}
        ),
        "non_clifford_fragments": [
            i for i, fragment in enumerate(fragments) if not fragment.is_clifford
        ],
        "seconds": seconds,
    }


def bench_unbuilt_fragment_ops() -> dict:
    """A cold request builds no ``Operation`` object — gated on counts.

    From ``HWEA(200, 5).near_clifford_instance`` (1 T) through one sampled
    ``single_qubit_marginals`` on a fresh ``SuperSim``: the factory's
    appends and the T insert write the circuit's columns, and every stage
    (cut, Clifford check, routing features, fingerprint, compile, walk)
    reads its op table or a fragment body's, so nothing builds an
    ``Operation``.  Counted by spying ``Operation.__init__`` and
    ``Operation._trusted``; the cut's own fragments are counted by spying
    ``plan_cuts``.  Counts are exact, so the gate is safe on shared
    runners.
    """
    from unittest import mock

    from repro.apps.hwea import HWEA
    from repro.circuits.circuit import Operation
    from repro.core import SamplingConfig, supersim

    cuts = []
    plan_cuts = supersim.plan_cuts
    built = []
    init, trusted = Operation.__init__, Operation._trusted.__func__

    def spied(*args, **kwargs):
        cuts.append(plan_cuts(*args, **kwargs))
        return cuts[-1]

    def counted_init(self, gate, qubits):
        built.append(gate)
        init(self, gate, qubits)

    def counted_trusted(cls, gate, qubits):
        built.append(gate)
        return trusted(cls, gate, qubits)

    with mock.patch.object(supersim, "plan_cuts", spied), mock.patch.object(
        Operation, "__init__", counted_init
    ), mock.patch.object(Operation, "_trusted", classmethod(counted_trusted)):
        start = time.perf_counter()
        circuit = (
            HWEA(HWEA_LADDER_QUBITS, 5)
            .near_clifford_instance(num_t=1, rng=np.random.default_rng(0))
            .measure_all()
        )
        SuperSim(sampling=SamplingConfig(shots=5000, seed=0)).single_qubit_marginals(
            circuit
        )
        seconds = time.perf_counter() - start
    bodies = [f.circuit for cut in cuts for f in cut.fragments if f.is_clifford]
    return {
        "workload": (
            f"{HWEA_LADDER_QUBITS}q 1-T HWEA, built and then read by "
            "single_qubit_marginals at 5000 shots, cold: Operations built"
        ),
        "circuit_ops": len(circuit),
        "clifford_fragments": len(bodies),
        "clifford_fragment_ops": sum(len(body) for body in bodies),
        "operations_built": len(built),
        "seconds": seconds,
    }


def bench_window_rows() -> dict:
    """A windows readout stays arrays after tomography — gated on counts.

    One sampled ``single_qubit_marginals`` of a 200q 1-T HWEA on a fresh
    ``SuperSim``: from the moment ``reconstruct_windows`` is entered to
    the returned ``(n, 2)`` array, the reconstruction, the negative-mass
    rule and the unwrap build no :class:`Distribution` (each window's row
    of its width's array is read directly), so the count cannot grow with
    the 200 windows.  Constructions are counted at the two doors every
    ``Distribution`` comes through (``__init__`` and ``from_arrays``).
    Counts are exact, so the gate is safe on shared runners.
    """
    from unittest import mock

    from repro.analysis.distributions import Distribution
    from repro.apps.hwea import HWEA
    from repro.core import SamplingConfig, supersim

    circuit = (
        HWEA(HWEA_LADDER_QUBITS, 5)
        .near_clifford_instance(num_t=1, rng=np.random.default_rng(0))
        .measure_all()
    )
    built = [0]
    at_reconstruct: list[int] = []
    init, from_arrays = Distribution.__init__, Distribution.from_arrays.__func__

    def counted_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def counted_from_arrays(cls, *args, **kwargs):
        built[0] += 1
        return from_arrays(cls, *args, **kwargs)

    reconstruct_windows = supersim.reconstruct_windows

    def spied(*args, **kwargs):
        at_reconstruct.append(built[0])
        return reconstruct_windows(*args, **kwargs)

    with (
        mock.patch.object(Distribution, "__init__", counted_init),
        mock.patch.object(
            Distribution, "from_arrays", classmethod(counted_from_arrays)
        ),
        mock.patch.object(supersim, "reconstruct_windows", spied),
    ):
        marginals = SuperSim(
            sampling=SamplingConfig(shots=5000, seed=0)
        ).single_qubit_marginals(circuit)
    return {
        "workload": (
            f"{HWEA_LADDER_QUBITS}q 1-T HWEA single_qubit_marginals at 5000 "
            "shots, cold: Distributions built after tomography"
        ),
        "windows": len(marginals),
        "reconstruct_calls": len(at_reconstruct),
        "distributions_built": built[0],
        "distributions_after_tomography": built[0] - at_reconstruct[0],
    }


# the array-native data plane samples the 200q affine form at ~1.3M
# shots/s on a quiet machine (the dict-based seed managed ~41k); the CI
# floor is the 10x acceptance level (~600k nominal) with the 0.7 noise
# margin folded in, so shared-runner jitter does not block the build but
# a return of the per-outcome Python loops does
AFFINE_SAMPLING_FLOOR = 420_000.0

# distribution kernels measure ~30-60x over the dict baseline; gate well
# below so only a real regression (not allocator/scheduler noise) fails
DISTRIBUTION_KERNELS_FLOOR = 10.0


def main() -> int:
    results = {
        "tableau_200q": bench_tableau(),
        "hwea_ladder_200q": bench_hwea_ladder(),
        "affine_sampling": bench_sampling(),
        "distribution_kernels": bench_distribution_kernels(),
        "mps_sampling": bench_mps_sampling(),
        "reconstruction_k4": bench_reconstruction(),
        "streaming_reconstruction": bench_streaming_reconstruction(),
        "einsum_path_cache": bench_path_cache(),
        "variant_sharing": bench_variant_sharing(),
        "window_batch": bench_window_batch(),
        "clifford_exact": bench_clifford_exact(),
        "unbuilt_fragment_ops": bench_unbuilt_fragment_ops(),
        "window_rows": bench_window_rows(),
    }
    # atomic write: CI reads the artifact even if a later run is killed
    # mid-write, so stage to a tmp file and os.replace into place
    tmp = OUTPUT.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(results, indent=2) + "\n")
    os.replace(tmp, OUTPUT)
    print(json.dumps(results, indent=2))

    failures = []
    # conservative CI floor: the walk's readout measures ~11x on a quiet
    # machine, but shared runners are noisy — gate on 3x so only a real
    # regression (not scheduler jitter) blocks the build
    if results["tableau_200q"]["speedup"] < 3.0:
        failures.append(
            f"tableau speedup {results['tableau_200q']['speedup']:.2f}x < 3x"
        )
    # the gate walk measures ~8x here, the layered engine it replaced
    # ~1.5x (compile included): gate at 2x, clear of runner jitter
    if results["hwea_ladder_200q"]["speedup"] < 2.0:
        failures.append(
            "HWEA ladder speedup "
            f"{results['hwea_ladder_200q']['speedup']:.2f}x < 2x"
        )
    if results["affine_sampling"]["shots_per_second"] < AFFINE_SAMPLING_FLOOR:
        failures.append(
            "affine sampling "
            f"{results['affine_sampling']['shots_per_second']:,.0f} shots/s "
            f"< {AFFINE_SAMPLING_FLOOR:,.0f}"
        )
    # a count, exact on any runner: shots are stored one bit each
    sampling = results["affine_sampling"]
    if sampling["variant_stored_bytes"] != sampling["variant_packed_bytes"]:
        failures.append(
            f"a sampled variant stores {sampling['variant_stored_bytes']} bytes, "
            f"not the {sampling['variant_packed_bytes']} of its packed shots"
        )
    if results["distribution_kernels"]["speedup"] < DISTRIBUTION_KERNELS_FLOOR:
        failures.append(
            "distribution kernels only "
            f"{results['distribution_kernels']['speedup']:.1f}x over the "
            f"dict baseline (< {DISTRIBUTION_KERNELS_FLOOR:.0f}x)"
        )
    if results["reconstruction_k4"]["speedup"] <= 1.0:
        failures.append(
            "einsum reconstruction no faster than the assignment loop "
            f"({results['reconstruction_k4']['speedup']:.2f}x)"
        )
    if results["reconstruction_k4"]["max_abs_diff"] > 1e-9:
        failures.append(
            "einsum reconstruction diverges from the loop by "
            f"{results['reconstruction_k4']['max_abs_diff']:.2e}"
        )
    streaming = results["streaming_reconstruction"]
    if streaming["max_abs_diff"] > 1e-9:
        failures.append(
            "windowed marginal diverges from the dense marginal by "
            f"{streaming['max_abs_diff']:.2e}"
        )
    # 2^21 dense accumulator vs 2^8 window = 8192x; gate well below so
    # only a real regression (the window re-densifying) fails
    if streaming["peak_memory_ratio"] < 1000.0:
        failures.append(
            "windowed reconstruction peak-memory ratio only "
            f"{streaming['peak_memory_ratio']:.0f}x (< 1000x)"
        )
    if streaming["speedup"] <= 1.0:
        failures.append(
            "windowed marginal no faster than dense-then-marginalize "
            f"({streaming['speedup']:.2f}x)"
        )
    if streaming["recursive_61q_covered"] < 1.0 - 1e-6:
        failures.append(
            "61q recursive reconstruction covers only "
            f"{streaming['recursive_61q_covered']:.6f} of the mass"
        )
    if streaming["recursive_61q_peak_entries"] > 2**16:
        failures.append(
            "61q recursive peak window "
            f"{streaming['recursive_61q_peak_entries']} entries > 2^16"
        )
    # counts, not seconds: exact on any runner
    if not (
        streaming["recursive_61q_conditioned_levels"] > 0
        and streaming["recursive_61q_map_eliminations"]
        == streaming["recursive_61q_conditioned_levels"]
        and streaming["recursive_61q_dense_map_builds"] == 0
    ):
        failures.append(
            "61q recursive tomography no longer reads each Clifford "
            "fragment's map on its support with one elimination per level: "
            f"{streaming['recursive_61q_map_eliminations']} eliminations for "
            f"{streaming['recursive_61q_conditioned_levels']} conditioned "
            f"fragment-levels, {streaming['recursive_61q_dense_map_builds']} "
            "dense Clifford-fragment builds (want 0) "
            f"({streaming['recursive_61q_level_variants']} variant-levels, "
            f"{streaming['recursive_61q_windows_refined']} windows)"
        )
    if not (
        streaming["recursive_61q_contractions"]
        == streaming["recursive_61q_shape_groups"]
        < streaming["recursive_61q_windows_refined"]
    ):
        failures.append(
            "61q recursive levels are no longer contracted one batch per "
            f"level and shape group: {streaming['recursive_61q_contractions']} "
            f"contractions for {streaming['recursive_61q_shape_groups']} "
            f"level shape groups and {streaming['recursive_61q_windows_refined']} "
            "refined bins (want contractions == groups < bins)"
        )
    if streaming["recursive_61q_wide_contractions"] != 0:
        failures.append(
            "61q recursive bins are no longer contracted on their supports: "
            f"{streaming['recursive_61q_wide_contractions']} of "
            f"{streaming['recursive_61q_contractions']} contractions were "
            "handed a bin operand above 4^4 * 64 entries (the top window "
            "included, none may be)"
        )
    if (
        streaming["recursive_61q_retained_bytes"]
        > streaming["recursive_61q_window_tensor_bytes"]
    ):
        failures.append(
            "61q recursive tensor builder retains "
            f"{streaming['recursive_61q_retained_bytes']} bytes after the "
            "reconstruction (> one window tensor, "
            f"{streaming['recursive_61q_window_tensor_bytes']})"
        )
    cache = results["einsum_path_cache"]
    if cache["warm_cache_misses"] != 0:
        failures.append(
            "warm windowed contraction still misses the einsum path cache "
            f"({cache['warm_cache_misses']} misses)"
        )
    # the warm path skips the greedy np.einsum_path derivation entirely;
    # gate just above parity so scheduler noise cannot block the build
    # but losing the cache (every contraction back to cold) does
    if cache["speedup"] < 1.05:
        failures.append(
            "einsum path cache warm speedup only "
            f"{cache['speedup']:.2f}x (< 1.05x)"
        )
    sharing = results["variant_sharing"]
    if not (
        sharing["body_compiles"]
        and sharing["compile_calls"] == sharing["clifford_fragments"]
        and sharing["apply_layers_calls"] == sharing["clifford_fragments"]
        and sharing["stabilizer_jobs"] == sharing["clifford_fragments"]
    ):
        failures.append(
            "a Clifford fragment is no longer one job sharing its body: "
            f"{sharing['compile_calls']} compiles and "
            f"{sharing['apply_layers_calls']} apply_layers calls for "
            f"{sharing['clifford_fragments']} Clifford fragment(s), "
            f"{sharing['stabilizer_jobs']} stabilizer jobs"
        )
    if not sharing["tensors_equal"]:
        failures.append("batched window tensors differ from per-window builds")
    batch = results["window_batch"]
    if not (
        batch["window_shapes"] < batch["windows"]
        and batch["dense_contract_calls"] == batch["window_shapes"]
    ):
        failures.append(
            f"{batch['dense_contract_calls']} window contractions for "
            f"{batch['window_shapes']} window shapes ({batch['windows']} "
            "windows): marginal windows are no longer contracted once per shape"
        )
    if not 0 < batch["map_eliminations"] <= batch["map_elimination_bound"]:
        failures.append(
            f"{batch['map_eliminations']} map eliminations building exact "
            "window tensors, not between one and one per Clifford fragment "
            f"and window width ({batch['map_elimination_bound']})"
        )
    if not batch["oracle_equal"]:
        failures.append(
            "batched single-qubit marginals differ from the per-variant, "
            "per-window oracle"
        )
    exact = results["clifford_exact"]
    if not (
        exact["sample_words_calls"] == 0
        and exact["stabilizer_jobs"] == exact["clifford_fragments"] > 0
        and exact["stabilizer_exact_jobs"] == exact["stabilizer_jobs"]
        and exact["shot_fragments"] == exact["non_clifford_fragments"] != []
    ):
        failures.append(
            "sampled mode no longer evaluates Clifford fragments exactly: "
            f"{exact['sample_words_calls']} sample_words calls, "
            f"{exact['stabilizer_exact_jobs']} of {exact['stabilizer_jobs']} "
            f"stabilizer jobs keyed exact for {exact['clifford_fragments']} "
            f"Clifford fragment(s), shots on fragments "
            f"{exact['shot_fragments']} (non-Clifford: "
            f"{exact['non_clifford_fragments']})"
        )
    unbuilt = results["unbuilt_fragment_ops"]
    if not (unbuilt["clifford_fragments"] > 0 and unbuilt["operations_built"] == 0):
        failures.append(
            f"building a {unbuilt['circuit_ops']}-op circuit and a cold request on "
            f"it built {unbuilt['operations_built']} Operations (Clifford "
            f"fragments: {unbuilt['clifford_fragments']}, "
            f"{unbuilt['clifford_fragment_ops']} ops): some stage walks an "
            "op list instead of the op table"
        )
    rows = results["window_rows"]
    if not (
        rows["reconstruct_calls"] == 1 and rows["distributions_after_tomography"] == 0
    ):
        failures.append(
            f"a cold {rows['windows']}-window single_qubit_marginals built "
            f"{rows['distributions_after_tomography']} Distributions after "
            f"tomography (want 0) in {rows['reconstruct_calls']} "
            "reconstruct_windows calls (want 1): the windows readout no "
            "longer stays rows"
        )
    if failures:
        print("PERF SMOKE FAILURES:", "; ".join(failures), file=sys.stderr)
        return 1
    print("perf smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
