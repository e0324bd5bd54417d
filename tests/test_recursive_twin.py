"""The recursive driver's batched levels, bit for bit as one bin at a time.

``reconstruct_dynamic`` contracts each level's frontier bins in batches of
equal operand shapes and reads the next frontier off the accumulator rows
as arrays.  Its oracle is the per-bin driver it replaced
(``repro.testing.reconstruction.per_bin_reconstruct_dynamic``): one
``reconstruct_distribution`` call and one ``Distribution`` per bin.  Both
run over the same level builders here, and the distributions must agree
byte for byte and every ``ReconstructionStats`` field exactly, over the
circuits of the level-builder tests and random circuits with T gates
(exact and sampled), a builder whose bins differ in support size within a
level, ``top_k`` cuts through tied probabilities, ``prune_zeros`` on and
off, and chunk budgets down to one bin per chunk.
"""

import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, gates, inject_t_gates, random_clifford_circuit
from repro.core import (
    ReconstructionConfig,
    SamplingConfig,
    SuperSim,
    reconstruction,
)
from repro.core.reconstruction import SupportTensor, reconstruct_dynamic
from repro.testing.reconstruction import (
    dense_unpinned_level_builder,
    per_bin_reconstruct_dynamic,
)


def _chain(n, rotated, opened=(0,), pairs=True):
    """A CX chain: an H on each of ``opened``, the chain, ``XPow(1/4)`` on
    each of ``rotated``, then (``pairs``) a CX on every even pair."""
    circuit = Circuit(n)
    for q in opened:
        circuit.append(gates.H, q)
    for q in range(n - 1):
        circuit.append(gates.CX, q, q + 1)
    for q in rotated:
        circuit.append(gates.XPow(0.25), q)
    if pairs:
        for q in range(0, n - 1, 2):
            circuit.append(gates.CX, q, q + 1)
    return circuit.measure_all()


def _split_ghz():
    circuit = Circuit(12).append(gates.H, 0)
    for q in range(5):
        circuit.append(gates.CX, q, q + 1)
    circuit.append(gates.XPow(0.25), 5)
    for q in range(5, 11):
        circuit.append(gates.CX, q, q + 1)
    return circuit.measure_all()


def _late_t():
    circuit = Circuit(8).append(gates.H, 0)
    for q in range(7):
        circuit.append(gates.CX, q, q + 1)
    circuit.append(gates.T, 3).append(gates.H, 3).append(gates.T, 3)
    return circuit.measure_all()


def _random_t(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    circuit = random_clifford_circuit(n, int(rng.integers(2, 5)), rng)
    circuit = inject_t_gates(circuit, int(rng.integers(1, 3)), rng)
    return circuit.measure_all(), [int(q) for q in rng.permutation(n)]


#: the circuits of ``test_level_builder_equals_the_dense_top_window``:
#: (circuit, kept qubits in definition order)
FIXED_CASES = {
    "wide31": lambda: (_chain(31, rotated=(13, 18)), list(range(31))),
    "unpinned-later": lambda: (_split_ghz(), [0, 1, 2, 5, 3, 4, 6, 7, 8, 9, 10, 11]),
    # |+>^8 is left alone by every CX: a full support, every bin tied
    "full-support": lambda: (
        _chain(8, rotated=(4,), opened=range(8), pairs=False),
        list(range(8)),
    ),
    "late-t": lambda: (_late_t(), [3, 0, 1, 2, 4, 5, 6, 7]),
    # 70 outcome bits: the frontier's keys are chunked past 62 of them
    "wide70": lambda: (
        _chain(70, rotated=(35,), opened=(0, 3, 50)),
        list(range(70))[::-1],
    ),
}


@functools.lru_cache(maxsize=None)
def _evaluated(case, shots):
    """``(sim, cut circuit, fragment data, evaluator, kept qubits)``."""
    if case.startswith("random-"):
        circuit, keep = _random_t(int(case[len("random-"):]))
    else:
        circuit, keep = FIXED_CASES[case]()
    sampling = SamplingConfig(shots=shots, seed=3) if shots else None
    sim = SuperSim(sampling=sampling)
    cc = sim.cut(circuit)
    evaluator = sim._evaluator()
    data = evaluator.evaluate_all(cc.fragments)
    return sim, cc, data, evaluator, keep


def _thinned(build, seed):
    """``build``'s level builder with every on-support tensor of more than
    one key cut to a random nonempty subset of its columns, bin by bin, so
    the bins of one level differ in support size.  Two builders of one
    seed draw the same subsets."""
    rng = np.random.default_rng(seed)

    def thinned(window, fixed_qubits, fixed_rows):
        for tensors, kept_locals in build(window, fixed_qubits, fixed_rows):
            cut = []
            for tensor in tensors:
                size = len(getattr(tensor, "support", ()))
                if size > 1:
                    count = int(rng.integers(1, size + 1))
                    keep = np.sort(rng.choice(size, count, replace=False))
                    tensor = SupportTensor(
                        tensor.values[..., keep], tensor.support[keep]
                    )
                cut.append(tensor)
            yield cut, kept_locals

    return thinned


def _builder(kind, sim, cc, data, evaluator):
    if kind == "dense":
        return dense_unpinned_level_builder(cc, data)
    build = sim._dynamic_tensor_builder(cc, data, evaluator)
    return build if kind == "production" else _thinned(build, seed=5)


def _assert_twins(case, shots, builder, qubit_limit, top_k, prune_zeros):
    sim, cc, data, evaluator, keep = _evaluated(case, shots)
    kwargs = dict(qubit_limit=qubit_limit, top_k=top_k, prune_zeros=prune_zeros)
    got, got_stats = reconstruct_dynamic(
        cc, _builder(builder, sim, cc, data, evaluator), keep, **kwargs
    )
    want, want_stats = per_bin_reconstruct_dynamic(
        cc, _builder(builder, sim, cc, data, evaluator), keep, **kwargs
    )
    assert got.n_bits == want.n_bits
    assert got.keys_array.dtype == want.keys_array.dtype
    assert got.keys_array.tobytes() == want.keys_array.tobytes()
    assert got.values_array.tobytes() == want.values_array.tobytes()
    assert dataclasses.asdict(got_stats) == dataclasses.asdict(want_stats)
    return got_stats


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(
        [case for case in FIXED_CASES if case != "wide70"]
        + [f"random-{seed}" for seed in range(12)]
    ),
    shots=st.sampled_from([0, 0, 400]),
    builder=st.sampled_from(["production", "dense", "thinned"]),
    qubit_limit=st.integers(1, 8),
    top_k=st.sampled_from([1, 2, 3, 5, 64]),
    prune_zeros=st.booleans(),
    budget=st.sampled_from([1, 300, 2**16]),
)
def test_batched_levels_equal_the_per_bin_driver(
    case, shots, builder, qubit_limit, top_k, prune_zeros, budget
):
    with mock.patch.object(reconstruction, "_BATCH_ENTRIES", budget):
        _assert_twins(case, shots, builder, qubit_limit, top_k, prune_zeros)


def _level_groups(case, builder, qubit_limit, top_k):
    """Per level of a builder: the distinct operand shapes of its bins."""
    sim, cc, data, evaluator, keep = _evaluated(case, 0)
    build = _builder(builder, sim, cc, data, evaluator)
    levels = []

    def recording(window, fixed_qubits, fixed_rows):
        shapes = set()
        levels.append(shapes)
        for tensors, kept_locals in build(window, fixed_qubits, fixed_rows):
            shapes.add(
                tuple(
                    (t.values if isinstance(t, SupportTensor) else t).shape
                    for t in tensors
                )
            )
            yield tensors, kept_locals

    reconstruct_dynamic(cc, recording, keep, qubit_limit=qubit_limit, top_k=top_k)
    return levels


@pytest.mark.parametrize("prune_zeros", [True, False])
def test_bins_of_one_level_differ_in_support_size(prune_zeros):
    """Thinned supports split the refined levels of the |+>^8 chain into
    several shape groups: several batches per level, still bit for bit."""
    levels = _level_groups("full-support", "thinned", 3, 64)
    assert len(levels) == 3 and all(len(shapes) > 1 for shapes in levels[1:])
    _assert_twins("full-support", 0, "thinned", 3, 64, prune_zeros)


@pytest.mark.parametrize("qubit_limit, top_k", [(7, 3), (20, 16)])
@pytest.mark.parametrize("prune_zeros", [True, False])
def test_frontier_keys_past_62_bits(qubit_limit, top_k, prune_zeros):
    stats = _assert_twins("wide70", 0, "production", qubit_limit, top_k, prune_zeros)
    assert stats.windows > 70 // qubit_limit


def test_top_k_cut_through_tied_probabilities():
    """|+>^8 gives all 256 outcomes 1/256: a beam of 5 keeps the five
    smallest keys of every level, as the per-bin driver does."""
    stats = _assert_twins("full-support", 0, "production", 3, 5, True)
    assert stats.covered_probability == pytest.approx(5 / 256)


def test_one_batched_contraction_per_level_shape_group():
    """On the 31q chain every level is one shape group, so the driver
    contracts once per level however many bins the frontier holds."""
    sim, cc, data, evaluator, keep = _evaluated("wide31", 0)
    calls = []
    contract = reconstruction._dense_einsum

    def counted(tensors, axis_cuts, k, batch=0):
        calls.append(batch)
        return contract(tensors, axis_cuts, k, batch)

    with mock.patch.object(reconstruction, "_dense_einsum", counted):
        _, stats = reconstruct_dynamic(
            cc, sim._dynamic_tensor_builder(cc, data, evaluator), keep,
            qubit_limit=8, top_k=64,
        )
    levels = _level_groups("wide31", "production", 8, 64)
    assert all(len(shapes) == 1 for shapes in levels)
    assert len(calls) == len(levels) < stats.windows
    assert sum(calls) == stats.windows


def test_run_uses_the_batched_driver():
    """``SuperSim.run`` in recursive mode returns what the per-bin driver
    returns over the same builder."""
    circuit = _chain(31, rotated=(13, 18))
    rc = ReconstructionConfig(mode="recursive", qubit_limit=6, top_k=8)
    sim = SuperSim(reconstruction=rc)
    result = sim.run(circuit)
    cc = result.cut_circuit
    evaluator = sim._evaluator()
    data = evaluator.evaluate_all(cc.fragments)
    want, want_stats = per_bin_reconstruct_dynamic(
        cc, sim._dynamic_tensor_builder(cc, data, evaluator), list(range(31)),
        qubit_limit=6, top_k=8,
    )
    assert result.raw_distribution.keys_array.tobytes() == want.keys_array.tobytes()
    assert result.raw_distribution.values_array.tobytes() == want.values_array.tobytes()
    assert result.stats == want_stats
