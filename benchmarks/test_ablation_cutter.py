"""Ablation: cut-placement strategy (paper Fig. 2 discussion).

``ISOLATE`` carves the non-Clifford gate out with the minimum-size
non-Clifford fragment; ``GREEDY_MERGE`` drops cuts whose removal keeps the
merged non-Clifford fragment small, trading a bigger exact simulation for a
factor-of-4 reduction in recombination terms per dropped cut.

The workload is built so the trade-off is real: a short single-qubit
Clifford prelude feeds the T gate before the wide Clifford bulk, so merging
the prelude into the T fragment removes one cut at negligible cost.
"""

from functools import lru_cache

import pytest

from benchmarks.conftest import mean_seconds, record
from repro.circuits import Circuit, gates, random_clifford_circuit
from repro.core import CutConfig, CutStrategy, SuperSim, find_cuts

WIDTH = 12


@lru_cache(maxsize=None)
def staged_workload():
    circuit = Circuit(WIDTH)
    circuit.append(gates.H, 0).append(gates.S, 0)   # small Clifford prelude
    circuit.append(gates.T, 0)                       # the gate to isolate
    bulk = random_clifford_circuit(WIDTH, depth=8, rng=3)
    circuit.extend(bulk.ops)
    return circuit.measure_all()


@pytest.mark.parametrize("strategy", [CutStrategy.ISOLATE, CutStrategy.GREEDY_MERGE])
def test_cut_strategy(benchmark, strategy):
    circuit = staged_workload()
    sim = SuperSim(cut=CutConfig(strategy=strategy))

    def task():
        return sim.single_qubit_marginals(circuit)

    benchmark.pedantic(task, rounds=1, iterations=1)
    cuts = find_cuts(circuit, strategy)
    benchmark.extra_info["num_cuts"] = len(cuts)
    record(
        "ablation_cutter",
        strategy=strategy.value,
        n=WIDTH,
        num_cuts=len(cuts),
        seconds=mean_seconds(benchmark),
    )
