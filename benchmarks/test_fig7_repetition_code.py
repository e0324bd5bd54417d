"""Fig. 7: runtime and fidelity for one phase-repetition-code cycle (1 T).

The paper's QEC proxy benchmark.  Accuracy uses Hellinger fidelity on the
*complete* distribution (the sparse-output metric), with the exact SuperSim
reconstruction as ground truth.  Expected shape:

* MPS outperforms everything — the circuit generates almost no
  entanglement (the exception the paper highlights);
* SV is exponential and capped;
* the extended stabilizer's Metropolis sampler collapses in fidelity as
  width grows (the annotated points of the paper's Fig. 7);
* SuperSim scales with modest runtimes and exact-up-to-shots fidelity.
"""

from functools import lru_cache

import pytest

from benchmarks.conftest import SHOTS, mean_seconds, record, repcode_workload
from repro.analysis import hellinger_fidelity
from repro.core import SamplingConfig, SuperSim
from repro.extended_stabilizer import ExtendedStabilizerSimulator
from repro.mps import MPSSimulator
from repro.statevector import StatevectorSimulator

DISTANCES = [3, 5, 7, 9, 11, 13, 16]  # n = 2d-1 = 5 ... 31
CAPS = {"statevector": 13, "mps": 31, "ext_stabilizer": 31, "supersim": 31}


@lru_cache(maxsize=None)
def ground_truth(distance: int):
    return SuperSim().sparse_probabilities(repcode_workload(distance))


def run(sim: str, distance: int):
    circuit = repcode_workload(distance)
    if sim == "supersim":
        return SuperSim(
            sampling=SamplingConfig(shots=SHOTS, seed=0)
        ).sparse_probabilities(circuit)
    if sim == "statevector":
        return StatevectorSimulator(max_qubits=24).sample(circuit, SHOTS, rng=0)
    if sim == "mps":
        return MPSSimulator().sample(circuit, SHOTS, rng=0)
    return ExtendedStabilizerSimulator().sample(circuit, SHOTS, rng=0)


def _cases():
    for sim in ("supersim", "statevector", "mps", "ext_stabilizer"):
        for d in DISTANCES:
            if 2 * d - 1 <= CAPS[sim]:
                yield sim, d


@pytest.mark.parametrize("sim,distance", list(_cases()))
def test_repetition_code(benchmark, sim, distance):
    n = 2 * distance - 1
    dist = benchmark.pedantic(lambda: run(sim, distance), rounds=1, iterations=1)
    fidelity = hellinger_fidelity(ground_truth(distance), dist)
    benchmark.extra_info["fidelity"] = fidelity
    record(
        "fig7",
        simulator=sim,
        n=n,
        distance=distance,
        seconds=mean_seconds(benchmark),
        fidelity=fidelity,
    )
    if sim in ("supersim", "statevector", "mps"):
        assert fidelity > 0.95, (sim, n, fidelity)
    # the extended stabilizer is *expected* to lose fidelity at scale —
    # that is the paper's observation, so no assertion there
