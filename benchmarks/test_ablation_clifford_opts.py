"""Ablation (paper §IX): Clifford-specific cutting optimizations.

Two SuperSim configurations on the HWEA workload, sampled fragments:

* ``baseline``  — generic cutting, no pruning;
* ``prune``     — zero-observable pruning of recombination terms.

The paper's third optimization — few-shot Clifford variants with their
expectations snapped to {-1, 0, +1} — is taken to its limit here: a
noiseless Clifford fragment is evaluated exactly in every mode, so it takes
no shots at all.  ``test_clifford_fragments_take_no_shots`` checks that in
sampled mode.
"""

import numpy as np
import pytest

from benchmarks.conftest import (
    SHOTS,
    hwea_workload,
    marginal_fidelity,
    mean_seconds,
    record,
    reference_marginals,
)
from repro.core import ExecutionConfig, SamplingConfig, SuperSim

WIDTH = 20

CONFIGS = {
    "baseline": dict(
        sampling=SamplingConfig(shots=SHOTS, seed=0),
        execution=ExecutionConfig(prune_zeros=False),
    ),
    "prune": dict(
        sampling=SamplingConfig(shots=SHOTS, seed=0),
        execution=ExecutionConfig(prune_zeros=True),
    ),
}


@pytest.mark.parametrize("config", list(CONFIGS))
def test_clifford_optimizations(benchmark, config):
    circuit = hwea_workload(WIDTH)
    sim = SuperSim(**CONFIGS[config])

    def task():
        return sim.single_qubit_marginals(circuit)

    marginals = benchmark.pedantic(task, rounds=1, iterations=1)
    reference = reference_marginals(circuit)
    fidelity = marginal_fidelity(marginals, reference)
    benchmark.extra_info["fidelity"] = fidelity
    record(
        "ablation_clifford_opts",
        config=config,
        n=WIDTH,
        seconds=mean_seconds(benchmark),
        fidelity=fidelity,
    )
    assert fidelity > 0.97, (config, fidelity)


def test_clifford_fragments_take_no_shots():
    circuit = hwea_workload(WIDTH)
    sim = SuperSim(sampling=SamplingConfig(shots=SHOTS, seed=0))
    fragments = sim.cut(circuit).fragments
    assert {f.is_clifford for f in fragments} == {True, False}
    _assignments, jobs = sim._evaluator()._build_jobs(fragments, root_seed=0)
    shots = {True: 0, False: 0}
    for job in jobs.values():
        clifford = job.fragment is not None
        shots[clifford] += job.shots or 0
        assert (job.key[-1] == "exact") == clifford
    assert shots[True] == 0
    assert shots[False] > 0
    # every single-qubit marginal of this circuit is blind to the sampled
    # T fragment, so with exact Clifford fragments none carries shot noise
    marginals = sim.single_qubit_marginals(circuit)
    reference = reference_marginals(circuit)
    np.testing.assert_allclose(marginals, reference, rtol=0, atol=1e-12)
