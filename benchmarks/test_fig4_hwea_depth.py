"""Fig. 4: runtime vs HWEA depth at fixed width (1 injected T gate).

SuperSim vs the MPS simulator.  Expected shape: MPS runtime grows
exponentially with the number of entangling rounds (bond dimension doubles
per round until saturation) while SuperSim is insensitive to depth — its
time goes into fragment postprocessing, not simulation (paper Fig. 4).

The paper uses 20 qubits; we use 16 to keep the exponential MPS points
inside a laptop-scale budget — the shape is unchanged.
"""

import pytest

from benchmarks.conftest import (
    TASKS,
    hwea_workload,
    marginal_fidelity,
    mean_seconds,
    record,
    reference_marginals,
)

WIDTH = 16
ROUNDS = [1, 2, 4, 8, 12, 16]


@pytest.mark.parametrize("sim", ["supersim", "mps"])
@pytest.mark.parametrize("rounds", ROUNDS)
def test_hwea_depth(benchmark, sim, rounds):
    circuit = hwea_workload(WIDTH, rounds=rounds)
    task = TASKS[sim]
    marginals = benchmark.pedantic(lambda: task(circuit), rounds=1, iterations=1)
    reference = reference_marginals(circuit)
    fidelity = marginal_fidelity(marginals, reference) if reference is not None else None
    benchmark.extra_info["fidelity"] = fidelity
    record(
        "fig4",
        simulator=sim,
        rounds=rounds,
        n=WIDTH,
        seconds=mean_seconds(benchmark),
        fidelity=fidelity,
    )
