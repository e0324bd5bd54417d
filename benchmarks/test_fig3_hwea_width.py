"""Fig. 3: runtime vs width for the VQE HWEA (5 rounds, 1 injected T gate).

Simulators: SuperSim (Clifford cut), statevector, MPS, extended stabilizer.
Expected shape: SV exponential (capped, like the paper's 30-min timeout at
28 qubits); MPS and extended stabilizer grow steadily; SuperSim is nearly
flat in width and overtakes the others in the 20-30 qubit range.

Accuracy: mean single-qubit-marginal Hellinger fidelity vs an exact
reference, the paper's dense-distribution metric (all points ~0.99+).
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

SIZES = [4, 8, 12, 16, 20, 26, 32, 38]
CAPS = {"statevector": 20, "mps": 38, "ext_stabilizer": 38, "supersim": 38}


def _cases():
    for sim in ("supersim", "statevector", "mps", "ext_stabilizer"):
        for n in SIZES:
            if n <= CAPS[sim]:
                yield sim, n


@pytest.mark.parametrize("sim,n", list(_cases()))
def test_hwea_width(benchmark, sim, n):
    circuit = hwea_workload(n)
    task = TASKS[sim]
    marginals = benchmark.pedantic(lambda: task(circuit), rounds=1, iterations=1)
    reference = reference_marginals(circuit)
    fidelity = marginal_fidelity(marginals, reference) if reference is not None else None
    benchmark.extra_info["fidelity"] = fidelity
    record(
        "fig3",
        simulator=sim,
        n=n,
        seconds=mean_seconds(benchmark),
        fidelity=fidelity,
    )
    if fidelity is not None and sim != "ext_stabilizer":
        assert fidelity > 0.98, (sim, n, fidelity)
