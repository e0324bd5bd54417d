"""Fig. 6: runtime vs width for SK-model MaxCut QAOA (1 round, 1 T gate).

All-to-all connectivity makes this the MPS-hostile benchmark: long-range
ZZ couplings force SWAP routing and volume-law entanglement.  Expected
shape: SV exponential (capped at 16); MPS blows up quickly (capped at 14,
standing in for the paper's 30-minute timeout); extended stabilizer grows
polynomially but from a high constant; SuperSim crosses everything in the
low-20s of qubits.
"""

import pytest

from benchmarks.conftest import (
    TASKS,
    marginal_fidelity,
    mean_seconds,
    qaoa_workload,
    record,
    reference_marginals,
)

SIZES = [4, 8, 12, 16, 20, 26]
CAPS = {"statevector": 20, "mps": 26, "ext_stabilizer": 26, "supersim": 26}


def _cases():
    for sim in ("supersim", "statevector", "mps", "ext_stabilizer"):
        for n in SIZES:
            if n <= CAPS[sim]:
                yield sim, n


@pytest.mark.parametrize("sim,n", list(_cases()))
def test_qaoa_width(benchmark, sim, n):
    circuit = qaoa_workload(n)
    task = TASKS[sim]
    marginals = benchmark.pedantic(lambda: task(circuit), rounds=1, iterations=1)
    reference = reference_marginals(circuit)
    fidelity = marginal_fidelity(marginals, reference) if reference is not None else None
    benchmark.extra_info["fidelity"] = fidelity
    record(
        "fig6",
        simulator=sim,
        n=n,
        seconds=mean_seconds(benchmark),
        fidelity=fidelity,
    )
    if fidelity is not None and sim != "ext_stabilizer":
        assert fidelity > 0.98, (sim, n, fidelity)
