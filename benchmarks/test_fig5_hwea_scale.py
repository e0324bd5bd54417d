"""Fig. 5: SuperSim scaling to hundreds of qubits (HWEA, 5 rounds, 1 T).

SuperSim only — no other backend in this repository (or the paper) can
touch these widths.  Expected shape: runtime stays in seconds up to 300
qubits, non-monotonic in width because the random T-gate location changes
the fragment structure (the "noisy" curve the paper remarks on).
"""

import pytest

from benchmarks.conftest import hwea_workload, mean_seconds, record, run_supersim

SIZES = [50, 100, 150, 200, 250, 300]


@pytest.mark.parametrize("n", SIZES)
def test_hwea_scale(benchmark, n):
    circuit = hwea_workload(n)
    marginals = benchmark.pedantic(
        lambda: run_supersim(circuit), rounds=1, iterations=1
    )
    assert marginals.shape == (n, 2)
    assert float(marginals.sum()) == pytest.approx(n, abs=1e-6)
    record("fig5", simulator="supersim", n=n, seconds=mean_seconds(benchmark))
