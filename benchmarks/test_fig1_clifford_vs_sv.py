"""Fig. 1: Clifford (Stim-style) vs statevector simulation of random
Clifford circuits, depth = width, 10000 shots.

Expected shape: the statevector sampler's runtime grows exponentially with
qubit number while the tableau sampler stays nearly flat, with a crossover
below ~10 qubits.
"""

import pytest

from benchmarks.conftest import (
    clifford_workload,
    mean_seconds,
    record,
    run_stabilizer,
    run_statevector,
)

SIZES = [4, 8, 12, 16, 20]
SHOTS = 10_000


@pytest.mark.parametrize("n", SIZES)
def test_stabilizer(benchmark, n):
    circuit = clifford_workload(n)
    benchmark.pedantic(lambda: run_stabilizer(circuit, SHOTS), rounds=3, iterations=1)
    record("fig1", simulator="stabilizer", n=n, seconds=mean_seconds(benchmark))


@pytest.mark.parametrize("n", SIZES)
def test_statevector(benchmark, n):
    circuit = clifford_workload(n)
    benchmark.pedantic(lambda: run_statevector(circuit, SHOTS), rounds=3, iterations=1)
    record("fig1", simulator="statevector", n=n, seconds=mean_seconds(benchmark))
