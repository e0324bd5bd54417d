"""Shared benchmark machinery.

Every figure of the paper's evaluation gets one module; each (simulator,
size) pair is a pytest-benchmark case, so the benchmark table *is* the
figure's runtime series.  Fidelity and other per-point observations are
attached as ``extra_info`` and appended as JSON lines under
``benchmarks/_results/`` (pretty-print them with ``python benchmarks/report.py``).

All simulators are used as *samplers* building output distributions from
SHOTS = 5000 shots, like the paper's §VI methodology (Fig. 1 uses 10000).
Per-simulator width caps play the role of the paper's 30-minute timeout.
"""

from __future__ import annotations

import json
import pathlib
from functools import lru_cache

import numpy as np
import pytest

from repro.analysis.distributions import Distribution
from repro.apps.hwea import HWEA
from repro.apps.qaoa import near_clifford_qaoa
from repro.apps.qec import near_clifford_phase_code
from repro.backends import get_backend
from repro.circuits.random import random_clifford_circuit
from repro.core import SamplingConfig, SuperSim
from repro.statevector import StatevectorSimulator

SHOTS = 5000
RESULTS_DIR = pathlib.Path(__file__).parent / "_results"


_OPENED_THIS_SESSION: set[str] = set()


def record(figure: str, **row) -> None:
    """Append a data point; the first write of a session truncates the file,
    so partial benchmark runs refresh only their own figures."""
    RESULTS_DIR.mkdir(exist_ok=True)
    mode = "a" if figure in _OPENED_THIS_SESSION else "w"
    _OPENED_THIS_SESSION.add(figure)
    with open(RESULTS_DIR / f"{figure}.jsonl", mode) as fh:
        fh.write(json.dumps(row) + "\n")


def mean_seconds(benchmark) -> float | None:
    """The mean time of a finished ``benchmark.pedantic`` call, or ``None``
    (``seconds: null`` in the series) under ``--benchmark-disable``, which
    runs the case once and times nothing."""
    stats = benchmark.stats
    return None if stats is None else stats["mean"]


# -- deterministic workloads (cached so every simulator sees the same circuit)


@lru_cache(maxsize=None)
def hwea_workload(n: int, rounds: int = 5, num_t: int = 1, seed: int = 0):
    return HWEA(n, rounds).near_clifford_instance(num_t=num_t, rng=seed).measure_all()


@lru_cache(maxsize=None)
def qaoa_workload(n: int, seed: int = 0):
    return near_clifford_qaoa(n, rounds=1, num_t=1, rng=seed).measure_all()


@lru_cache(maxsize=None)
def repcode_workload(distance: int, seed: int = 0):
    return near_clifford_phase_code(distance, num_t=1, rng=seed)


@lru_cache(maxsize=None)
def clifford_workload(n: int, seed: int = 0):
    return random_clifford_circuit(n, depth=n, rng=seed).measure_all()


# -- simulator tasks ---------------------------------------------------------
# each returns (n, 2) single-qubit marginal probabilities, the paper's
# dense-distribution accuracy object, so results are comparable across
# backends at any width.  Standalone backends are resolved from the
# repro.backends registry by name, so a newly registered backend becomes a
# benchmark series by adding one backend_task() line.


def backend_task(name: str, **kwargs):
    """A benchmark task sampling through a registry backend."""

    def run(circuit, shots=SHOTS) -> np.ndarray:
        dist = get_backend(name, **kwargs).sample(circuit, shots, rng=0)
        return dist.single_bit_marginals()

    run.__name__ = f"run_{name}"
    return run


run_statevector = backend_task("statevector", max_qubits=24)
run_stabilizer = backend_task("stabilizer")
run_mps = backend_task("mps")
run_extended_stabilizer = backend_task("extended_stabilizer")


def run_supersim(circuit, shots=SHOTS) -> np.ndarray:
    sim = SuperSim(sampling=SamplingConfig(shots=shots, seed=0))
    return sim.single_qubit_marginals(circuit)


TASKS = {
    "supersim": run_supersim,
    "statevector": run_statevector,
    "mps": run_mps,
    "ext_stabilizer": run_extended_stabilizer,
    "stabilizer": run_stabilizer,
}


def reference_marginals(circuit) -> np.ndarray | None:
    """Exact per-qubit marginals where feasible (SV small, SuperSim exact)."""
    if circuit.n_qubits <= 16:
        return (
            StatevectorSimulator()
            .probabilities(circuit)
            .single_bit_marginals()
        )
    try:
        return SuperSim().single_qubit_marginals(circuit)
    except Exception:
        return None


def marginal_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    fids = (np.sqrt(np.clip(a, 0, None) * np.clip(b, 0, None)).sum(axis=1)) ** 2
    return float(fids.mean())


