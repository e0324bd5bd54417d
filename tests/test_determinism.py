"""Determinism regression tests: seeded runs are reproducible bit-for-bit.

Per-variant seeds are derived from the evaluator's root seed and the
variant circuit's content fingerprint — never from submission order — so
the guarantee must hold whatever order the jobs run in (a service fleet
finishes them in any order) and with the cache on or off.
"""

import numpy as np

from repro.circuits import inject_t_gates, random_clifford_circuit
from repro.core import ExecutionConfig, SamplingConfig, SuperSim
from repro.core.evaluator import _execute_job
from repro.stabilizer import NoiseModel, PauliChannel


def sim(shots=None, seed=None, noise=None, **execution):
    return SuperSim(
        sampling=SamplingConfig(shots=shots, seed=seed, noise=noise),
        execution=ExecutionConfig(**execution),
    )


def reversed_order(engine: SuperSim) -> SuperSim:
    """The engine with its jobs run last to first, through the
    ``job_runner`` hook the service dispatches by."""
    order = []

    def runner(jobs, faults):
        order.extend(job.key for job in jobs)
        return {job.key: _execute_job(job) for job in reversed(jobs)}

    engine._job_runner = runner
    engine.job_order = order
    return engine


def workload(seed=0):
    rng = np.random.default_rng(seed)
    return inject_t_gates(random_clifford_circuit(5, 4, rng), 1, rng)


def assert_identical(a, b):
    assert a.n_bits == b.n_bits
    assert a.probs == b.probs  # exact equality, not closeness


class TestSampledDeterminism:
    def test_two_runs_identical(self):
        circuit = workload()
        first = sim(shots=400, seed=7).run(circuit)
        second = sim(shots=400, seed=7).run(circuit)
        assert_identical(first.distribution, second.distribution)

    def test_job_order_does_not_change_the_answer(self):
        circuit = workload(1)
        in_order = sim(shots=400, seed=7).run(circuit)
        engine = reversed_order(sim(shots=400, seed=7))
        backwards = engine.run(circuit)
        assert len(engine.job_order) > 1
        assert_identical(in_order.distribution, backwards.distribution)

    def test_a_python_bound_backend_is_job_order_invariant(self):
        # mps draws its shots in interpreter loops; its seeds are the
        # fingerprint-derived ones all the same
        from repro.circuits import Circuit, gates

        circuit = Circuit(5).append(gates.H, 0)
        for q in range(4):
            circuit.append(gates.CX, q, q + 1)
        circuit.append(gates.T, 2)
        circuit.measure_all()
        in_order = sim(shots=300, seed=11, backend="mps").run(circuit)
        engine = reversed_order(sim(shots=300, seed=11, backend="mps"))
        backwards = engine.run(circuit)
        assert in_order.backend_usage == {"mps": len(engine.job_order)}
        assert_identical(in_order.distribution, backwards.distribution)

    def test_cache_does_not_change_the_answer(self):
        circuit = workload(2)
        cached = sim(shots=400, seed=7).run(circuit)
        uncached = sim(shots=400, seed=7, cache=False).run(circuit)
        assert_identical(cached.distribution, uncached.distribution)

    def test_different_seeds_differ(self):
        circuit = workload(3)
        a = sim(shots=400, seed=7).run(circuit)
        b = sim(shots=400, seed=8).run(circuit)
        assert a.distribution.probs != b.distribution.probs


class TestExactDeterminism:
    def test_exact_mode_is_job_order_invariant(self):
        circuit = workload(4)
        in_order = sim().run(circuit)
        backwards = reversed_order(sim()).run(circuit)
        assert_identical(in_order.distribution, backwards.distribution)


class TestNoisyDeterminism:
    def test_noisy_runs_identical(self):
        circuit = random_clifford_circuit(4, 4, rng=0).measure_all()
        noise = NoiseModel(after_gate_1q=PauliChannel.depolarizing(0.01))
        first = sim(shots=300, seed=7, noise=noise).run(circuit)
        second = sim(shots=300, seed=7, noise=noise).run(circuit)
        assert_identical(first.distribution, second.distribution)

    def test_noisy_runs_are_job_order_invariant(self):
        # cut: Pauli-frame sampled Clifford variants beside sampled T ones
        circuit = workload(5)
        noise = NoiseModel(after_gate_1q=PauliChannel.depolarizing(0.01))
        in_order = sim(shots=300, seed=7, noise=noise).run(circuit)
        engine = reversed_order(sim(shots=300, seed=7, noise=noise))
        backwards = engine.run(circuit)
        assert len(engine.job_order) > 1
        assert_identical(in_order.distribution, backwards.distribution)
