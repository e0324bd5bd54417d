"""Tests for the repro.backends subsystem: registry, router, cache, engine."""

import numpy as np
import pytest

from repro.analysis import hellinger_fidelity
from repro.backends import (
    Backend,
    BackendRouter,
    Capabilities,
    CircuitFeatures,
    NoCapableBackendError,
    VariantCache,
    as_backend,
    available_backends,
    circuit_fingerprint,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.backends.cache import fragment_fingerprint
from repro.circuits import Circuit, gates, inject_t_gates, random_clifford_circuit
from repro.core import ExecutionConfig, SamplingConfig, SuperSim
from repro.statevector import StatevectorSimulator

SV = StatevectorSimulator()


def near_clifford(seed=0, n=4):
    rng = np.random.default_rng(seed)
    return inject_t_gates(random_clifford_circuit(n, 4, rng), 1, rng)


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        for name in (
            "stabilizer",
            "chform",
            "statevector",
            "mps",
            "extended_stabilizer",
        ):
            assert name in names

    def test_get_backend_by_name_and_kwargs(self):
        backend = get_backend("statevector", max_qubits=5)
        assert backend.capabilities.max_qubits == 5

    def test_get_backend_passthrough(self):
        instance = get_backend("mps")
        assert get_backend(instance) is instance

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_backend("no-such-backend")

    def test_register_and_replace_guard(self):
        class Dummy(Backend):
            name = "dummy-test"

            def probabilities(self, circuit):
                return SV.probabilities(circuit)

            def sample(self, circuit, shots, rng=None):
                return SV.sample(circuit, shots, rng)

        register_backend("dummy-test", Dummy)
        try:
            with pytest.raises(ValueError):
                register_backend("dummy-test", Dummy)
            register_backend("dummy-test", Dummy, replace=True)
            assert isinstance(get_backend("dummy-test"), Dummy)
        finally:
            unregister_backend("dummy-test")

    def test_legacy_adapter(self):
        backend = as_backend(StatevectorSimulator(max_qubits=8))
        circuit = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        circuit.measure_all()
        dist = backend.probabilities(circuit)
        assert np.isclose(dist[0b00], 0.5)


class TestFeatures:
    def test_clifford_features(self):
        c = Circuit(3).append(gates.H, 0).append(gates.CX, 0, 1)
        f = CircuitFeatures.from_circuit(c)
        assert f.is_clifford and f.t_count == 0
        assert f.two_qubit_count == 1 and f.entangling_depth == 1

    def test_t_count_and_depth(self):
        c = Circuit(3)
        c.append(gates.CX, 0, 1).append(gates.CX, 1, 2).append(gates.CX, 0, 1)
        c.append(gates.T, 0)
        f = CircuitFeatures.from_circuit(c)
        assert not f.is_clifford and f.t_count == 1
        assert f.entangling_depth == 3

    def test_nondiagonal_two_qubit_nonclifford(self):
        matrix = np.kron(gates.T.matrix, np.eye(2)) @ gates.SWAP.matrix
        weird = gates.Gate("WEIRD2Q", matrix)
        c = Circuit(2).append(weird, 0, 1)
        f = CircuitFeatures.from_circuit(c)
        assert f.has_nondiagonal_nonclifford
        assert not get_backend("extended_stabilizer").can_handle(f)

    def test_counted_once_per_op_list(self):
        c = Circuit(3).append(gates.H, 0).append(gates.CX, 0, 1)
        first = CircuitFeatures.from_circuit(c)
        assert CircuitFeatures.from_circuit(c) is first
        c.append(gates.T, 2)
        again = CircuitFeatures.from_circuit(c)
        assert again.t_count == 1 and again.num_ops == 3
        assert again == CircuitFeatures._count(c)

    def test_a_plan_counts_each_fragment_once(self, monkeypatch):
        """Routing, job building, the cost estimate and a backend check
        all read a fragment's features: one count serves them all."""
        counted = []
        count = CircuitFeatures._count.__func__

        def counting(cls, circuit):
            counted.append(id(circuit))
            return count(cls, circuit)

        monkeypatch.setattr(CircuitFeatures, "_count", classmethod(counting))
        plan = SuperSim().plan(near_clifford(3, n=5))
        plan.estimate()
        plan.with_backend(0, plan.backend_names[0])
        plan.execute()
        fragments = [f.circuit for f in plan.cut_circuit.fragments]
        assert sorted(counted) == sorted(id(c) for c in fragments)


class TestRouter:
    def test_clifford_routes_to_stabilizer(self):
        c = random_clifford_circuit(6, 5, rng=0).measure_all()
        f = CircuitFeatures.from_circuit(c)
        assert BackendRouter().select(f).name == "stabilizer"

    def test_narrow_nonclifford_routes_to_statevector(self):
        c = Circuit(2).append(gates.H, 0).append(gates.T, 0)
        f = CircuitFeatures.from_circuit(c)
        assert BackendRouter().select(f).name == "statevector"

    def test_forced_backend_wins_when_capable(self):
        c = Circuit(2).append(gates.H, 0).append(gates.T, 0).measure_all()
        plan = SuperSim(execution=ExecutionConfig(backend="mps")).plan(c)
        assert set(plan.backend_names) == {"mps"}

    def test_forced_clifford_only_falls_back(self):
        c = Circuit(2).append(gates.H, 0).append(gates.T, 0).measure_all()
        plan = SuperSim(execution=ExecutionConfig(backend="stabilizer")).plan(c)
        for fragment, name in zip(plan.cut_circuit.fragments, plan.backend_names):
            assert name == ("stabilizer" if fragment.is_clifford else "statevector")
        assert "statevector" in plan.backend_names

    def test_forced_backend_instance_wins(self):
        from repro.core.evaluator import FragmentEvaluator

        c = Circuit(2).append(gates.H, 0).append(gates.T, 0).measure_all()
        mps = get_backend("mps")
        execution = ExecutionConfig(backend=mps)
        assert FragmentEvaluator(execution=execution).forced is mps
        assert set(SuperSim(execution=execution).plan(c).backend_names) == {"mps"}

    def test_router_takes_no_forced_backend(self):
        # forcing is the ExecutionConfig's job, applied by the evaluator
        with pytest.raises(TypeError):
            BackendRouter(forced="mps")

    def test_no_capable_backend(self):
        c = Circuit(2).append(gates.H, 0).append(gates.T, 0)
        f = CircuitFeatures.from_circuit(c)
        router = BackendRouter(backends=["stabilizer"])
        with pytest.raises(NoCapableBackendError):
            router.select(f)


class TestFingerprint:
    def test_identical_circuits_share_fingerprint(self):
        a = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1).measure_all()
        b = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1).measure_all()
        assert circuit_fingerprint(a) == circuit_fingerprint(b)

    def test_parameters_and_wires_matter(self):
        base = Circuit(2).append(gates.ZPow(0.3), 0).measure_all()
        other_param = Circuit(2).append(gates.ZPow(0.31), 0).measure_all()
        other_wire = Circuit(2).append(gates.ZPow(0.3), 1).measure_all()
        fps = {
            circuit_fingerprint(base),
            circuit_fingerprint(other_param),
            circuit_fingerprint(other_wire),
        }
        assert len(fps) == 3

    def test_measurement_set_matters(self):
        a = Circuit(2).append(gates.H, 0).measure_all()
        b = Circuit(2).append(gates.H, 0).measure([0])
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_fragment_fingerprint_covers_width_ops_and_cut_wires(self):
        body = Circuit(3).append(gates.H, 0).append(gates.CX, 0, 2)
        base = fragment_fingerprint(body, [0], [2, 1])
        assert fragment_fingerprint(body.copy(), [0], [2, 1]) == base
        wider = Circuit(4).append(gates.H, 0).append(gates.CX, 0, 2)
        longer = body.copy().append(gates.S, 1)
        fps = {
            base,
            fragment_fingerprint(wider, [0], [2, 1]),
            fragment_fingerprint(longer, [0], [2, 1]),
            fragment_fingerprint(body, [1], [2, 1]),
            fragment_fingerprint(body, [0], [1, 2]),
            fragment_fingerprint(body, [], [2, 1]),
        }
        assert len(fps) == 6

    def test_fragment_and_circuit_fingerprints_never_meet(self):
        """The wire lists are tagged, so moving a wire from one list to the
        other is a different key; the domain tag keeps every fragment key
        apart from the body's own circuit key."""
        body = Circuit(2).append(gates.H, 0).measure_all()
        splits = (([0, 1], []), ([0], [1]), ([], [0, 1]), ([], []))
        fps = {fragment_fingerprint(body, *split) for split in splits}
        assert len(fps) == 4
        assert circuit_fingerprint(body) not in fps

    def test_fingerprint_bytes_are_pinned(self):
        """Seeds derive from fingerprints: the byte stream — parametrised
        one- and two-qubit gates, both signs of zero, explicit
        measurements — hashes to what it always has, whichever gate or
        wire tuple was packed before."""
        c = Circuit(3)
        c.append(gates.H, 0).append(gates.ZPow(0.3), 1).append(gates.ZPow(-0.0), 2)
        c.append(gates.ZPow(0.0), 0).append(gates.CX, 0, 2).append(gates.ZZPow(0.5), 1, 2)
        c.append(gates.SDG, 1).measure([0, 2])
        for _ in range(2):  # the second pass reads every memoised part
            assert circuit_fingerprint(c) == (
                "1c32a72299a85a320bfe6dbe30beb24ca4d25311d5e7fe94e60394e6897a12d7"
            )
            assert fragment_fingerprint(c, [0], [2, 1]) == (
                "9195a20c76a91b4f6de0730adf17076ed78190479cfb3dfd87b69b8fce10073e"
            )

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zero_parameters_fingerprint_apart(self, first):
        """``0.0 == -0.0``, so equal gates need not pack equally: whichever
        sign is fingerprinted first, the other keeps its own bytes."""
        second = -first
        a = circuit_fingerprint(Circuit(1).append(gates.ZPow(first), 0))
        b = circuit_fingerprint(Circuit(1).append(gates.ZPow(second), 0))
        assert a != b
        assert a == circuit_fingerprint(Circuit(1).append(gates.ZPow(first), 0))


class TestVariantCache:
    def test_lru_eviction(self):
        cache = VariantCache(maxsize=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh a
        cache.put(("c",), 3)  # evicts b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3

    def test_counters(self):
        cache = VariantCache()
        assert cache.get(("x",)) is None
        cache.put(("x",), 42)
        assert cache.get(("x",)) == 42
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["evictions"] == 0
        assert stats["bytes"] > 0

    def test_eviction_and_bytes_gauges(self):
        import numpy as np

        cache = VariantCache(maxsize=2)
        payload = np.zeros(1024, dtype=np.uint8)
        cache.put(("a",), payload)
        assert cache.stats()["bytes"] >= payload.nbytes
        cache.put(("b",), payload)
        cache.put(("c",), payload)  # evicts a
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        # the gauge tracks live entries, not lifetime puts
        assert stats["bytes"] < 3 * payload.nbytes + 4096
        cache.clear()
        assert cache.stats()["bytes"] == 0

    def test_put_over_a_key_replaces_its_bytes(self):
        import numpy as np

        cache = VariantCache()
        cache.put(("a",), np.zeros(4096, dtype=np.uint8))
        cache.put(("a",), np.zeros(16, dtype=np.uint8))
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["evictions"] == 0
        # the first value's bytes left the gauge with it
        assert 16 <= stats["bytes"] < 4096
        assert len(cache.get(("a",))) == 16

    def test_clear_forgets_entries_and_counters(self):
        cache = VariantCache(maxsize=1)
        cache.put(("a",), 1)
        cache.put(("b",), 2)  # evicts a
        cache.get(("a",))
        cache.get(("b",))
        cache.clear()
        assert len(cache) == 0 and ("b",) not in cache
        assert cache.stats() == {
            "hits": 0, "misses": 0, "entries": 0, "evictions": 0, "bytes": 0
        }
        with pytest.raises(ValueError):
            VariantCache(maxsize=0)

    def test_resolve_cache_is_the_one_rule(self):
        from repro.backends.cache import resolve_cache

        fresh = resolve_cache(True)
        assert isinstance(fresh, VariantCache) and len(fresh) == 0
        assert resolve_cache(True) is not fresh  # private per call
        assert resolve_cache(False) is None and resolve_cache(None) is None
        shared = VariantCache(maxsize=3)
        assert resolve_cache(shared) is shared


class TestSuperSimIntegration:
    def test_backend_by_name_end_to_end(self):
        c = near_clifford(3)
        expected = SV.probabilities(c)
        result = SuperSim(execution=ExecutionConfig(backend="mps")).run(c)
        assert hellinger_fidelity(expected, result.distribution) > 1 - 1e-9
        assert set(result.backend_usage) == {"mps"}

    def test_custom_registered_backend_end_to_end(self):
        class TracingBackend(Backend):
            name = "tracing-sv"
            capabilities = Capabilities(max_qubits=12)
            calls = 0

            def __init__(self):
                self.simulator = StatevectorSimulator(max_qubits=12)

            def probabilities(self, circuit):
                type(self).calls += 1
                return self.simulator.probabilities(circuit)

            def sample(self, circuit, shots, rng=None):
                type(self).calls += 1
                return self.simulator.sample(circuit, shots, rng)

        register_backend("tracing-sv", TracingBackend)
        try:
            c = near_clifford(5)
            expected = SV.probabilities(c)
            result = SuperSim(execution=ExecutionConfig(backend="tracing-sv")).run(c)
            assert hellinger_fidelity(expected, result.distribution) > 1 - 1e-9
            assert set(result.backend_usage) == {"tracing-sv"}
            assert TracingBackend.calls > 0
        finally:
            unregister_backend("tracing-sv")

    def test_repeated_run_hits_cache(self):
        c = near_clifford(7)
        sim = SuperSim()
        first = sim.run(c)
        assert first.cache_hits == 0
        assert first.cache_misses > 0
        second = sim.run(c)
        assert second.cache_misses == 0
        assert second.cache_hits == first.cache_misses
        assert hellinger_fidelity(first.distribution, second.distribution) > 1 - 1e-12

    def test_cache_shared_across_parameter_sweep(self):
        # only the variants of the rotated fragment should be re-simulated
        sim = SuperSim()

        def circuit(theta):
            c = Circuit(3).append(gates.H, 0).append(gates.CX, 0, 1)
            c.append(gates.ZPow(theta), 1)
            c.append(gates.CX, 1, 2)
            return c

        first = sim.run(circuit(0.3))
        second = sim.run(circuit(0.4))
        assert second.cache_hits > 0  # unchanged Clifford fragments reused
        assert second.cache_misses < first.cache_misses

    def test_cache_disabled(self):
        c = near_clifford(9)
        sim = SuperSim(execution=ExecutionConfig(cache=False))
        sim.run(c)
        result = sim.run(c)
        assert result.cache_hits == 0

    def test_fully_cached_run_reports_no_simulated_variants(self):
        c = near_clifford(13)
        sim = SuperSim()
        first = sim.run(c)
        assert sum(first.backend_usage.values()) == first.cache_misses
        second = sim.run(c)
        assert second.backend_usage == {}  # nothing was simulated

    def test_shared_cache_distinguishes_backend_configuration(self):
        # a truncated (max_bond=1, approximate) MPS run must not poison a
        # shared cache consumed by an exact MPS run of the same circuit
        from repro.backends import VariantCache

        c = near_clifford(15)
        expected = SV.probabilities(c)
        shared = VariantCache()
        truncated = SuperSim(execution=ExecutionConfig(
            backend=get_backend("mps", max_bond=1), cache=shared
        )).run(c)
        exact = SuperSim(
            execution=ExecutionConfig(backend="mps", cache=shared)
        ).run(c)
        assert exact.cache_hits == 0  # different configuration, no aliasing
        assert hellinger_fidelity(expected, exact.distribution) > 1 - 1e-9

    def test_shared_cache_distinguishes_noise_models(self):
        # regression: keying noise by id() aliased recycled objects; the
        # content fingerprint must keep a p-sweep's entries distinct
        from repro.backends import VariantCache
        from repro.circuits import random_clifford_circuit
        from repro.stabilizer import NoiseModel, PauliChannel

        circuit = random_clifford_circuit(4, 4, rng=0).measure_all()
        shared = VariantCache()

        def run(p):
            noise = NoiseModel(after_gate_1q=PauliChannel.depolarizing(p))
            sim = SuperSim(
                sampling=SamplingConfig(shots=500, seed=7, noise=noise),
                execution=ExecutionConfig(cache=shared),
            )
            return sim.run(circuit).distribution

        clean = run(0.0)
        noisy = [run(p) for p in (0.1, 0.2, 0.3)]
        assert all(d.probs != clean.probs for d in noisy)

    def test_equal_noise_models_share_cache_entries(self):
        from repro.backends import VariantCache
        from repro.circuits import random_clifford_circuit
        from repro.stabilizer import NoiseModel, PauliChannel

        circuit = random_clifford_circuit(4, 4, rng=0).measure_all()
        shared = VariantCache()

        def run(p):
            noise = NoiseModel(after_gate_1q=PauliChannel.depolarizing(p))
            sim = SuperSim(
                sampling=SamplingConfig(shots=300, seed=7, noise=noise),
                execution=ExecutionConfig(cache=shared),
            )
            return sim.run(circuit)

        run(0.05)
        repeat = run(0.05)  # a *new* but equal NoiseModel object
        assert repeat.cache_hits > 0

    def test_bare_simulator_pinned_to_nonclifford_fragments(self):
        from repro.mps import MPSSimulator

        c = near_clifford(11)
        expected = SV.probabilities(c)
        plan = SuperSim().plan(c)
        for fragment in plan.cut_circuit.fragments:
            if not fragment.is_clifford:
                plan = plan.with_backend(fragment.index, MPSSimulator())
        result = plan.execute()
        assert hellinger_fidelity(expected, result.distribution) > 1 - 1e-9
        assert "mps" in result.backend_usage
        assert "stabilizer" in result.backend_usage


class TestCostCalibration:
    def test_measure_cost_scales_returns_positive_floats(self):
        from repro.backends.calibration import measure_cost_scales

        scales = measure_cost_scales(["stabilizer", "statevector"], repeats=1)
        assert set(scales) == {"stabilizer", "statevector"}
        assert all(v > 0 for v in scales.values())

    def test_calibration_circuit_respects_capabilities(self):
        from repro.backends import get_backend
        from repro.backends.calibration import calibration_circuit

        for name in ("stabilizer", "chform", "statevector", "extended_stabilizer"):
            backend = get_backend(name)
            circuit = calibration_circuit(backend)
            from repro.backends.base import CircuitFeatures

            features = CircuitFeatures.from_circuit(circuit)
            assert backend.can_handle(features, exact=True)

    def test_router_applies_cost_scales(self):
        from repro.backends import BackendRouter, get_backend
        from repro.backends.base import CircuitFeatures

        circuit = random_clifford_circuit(6, 4, rng=0)
        features = CircuitFeatures.from_circuit(circuit)
        stab = get_backend("stabilizer")
        chform = get_backend("chform")
        router = BackendRouter([stab, chform])
        assert router.select(features).name == "stabilizer"
        # an absurd penalty on the tableau flips the routing decision
        penalised = BackendRouter(
            [stab, chform], cost_scales={"stabilizer": 1e18}
        )
        assert penalised.select(features).name == "chform"

    def test_router_rejects_nonpositive_scales(self):
        from repro.backends import BackendRouter

        with pytest.raises(ValueError):
            BackendRouter(cost_scales={"stabilizer": 0.0})

    def test_calibrated_routing_end_to_end(self):
        from repro.backends import BackendRouter
        from repro.backends.calibration import measure_cost_scales

        scales = measure_cost_scales(repeats=1)
        router = BackendRouter(cost_scales=scales)
        c = near_clifford(9)
        expected = SV.probabilities(c)
        result = SuperSim(execution=ExecutionConfig(router=router)).run(c)
        assert hellinger_fidelity(expected, result.distribution) > 1 - 1e-9
