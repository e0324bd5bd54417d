"""Host-keyed calibration persistence and per-mode cost models."""

import json

import pytest

from repro.backends import get_backend
from repro.backends.base import Backend, Capabilities, CircuitFeatures
from repro.backends.calibration import (
    calibrated_router,
    default_cache_path,
    host_fingerprint,
    measure_cost_scales,
)
from repro.backends.router import BackendRouter
from repro.circuits import Circuit, gates


class TestHostKeyedCache:
    BACKENDS = ["stabilizer", "statevector"]

    def test_fingerprint_is_stable_and_informative(self):
        assert host_fingerprint() == host_fingerprint()
        assert "cpus=" in host_fingerprint()

    def test_measurement_persists_under_host_fingerprint(self, tmp_path):
        path = tmp_path / "scales.json"
        scales = measure_cost_scales(self.BACKENDS, repeats=1, cache_path=path)
        payload = json.loads(path.read_text())
        assert payload["host"] == host_fingerprint()
        assert set(payload["scales"]) == set(self.BACKENDS)
        assert all(v > 0 for v in scales.values())

    def test_same_host_reuses_cached_scales(self, tmp_path):
        path = tmp_path / "scales.json"
        measure_cost_scales(self.BACKENDS, repeats=1, cache_path=path)
        # plant sentinel values: a second call must read, not re-measure
        payload = json.loads(path.read_text())
        payload["scales"] = {name: 123.0 for name in self.BACKENDS}
        path.write_text(json.dumps(payload))
        reused = measure_cost_scales(self.BACKENDS, repeats=1, cache_path=path)
        assert reused == {name: 123.0 for name in self.BACKENDS}

    def test_host_change_triggers_remeasurement(self, tmp_path):
        path = tmp_path / "scales.json"
        payload = {
            "host": "some-other-machine|cpus=9999",
            "scales": {name: 123.0 for name in self.BACKENDS},
        }
        path.write_text(json.dumps(payload))
        remeasured = measure_cost_scales(
            self.BACKENDS, repeats=1, cache_path=path
        )
        assert remeasured != {name: 123.0 for name in self.BACKENDS}
        # and the file now carries this host's fingerprint
        assert json.loads(path.read_text())["host"] == host_fingerprint()

    def test_cache_missing_a_backend_remeasures(self, tmp_path):
        path = tmp_path / "scales.json"
        measure_cost_scales(["stabilizer"], repeats=1, cache_path=path)
        wider = measure_cost_scales(self.BACKENDS, repeats=1, cache_path=path)
        assert set(wider) == set(self.BACKENDS)
        # the merged file keeps every measured backend
        assert set(json.loads(path.read_text())["scales"]) >= set(self.BACKENDS)

    def test_corrupt_cache_is_ignored(self, tmp_path):
        path = tmp_path / "scales.json"
        path.write_text("{not json")
        scales = measure_cost_scales(self.BACKENDS, repeats=1, cache_path=path)
        assert all(v > 0 for v in scales.values())

    def test_no_cache_path_touches_no_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        measure_cost_scales(self.BACKENDS, repeats=1)
        assert not (tmp_path / "repro-supersim").exists()

    def test_default_path_respects_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "custom" / "scales.json"
        monkeypatch.setenv("REPRO_CALIBRATION_CACHE", str(target))
        assert default_cache_path() == target

    def test_calibrated_router_end_to_end(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_CALIBRATION_CACHE", str(tmp_path / "scales.json")
        )
        router = calibrated_router()
        assert isinstance(router, BackendRouter)
        assert router.cost_scales
        assert (tmp_path / "scales.json").exists()


class TestPerModeCostModels:
    def narrow_nonclifford(self):
        c = Circuit(8)
        for q in range(8):
            c.append(gates.H, q)
        c.append(gates.T, 0)
        c.measure_all()
        return CircuitFeatures.from_circuit(c)

    def test_statevector_sampled_cheaper_than_exact(self):
        features = self.narrow_nonclifford()
        backend = get_backend("statevector")
        assert backend.estimate_cost(features, "sampled") < backend.estimate_cost(
            features, "exact"
        )

    def test_extended_stabilizer_mode_crossover(self):
        # the sampler pays a fixed mixing chain, exact readout pays 2^n
        # enumeration: narrow fragments favour exact, wide ones sampled
        backend = get_backend("extended_stabilizer")
        narrow = self.narrow_nonclifford()
        assert backend.estimate_cost(narrow, "exact") < backend.estimate_cost(
            narrow, "sampled"
        )
        c = Circuit(24)
        for q in range(24):
            c.append(gates.H, q)
        c.append(gates.T, 0)
        c.measure_all()
        wide = CircuitFeatures.from_circuit(c)
        assert backend.estimate_cost(wide, "sampled") < backend.estimate_cost(
            wide, "exact"
        )

    def test_default_mode_is_exact(self):
        features = self.narrow_nonclifford()
        backend = get_backend("statevector")
        assert backend.estimate_cost(features) == backend.estimate_cost(
            features, "exact"
        )

    def test_one_argument_cost_model_is_a_type_error(self):
        # the router passes the mode by keyword; a pre-mode signature is
        # not adapted, it fails the way Python fails it
        class OldStyle(Backend):
            name = "old-style"
            capabilities = Capabilities(max_qubits=30)

            def probabilities(self, circuit):
                raise NotImplementedError

            def sample(self, circuit, shots, rng=None):
                raise NotImplementedError

            def estimate_cost(self, features):
                return 7.0

        router = BackendRouter([OldStyle()])
        with pytest.raises(TypeError, match="mode"):
            router.scored_cost(OldStyle(), self.narrow_nonclifford(), "sampled")

    def test_router_propagates_internal_typeerrors(self):
        # a TypeError raised *inside* a cost model reaches the caller as is
        class Broken(Backend):
            name = "broken-cost"
            capabilities = Capabilities(max_qubits=30)

            def probabilities(self, circuit):
                raise NotImplementedError

            def sample(self, circuit, shots, rng=None):
                raise NotImplementedError

            def estimate_cost(self, features, mode="exact"):
                return None + 1  # the genuine bug

        router = BackendRouter([Broken()])
        with pytest.raises(TypeError, match="NoneType"):
            router.scored_cost(Broken(), self.narrow_nonclifford())

    def test_sampled_routing_prefers_cheap_sampler(self):
        # a wide diagonal-non-Clifford fragment: exact readout enumeration
        # makes the extended stabilizer look enormous, but its sampler does
        # not enumerate, so sampled routing may keep it competitive; at
        # minimum the scored costs must differ between the modes
        c = Circuit(20)
        for q in range(20):
            c.append(gates.H, q)
        c.append(gates.T, 0)
        c.measure_all()
        features = CircuitFeatures.from_circuit(c)
        backend = get_backend("extended_stabilizer")
        router = BackendRouter([backend])
        assert router.scored_cost(backend, features, "sampled") < router.scored_cost(
            backend, features, "exact"
        )
