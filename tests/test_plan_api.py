"""The staged pipeline API: plan → estimate → override → execute, and sweeps.

Covers the ExecutionPlan contract (immutability, override semantics,
zero-simulation dry runs), the consistency of ``run()`` with
``plan().execute()``, and the batch layer (``sweep`` / ``run_many``):
shared-cache amortisation and bit-identical reproduction of independent
runs.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import hellinger_fidelity
from repro.backends import get_backend
from repro.backends.base import CircuitFeatures
from repro.circuits import Circuit, gates, inject_t_gates, random_clifford_circuit
from repro.core import (
    CostEstimate,
    ExecutionConfig,
    ExecutionPlan,
    SamplingConfig,
    SuperSim,
    SweepResult,
)
from repro.statevector import StatevectorSimulator

SV = StatevectorSimulator()


def near_clifford(seed=0, n=4):
    rng = np.random.default_rng(seed)
    return inject_t_gates(random_clifford_circuit(n, 4, rng), 1, rng)


def ghz_with_t(n=8):
    c = Circuit(n).append(gates.H, 0)
    for q in range(n - 1):
        c.append(gates.CX, q, q + 1)
    return inject_t_gates(c, 1, rng=7)


def rotated_chain(theta, n=5):
    c = Circuit(n).append(gates.H, 0)
    for q in range(n - 1):
        c.append(gates.CX, q, q + 1)
    c.append(gates.ZPow(theta), n // 2)
    c.append(gates.CX, 0, 1)
    return c


class TestPlan:
    def test_plan_captures_decisions(self):
        plan = SuperSim().plan(ghz_with_t())
        assert isinstance(plan, ExecutionPlan)
        assert plan.num_fragments == len(plan.cut_circuit.fragments)
        assert len(plan.backend_names) == plan.num_fragments
        assert len(plan.fragment_modes) == plan.num_fragments
        assert all(mode == "exact" for mode in plan.fragment_modes)
        # the Clifford bulk routes to the tableau, the T fragment cannot
        assert "stabilizer" in plan.backend_names
        for index in range(plan.num_fragments):
            assert plan.backend_for(index) == plan.backend_names[index]

    def test_plan_modes_follow_sampling_config(self):
        plan = SuperSim(sampling=SamplingConfig(shots=100, seed=0)).plan(
            ghz_with_t()
        )
        # shots reach the non-Clifford fragments; Clifford ones stay exact
        fragments = plan.cut_circuit.fragments
        assert {f.is_clifford for f in fragments} == {True, False}
        for fragment, mode in zip(fragments, plan.fragment_modes):
            assert mode == ("exact" if fragment.is_clifford else "sampled")

    def test_sampled_estimate_prices_clifford_fragments_exact(self):
        sim = SuperSim(sampling=SamplingConfig(shots=100, seed=0))
        plan = sim.plan(ghz_with_t())
        estimate = plan.estimate()
        router = sim._router()
        priced = zip(plan.cut_circuit.fragments, plan._backends, estimate.fragments)
        for fragment, backend, fragment_plan in priced:
            assert fragment_plan.mode == (
                "exact" if fragment.is_clifford else "sampled"
            )
            features = CircuitFeatures.from_circuit(fragment.circuit)
            per_variant = router.scored_cost(backend, features, fragment_plan.mode)
            assert fragment_plan.cost == per_variant * fragment.num_variants

    def test_execute_matches_run(self):
        c = near_clifford(3)
        from_plan = SuperSim().plan(c).execute()
        from_run = SuperSim().run(c)
        assert from_plan.distribution.probs == from_run.distribution.probs
        expected = SV.probabilities(c)
        assert hellinger_fidelity(expected, from_plan.distribution) > 1 - 1e-9

    def test_plan_keep_qubits(self):
        c = near_clifford(5)
        plan = SuperSim().plan(c, keep_qubits=[0, 1])
        assert plan.keep_qubits == (0, 1)
        result = plan.execute()
        assert result.distribution.n_bits == 2

    def test_run_is_plan_execute(self):
        # timing of the cut stage must survive the staged path
        result = SuperSim().run(near_clifford(9))
        assert result.timings["cut"] > 0


class TestEstimate:
    def test_estimate_runs_zero_simulations(self, monkeypatch):
        import repro.core.evaluator as evaluator_module

        def boom(job):
            raise AssertionError("estimate() must not simulate")

        plan = SuperSim().plan(ghz_with_t())
        monkeypatch.setattr(evaluator_module, "_execute_job", boom)
        estimate = plan.estimate()
        assert isinstance(estimate, CostEstimate)
        assert estimate.total_cost > 0
        assert estimate.num_variants == plan.num_variants
        assert estimate.reconstruction_terms == 4**plan.num_cuts

    def test_estimate_counts_fragments_and_backends(self):
        plan = SuperSim().plan(ghz_with_t())
        estimate = plan.estimate()
        assert len(estimate.fragments) == plan.num_fragments
        assert set(estimate.backends) == set(plan.backend_names)
        assert estimate.reconstruction_cost > 0
        assert sum(f.cost for f in estimate.fragments) == pytest.approx(
            estimate.total_cost - estimate.reconstruction_cost
        )

    def test_estimate_predicts_cache_hits(self):
        sim = SuperSim()
        c = ghz_with_t()
        before = sim.plan(c).estimate()
        assert before.cached_variants == 0
        sim.run(c)
        after = sim.plan(c).estimate()
        assert after.cached_variants == after.unique_variants > 0

    def test_estimate_cost_ranks_backends_consistently_with_bench(self):
        # BENCH_core.json measures the packed tableau sweeping hundreds of
        # qubits in milliseconds — far below any 2^n-shaped backend on the
        # same Clifford workload.  The models must reproduce that ranking
        # so `estimate()` orders backends the way wall clocks do.
        c = random_clifford_circuit(20, 40, rng=0).measure_all()
        features = CircuitFeatures.from_circuit(c)
        stab = get_backend("stabilizer").estimate_cost(features)
        sv = get_backend("statevector", max_qubits=26).estimate_cost(features)
        chform = get_backend("chform").estimate_cost(features)
        assert stab < sv
        assert stab < chform
        bench_path = Path(__file__).resolve().parents[1] / "BENCH_core.json"
        if bench_path.exists():
            bench = json.loads(bench_path.read_text())
            # measured ground truth: the packed tableau clears a 200-qubit
            # workload in well under a second — the 2^20-amplitude model
            # costs above would be minutes — so the ranking is real
            assert bench["tableau_200q"]["packed_seconds"] < 1.0

    def test_forcing_a_worse_backend_raises_predicted_cost(self):
        sim = SuperSim()
        plan = sim.plan(ghz_with_t(n=10))
        clifford_index = next(
            f.index
            for f in plan.cut_circuit.fragments
            if f.is_clifford and f.n_qubits > 2
        )
        worse = plan.with_backend(clifford_index, "statevector")
        assert worse.estimate().total_cost > plan.estimate().total_cost


class TestOverrides:
    def test_with_backend_returns_new_plan(self):
        plan = SuperSim().plan(near_clifford(3))
        target = next(
            f.index for f in plan.cut_circuit.fragments if not f.is_clifford
        )
        overridden = plan.with_backend(target, "mps")
        assert overridden is not plan
        assert overridden.backend_names[target] == "mps"
        assert plan.backend_names[target] != "mps"  # original untouched

    def test_with_backend_executes_through_override(self):
        c = near_clifford(3)
        plan = SuperSim().plan(c)
        target = next(
            f.index for f in plan.cut_circuit.fragments if not f.is_clifford
        )
        result = plan.with_backend(target, "mps").execute()
        assert "mps" in result.backend_usage
        expected = SV.probabilities(c)
        assert hellinger_fidelity(expected, result.distribution) > 1 - 1e-9

    def test_with_backend_rejects_incapable_backend(self):
        plan = SuperSim().plan(near_clifford(3))
        target = next(
            f.index for f in plan.cut_circuit.fragments if not f.is_clifford
        )
        with pytest.raises(ValueError, match="cannot evaluate"):
            plan.with_backend(target, "stabilizer")  # Clifford-only

    def test_with_backend_rejects_bad_index(self):
        plan = SuperSim().plan(near_clifford(3))
        with pytest.raises(IndexError):
            plan.with_backend(99, "mps")

    def test_with_cuts_replans(self):
        c = Circuit(2).append(gates.H, 0).append(gates.CX, 0, 1)
        c.append(gates.H, 1)
        from repro.core import Cut

        sim = SuperSim()
        plan = sim.plan(c)
        assert plan.num_cuts == 0
        recut = plan.with_cuts([Cut(1, 1)])
        assert recut.num_cuts == 1
        expected = SV.probabilities(c)
        assert hellinger_fidelity(expected, recut.execute().distribution) > 1 - 1e-9

    def test_plan_is_frozen(self):
        plan = SuperSim().plan(near_clifford(3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.backend_names = ("statevector",)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.keep_qubits = (0,)

    def test_plan_reexecutes_identically(self):
        plan = SuperSim(sampling=SamplingConfig(shots=300, seed=5)).plan(
            near_clifford(7)
        )
        first = plan.execute()
        second = plan.execute()
        assert first.distribution.probs == second.distribution.probs


class TestSweep:
    # avoids multiples of 0.5, where ZPow degenerates to a Clifford gate
    # and an independently-planned run would place no cuts at all
    GRID = [round(0.04 + 0.09 * i, 3) for i in range(10)]

    def test_sweep_streams_lazily(self):
        sweep = SuperSim().sweep(rotated_chain, self.GRID)
        first = next(sweep)
        assert isinstance(first, SweepResult)
        assert first.index == 0 and first.params == self.GRID[0]

    def test_sweep_hits_cache_after_first_point(self):
        results = list(SuperSim().sweep(rotated_chain, self.GRID))
        assert len(results) == len(self.GRID)
        assert results[0].cache_hits == 0
        assert all(r.cache_hits > 0 for r in results[1:])

    def test_sweep_matches_independent_runs_exact(self):
        swept = list(SuperSim().sweep(rotated_chain, self.GRID))
        for point in swept:
            independent = SuperSim().run(rotated_chain(point.params))
            assert point.distribution.probs == independent.distribution.probs

    def test_sweep_matches_independent_runs_sampled(self):
        sampling = SamplingConfig(shots=400, seed=7)
        swept = list(SuperSim(sampling=sampling).sweep(rotated_chain, self.GRID))
        for point in swept:
            independent = SuperSim(sampling=sampling).run(
                rotated_chain(point.params)
            )
            assert point.distribution.probs == independent.distribution.probs

    def test_sweep_dict_and_tuple_params(self):
        def factory(theta, n):
            return rotated_chain(theta, n=n)

        as_tuples = list(SuperSim().sweep(factory, [(0.3, 4), (0.4, 4)]))
        as_dicts = list(
            SuperSim().sweep(
                factory, [{"theta": 0.3, "n": 4}, {"theta": 0.4, "n": 4}]
            )
        )
        for a, b in zip(as_tuples, as_dicts):
            assert a.distribution.probs == b.distribution.probs

    def test_sweep_without_cut_reuse_is_unconditionally_equivalent(self):
        # with reuse_cuts=False every point plans independently, so even a
        # Clifford-degenerate grid point matches its independent run in
        # sampled mode
        sampling = SamplingConfig(shots=300, seed=11)
        grid = [0.3, 0.5, 0.7]  # 0.5 degenerates ZPow to Clifford S
        swept = list(
            SuperSim(sampling=sampling).sweep(
                rotated_chain, grid, reuse_cuts=False
            )
        )
        for point in swept:
            independent = SuperSim(sampling=sampling).run(
                rotated_chain(point.params)
            )
            assert point.distribution.probs == independent.distribution.probs

    def test_sweep_clifford_first_point_does_not_pin_empty_cuts(self):
        # theta=0.5 degenerates ZPow to a Clifford S gate: the first plan
        # finds zero cuts, which must NOT be adopted as the shared cut set
        # — later non-Clifford points still get their own cut search
        grid = [0.5, 0.3, 0.4]
        swept = list(SuperSim().sweep(rotated_chain, grid))
        assert swept[0].result.num_cuts == 0
        for point in swept[1:]:
            independent = SuperSim().run(rotated_chain(point.params))
            assert point.result.num_cuts == independent.num_cuts > 0
            assert point.distribution.probs == independent.distribution.probs

    def test_sweep_survives_structural_change(self):
        # a grid point whose circuit shape differs forces a fresh cut
        # search instead of failing on the reused cut set
        def factory(width):
            return ghz_with_t(n=width)

        results = list(SuperSim().sweep(factory, [4, 6, 8]))
        assert [r.result.distribution.n_bits for r in results] == [4, 6, 8]

    def test_run_many_shares_cache(self):
        circuits = [rotated_chain(t) for t in (0.3, 0.4, 0.45)]
        sim = SuperSim()
        results = list(sim.run_many(circuits))
        assert len(results) == 3
        assert results[0].cache_hits == 0
        assert all(r.cache_hits > 0 for r in results[1:])
        for circuit, result in zip(circuits, results):
            independent = SuperSim().run(circuit)
            assert result.distribution.probs == independent.distribution.probs


class TestTimingsAlwaysComplete:
    def test_all_stage_keys_on_fresh_and_cached_runs(self):
        sim = SuperSim()
        c = near_clifford(11)
        for result in (sim.run(c), sim.run(c)):  # second run is fully cached
            for stage in ("cut", "evaluate", "tomography", "reconstruct"):
                assert stage in result.timings

    def test_result_backfills_missing_stage_keys(self):
        from repro.core.supersim import SuperSimResult

        result = SuperSimResult(
            distribution=None, cut_circuit=None, stats=None, timings={"cut": 1.0}
        )
        assert result.timings["tomography"] == 0.0
        assert result.timings["evaluate"] == 0.0
        assert result.timings["reconstruct"] == 0.0
        assert result.timings["cut"] == 1.0
