"""Bounded-memory reconstruction: windowed and recursive.

Property-tests pin the windowed and recursive dynamic-definition engines
against the dense reference on small cut circuits (exact marginal
equality, top-k containment, a total-variation bound from the covered
mass).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import hellinger_fidelity, total_variation_distance
from repro.apps.qaoa import expected_cut, expected_cut_from_marginals, sk_model
from repro.circuits import Circuit, gates, inject_t_gates, random_clifford_circuit
from repro.core import (
    ReconstructionConfig,
    ReconstructionMemoryError,
    SamplingConfig,
    SuperSim,
)
from repro.core.reconstruction import (
    estimate_reconstruction_cost,
    reconstruct_distribution,
    reconstruct_dynamic,
)
from repro.core.tomography import (
    build_conditioned_fragment_tensor,
    build_fragment_tensor,
)

EXACT = SuperSim()


def _cut_workload(seed: int, n: int = 6, depth: int = 5):
    """A near-Clifford circuit plus its evaluated fragment artifacts."""
    rng = np.random.default_rng(seed)
    circuit = inject_t_gates(random_clifford_circuit(n, depth, rng), 1, rng)
    cc = EXACT.cut(circuit)
    data = EXACT._evaluator().evaluate_all(cc.fragments)
    keep = list(circuit.measured_qubits)
    keep_set = set(keep)
    kept_locals = [
        [lq for oq, lq in f.circuit_outputs if oq in keep_set]
        for f in cc.fragments
    ]
    tensors = [build_fragment_tensor(d, kl) for d, kl in zip(data, kept_locals)]
    return circuit, cc, tensors, kept_locals, keep


def _wide_chain(n: int = 61) -> Circuit:
    """GHZ chain with one non-Clifford rotation: 4-outcome support at any n."""
    circuit = Circuit(n).append(gates.H, 0)
    for q in range(n - 1):
        circuit.append(gates.CX, q, q + 1)
    circuit.append(gates.XPow(0.25), n // 2)
    return circuit


class TestWindowedMarginal:
    @given(
        seed=st.integers(0, 10_000),
        start=st.integers(0, 3),
        width=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_marginal_exactly(self, seed, start, width):
        circuit, cc, tensors, kept_locals, keep = _cut_workload(seed)
        window = keep[start : start + width]
        dense, _ = reconstruct_distribution(cc, tensors, kept_locals, keep)
        reference = dense.marginal(range(start, start + len(window)))
        result = SuperSim(
            reconstruction=ReconstructionConfig(mode="windowed", window=tuple(window))
        ).run(circuit)
        assert result.stats.mode == "windowed"
        assert result.stats.peak_window_entries == 2 ** len(window)
        assert total_variation_distance(result.raw_distribution, reference) < 1e-9

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_non_contiguous_and_reordered_windows(self, seed):
        circuit, cc, tensors, kept_locals, keep = _cut_workload(seed)
        window = [keep[4], keep[0], keep[2]]
        dense, _ = reconstruct_distribution(cc, tensors, kept_locals, keep)
        reference = dense.marginal([4, 0, 2]).clipped()
        (windowed,) = EXACT.marginal_probabilities(circuit, [window])
        assert total_variation_distance(windowed, reference) < 1e-9

    def test_fixed_bits_give_joint_probabilities(self):
        circuit, cc, tensors, kept_locals, keep = _cut_workload(3)
        dense, _ = reconstruct_distribution(cc, tensors, kept_locals, keep)
        pair = dense.marginal([0, 1])
        data = EXACT._evaluator().evaluate_all(cc.fragments)
        window_locals, pinned = [], []
        for fragment, fragment_data in zip(cc.fragments, data):
            local = {oq: lq for oq, lq in fragment.circuit_outputs}
            kept = [local[keep[1]]] if keep[1] in local else []
            fixed = {local[keep[0]]: 1} if keep[0] in local else {}
            window_locals.append(kept)
            pinned.append(build_conditioned_fragment_tensor(fragment_data, kept, fixed))
        conditioned, _ = reconstruct_distribution(
            cc, pinned, window_locals, [keep[1]]
        )
        # values are joint P(q0=1, q1=b), not conditional
        assert conditioned[0] == pytest.approx(pair[0b10], abs=1e-12)
        assert conditioned[1] == pytest.approx(pair[0b11], abs=1e-12)

    def test_window_validation(self):
        circuit, cc, tensors, kept_locals, keep = _cut_workload(0)
        for window in ([], [keep[0], keep[0]], [10**6]):
            with pytest.raises(ValueError):
                EXACT.marginal_probabilities(circuit, [window])
        for window in ((keep[0], keep[0]), (10**6,)):
            sim = SuperSim(
                reconstruction=ReconstructionConfig(mode="windowed", window=window)
            )
            with pytest.raises(ValueError):
                sim.run(circuit)


class TestRecursiveReconstruction:
    @given(
        seed=st.integers(0, 10_000),
        qubit_limit=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_full_beam_matches_dense(self, seed, qubit_limit):
        """With top_k >= support the recursion loses nothing: exact match."""
        circuit, cc, tensors, kept_locals, keep = _cut_workload(seed)
        dense, _ = reconstruct_distribution(cc, tensors, kept_locals, keep)
        sim = SuperSim(
            reconstruction=ReconstructionConfig(
                mode="recursive", qubit_limit=qubit_limit, top_k=2 ** len(keep)
            )
        )
        result = sim.run(circuit)
        assert result.reconstruction_mode == "recursive"
        assert result.covered_probability == pytest.approx(1.0, abs=1e-9)
        assert result.stats.peak_window_entries <= 2**qubit_limit
        assert (
            total_variation_distance(result.raw_distribution, dense) < 1e-9
        )

    @given(seed=st.integers(0, 10_000), top_k=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_topk_containment_and_tv_bound(self, seed, top_k):
        """Truncated beams return true heavy outcomes with true masses."""
        circuit, cc, tensors, kept_locals, keep = _cut_workload(seed)
        dense, _ = reconstruct_distribution(cc, tensors, kept_locals, keep)
        sim = SuperSim(
            reconstruction=ReconstructionConfig(
                mode="recursive", qubit_limit=2, top_k=top_k
            )
        )
        result = sim.run(circuit)
        got = dict(result.distribution)
        assert len(got) <= top_k
        for outcome, prob in got.items():
            # every reported outcome carries its exact dense probability
            assert prob == pytest.approx(dense[outcome], abs=1e-9)
        # calibrated top-k: TV to the dense answer is bounded by the
        # truncated mass (all error is missing outcomes, never wrong ones)
        missing = 1.0 - result.covered_probability
        tv = total_variation_distance(result.raw_distribution, dense)
        assert tv <= missing + 1e-9

    def test_beam_keeps_heaviest_bins(self):
        """top_k=1 must follow the single heaviest branch at every level."""
        circuit = _wide_chain(12)
        sim = SuperSim(
            reconstruction=ReconstructionConfig(
                mode="recursive", qubit_limit=4, top_k=1
            )
        )
        result = sim.run(circuit)
        assert len(result.distribution) == 1
        ((outcome, prob),) = list(result.distribution)
        dense = EXACT.run(circuit).distribution
        heaviest = max(dense, key=lambda kv: kv[1])
        assert prob == pytest.approx(heaviest[1], abs=1e-9)

    def test_kept_prefix_truncates_definition(self):
        circuit, cc, tensors, kept_locals, keep = _cut_workload(5)
        dense, _ = reconstruct_distribution(cc, tensors, kept_locals, keep)
        sim = SuperSim(
            reconstruction=ReconstructionConfig(
                mode="recursive", qubit_limit=2, top_k=64
            )
        )
        result = sim.run(circuit, keep_qubits=keep[:4])
        assert result.reconstruction_mode == "recursive"
        assert result.distribution.n_bits == 4
        reference = dense.marginal(range(4))
        assert total_variation_distance(result.raw_distribution, reference) < 1e-9

    def test_builder_validation(self):
        circuit, cc, tensors, kept_locals, keep = _cut_workload(0)
        evaluator = EXACT._evaluator()
        builder = EXACT._dynamic_tensor_builder(
            cc, evaluator.evaluate_all(cc.fragments), evaluator
        )
        with pytest.raises(ValueError):
            reconstruct_dynamic(cc, builder, keep, qubit_limit=0)
        with pytest.raises(ValueError):
            reconstruct_dynamic(cc, builder, keep, top_k=0)
        with pytest.raises(ValueError):
            reconstruct_dynamic(cc, builder, [])
        with pytest.raises(ValueError):
            reconstruct_dynamic(cc, builder, [keep[0], keep[0]])
        with pytest.raises(ValueError, match="must be integers"):
            reconstruct_dynamic(cc, builder, [0.5])


class TestWideCircuits:
    def test_61_qubit_chain_recursive(self):
        """The acceptance case: dense-infeasible width, exact top-k answer."""
        circuit = _wide_chain(61)
        sim = SuperSim(
            reconstruction=ReconstructionConfig(qubit_limit=16, top_k=16)
        )
        result = sim.run(circuit)
        assert result.reconstruction_mode == "recursive"  # auto-selected
        assert result.stats.peak_window_entries <= 2**16
        assert result.distribution.n_bits == 61
        assert result.covered_probability == pytest.approx(1.0, abs=1e-6)
        reference = EXACT.sparse_probabilities(circuit)
        fidelity = hellinger_fidelity(result.distribution.normalized(), reference)
        assert fidelity > 1 - 1e-9

    def test_61_qubit_exact_marginals(self):
        circuit = _wide_chain(61)
        mid = circuit.n_qubits // 2
        single, pair = EXACT.marginal_probabilities(circuit, [[mid], [0, mid]])
        assert single[0] == pytest.approx(0.5, abs=1e-9)
        # GHZ + XPow(1/4) on mid: P(flip) = sin^2(pi/8)
        flip = np.sin(np.pi / 8) ** 2
        assert pair[0b01] == pytest.approx(flip * 0.5, abs=1e-9)
        assert pair[0b00] + pair[0b11] == pytest.approx(1 - flip, abs=1e-9)

    def test_sampled_recursive_mode(self):
        circuit = _wide_chain(31)
        sim = SuperSim(
            sampling=SamplingConfig(shots=4000, seed=7),
            reconstruction=ReconstructionConfig(
                mode="recursive", qubit_limit=8, top_k=8
            ),
        )
        result = sim.run(circuit)
        reference = EXACT.sparse_probabilities(circuit)
        assert (
            hellinger_fidelity(result.distribution.normalized(), reference)
            > 0.95
        )


class TestMemoryGuard:
    def test_reconstruct_distribution_guard_names_escape_hatch(self):
        circuit, cc, tensors, kept_locals, keep = _cut_workload(0)
        with pytest.raises(ReconstructionMemoryError, match="qubit_limit"):
            reconstruct_distribution(
                cc, tensors, kept_locals, keep, max_dense_bits=3
            )

    def test_guard_is_a_memory_error(self):
        # callers guarding `except MemoryError` keep working
        assert issubclass(ReconstructionMemoryError, MemoryError)

    def test_execute_full_mode_raises_on_wide_output(self):
        circuit = _wide_chain(31)
        sim = SuperSim(reconstruction=ReconstructionConfig(mode="full"))
        with pytest.raises(ReconstructionMemoryError):
            sim.run(circuit)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReconstructionConfig(mode="nope")
        with pytest.raises(ValueError):
            ReconstructionConfig(qubit_limit=0)
        with pytest.raises(ValueError):
            ReconstructionConfig(qubit_limit=27)
        with pytest.raises(ValueError):
            ReconstructionConfig(top_k=0)
        with pytest.raises(TypeError):
            SuperSim(reconstruction="recursive")


class TestWindowedExecuteMode:
    def test_windowed_mode_returns_marginal(self):
        circuit, cc, tensors, kept_locals, keep = _cut_workload(2)
        dense = EXACT.run(circuit).distribution
        sim = SuperSim(
            reconstruction=ReconstructionConfig(
                mode="windowed", window=tuple(keep[:2])
            )
        )
        result = sim.run(circuit)
        assert result.reconstruction_mode == "windowed"
        assert result.distribution.n_bits == 2
        reference = dense.marginal(range(2))
        assert total_variation_distance(result.distribution, reference) < 1e-9

    def test_windowed_mode_rejects_unknown_window(self):
        circuit, *_ = _cut_workload(2)
        sim = SuperSim(
            reconstruction=ReconstructionConfig(mode="windowed", window=(99,))
        )
        with pytest.raises(ValueError):
            sim.run(circuit)


class TestCostEstimate:
    def test_estimate_charges_output_width(self):
        narrow = estimate_reconstruction_cost(2, 10)
        wide = estimate_reconstruction_cost(2, 60)
        # wide quotes the recursive engine, not an impossible 4^k * 2^60
        assert wide < 4.0**2 * 2.0**60 * 1e-12
        assert wide > narrow

    def test_mode_specific_costs(self):
        dense = estimate_reconstruction_cost(2, 20, mode="full")
        windowed = estimate_reconstruction_cost(2, 20, mode="windowed")
        recursive = estimate_reconstruction_cost(2, 20, mode="recursive")
        auto = estimate_reconstruction_cost(2, 20)
        assert windowed < recursive
        assert auto == pytest.approx(min(dense, recursive))

    def test_plan_estimate_includes_reconstruction_cost(self):
        circuit, *_ = _cut_workload(1)
        estimate = SuperSim().plan(circuit).estimate()
        assert estimate.reconstruction_cost > 0
        fragment_cost = sum(f.cost for f in estimate.fragments)
        assert estimate.total_cost == pytest.approx(
            fragment_cost + estimate.reconstruction_cost
        )

    def test_wide_plan_estimate_is_finite_and_small(self):
        circuit = _wide_chain(61)
        estimate = SuperSim().plan(circuit).estimate()
        # the old dense charge would be 4^k * 2^61 * scale ~ 10^10 seconds
        assert estimate.reconstruction_cost < 60.0


class TestQaoaConsumers:
    def test_expected_cut_from_marginals_matches_dense(self):
        from repro.apps.qaoa import near_clifford_qaoa

        circuit = near_clifford_qaoa(6, rng=3)
        couplings = sk_model(6, 3)
        dense = EXACT.run(circuit).distribution
        assert expected_cut_from_marginals(
            couplings, circuit
        ) == pytest.approx(expected_cut(couplings, dense), abs=1e-9)
