"""Marginal windows are served in batches, bit for bit as one at a time.

``SuperSim.marginal_probabilities`` contracts every group of equally
shaped windows once (``reconstruct_windows``), checked here against its
oracle — the per-window loop
(``repro.testing.reconstruction.loop_reconstruct_windows``) — byte for
byte.  Its answer is rows, one array per window width
(``WindowMarginals``), with the negative-mass rule applied to whole arrays
(``WindowMarginals.clipped``): both are checked against the per-window
tail they replaced (``per_window_reconstruct_windows`` and
``per_window_clipped``), rows and built distributions alike.  The windows
and kept qubits are validated before anything is cut, and the configured
``max_dense_bits`` reaches the batched contraction.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.kernels as rk
from repro.circuits import gates, inject_t_gates, random_clifford_circuit
from repro.core import (
    ExecutionConfig,
    ReconstructionConfig,
    ReconstructionMemoryError,
    SamplingConfig,
    SuperSim,
)
from repro.core import reconstruction, supersim
from repro.core.evaluator import FragmentEvaluator
from repro.core.tomography import build_window_tensors
from repro.testing.reconstruction import (
    loop_reconstruct_windows,
    per_window_clipped,
    per_window_reconstruct_windows,
)


def _readout_t_circuit(seed: int):
    """A random Clifford circuit with a T gate on one wire's readout (and
    maybe one more inside), so some non-Clifford fragment keeps outputs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    circuit = random_clifford_circuit(n, int(rng.integers(2, 5)), rng)
    circuit = inject_t_gates(circuit, int(rng.integers(0, 2)), rng)
    qubit = int(rng.integers(n))
    circuit.append(gates.T, qubit)
    if rng.random() < 0.5:
        circuit.append(gates.H, qubit)
    return circuit.measure_all(), rng


def _mixed_windows(cc, rng) -> list[list[int]]:
    """Windows of width 1-3 in no sorted order: one spanning two fragments,
    one holding a non-Clifford fragment's output, random ones, repeats."""
    owner = {oq: f.index for f in cc.fragments for oq, _lq in f.circuit_outputs}
    qubits = sorted(owner)
    non_clifford = [q for q in qubits if not cc.fragments[owner[q]].is_clifford]
    other = [q for q in qubits if owner[q] != owner[non_clifford[0]]]
    windows = [
        [non_clifford[0]],
        [other[0], non_clifford[0]],
        [int(q) for q in rng.permutation(qubits)[:3]],
    ]
    for _ in range(int(rng.integers(1, 6))):
        width = int(rng.integers(1, min(3, len(qubits)) + 1))
        windows.append([int(q) for q in rng.choice(qubits, width, replace=False)])
    windows += [windows[int(i)] for i in rng.integers(0, len(windows), 3)]
    return [windows[int(i)] for i in rng.permutation(len(windows))]


def _same_bytes(got, want) -> bool:
    return (
        got.n_bits == want.n_bits
        and got.keys_array.tobytes() == want.keys_array.tobytes()
        and got.values_array.tobytes() == want.values_array.tobytes()
    )


class TestBatchedContraction:
    @given(
        seed=st.integers(0, 10_000),
        shots=st.sampled_from([None, 300]),
        prune=st.booleans(),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    def test_equals_the_window_loop(self, seed, shots, prune):
        circuit, rng = _readout_t_circuit(seed)
        sim = SuperSim(
            sampling=SamplingConfig(shots=shots, seed=seed),
            execution=ExecutionConfig(prune_zeros=prune),
        )
        cc = sim.cut(circuit)
        assume(1 <= cc.num_cuts <= 3 and 2 <= len(cc.fragments) <= 3)
        assume(any(not f.is_clifford and f.circuit_outputs for f in cc.fragments))
        windows = _mixed_windows(cc, rng)

        seen = {}
        batched = reconstruction.reconstruct_windows

        def spy(cut_circuit, tensors, layouts, **kwargs):
            seen.update(cut_circuit=cut_circuit, tensors=tensors, kwargs=kwargs)
            return batched(cut_circuit, tensors, layouts, **kwargs)

        with mock.patch.object(supersim, "reconstruct_windows", spy):
            got = sim.marginal_probabilities(circuit, windows)
        want = loop_reconstruct_windows(
            seen["cut_circuit"], seen["tensors"], windows, **seen["kwargs"]
        )
        assert len(got) == len(windows)
        for dist, reference in zip(got, want):
            clipped = reference.clipped() if len(reference) else reference
            assert _same_bytes(dist, clipped)

    def test_one_contraction_per_window_shape(self):
        circuit, _rng = _readout_t_circuit(3)
        sim = SuperSim()
        cc = sim.cut(circuit)
        qubits = list(circuit.measured_qubits)
        windows = [[q] for q in qubits] + [[qubits[0], qubits[-1]]] * 2
        data = sim._evaluator().evaluate_all(cc.fragments)
        sites = reconstruction.output_sites(cc)
        layouts = [
            reconstruction.window_layout(sites, len(cc.fragments), w) for w in windows
        ]
        tensors = [
            build_window_tensors(d, [kept[f] for kept, _order in layouts])
            for f, d in enumerate(data)
        ]
        shapes = {tuple(t[w].shape for t in tensors) for w in range(len(windows))}
        before = rk.counters_snapshot()["dense_contract"][0]
        got, stats = reconstruction.reconstruct_windows(cc, tensors, layouts)
        assert rk.counters_snapshot()["dense_contract"][0] - before == len(shapes)
        assert stats.windows == len(shapes)
        assert len(shapes) < len(windows)
        for dist, reference in zip(got, loop_reconstruct_windows(cc, tensors, windows)):
            assert _same_bytes(dist, reference)


def _window_case(seed: int, shots, prune: bool):
    """``(cc, tensors, layouts)`` of 2-8 windows of widths 1-4 over a
    random near-Clifford circuit, with the cut, evaluation and tomography
    of ``SuperSim.marginal_probabilities``."""
    circuit, rng = _readout_t_circuit(seed)
    sim = SuperSim(
        sampling=SamplingConfig(shots=shots, seed=seed),
        execution=ExecutionConfig(prune_zeros=prune),
    )
    cc = sim.cut(circuit)
    qubits = list(circuit.measured_qubits)
    windows = [
        [int(q) for q in rng.choice(qubits, width, replace=False)]
        for width in rng.integers(1, min(4, len(qubits)) + 1, int(rng.integers(2, 9)))
    ]
    data = sim._evaluator().evaluate_all(cc.fragments)
    sites = reconstruction.output_sites(cc)
    layouts = [
        reconstruction.window_layout(sites, len(cc.fragments), w) for w in windows
    ]
    tensors = [
        build_window_tensors(d, [kept[f] for kept, _order in layouts])
        for f, d in enumerate(data)
    ]
    return cc, tensors, layouts, rng


def _assert_rows_twin(got, want):
    """``WindowMarginals`` ``got`` holds, row for row and built
    distribution for distribution, the per-window ``want``."""
    assert len(got) == len(want)
    for w, dist in enumerate(want):
        width, row = got.index[w]
        assert got.rows[width][row].tobytes() == dist.to_array().tobytes()
        assert _same_bytes(got[w], dist)
        assert got[w] is got[w]


class TestWindowRowsTwin:
    """``reconstruct_windows`` rows and ``WindowMarginals.clipped`` against
    the per-window tail they replaced, on the live windows and on windows
    whose tensors were made empty, noisy (negative entries) or negated
    (no positive entry: the negative-mass rule must raise as it did)."""

    @given(
        seed=st.integers(0, 10_000),
        shots=st.sampled_from([None, 300]),
        prune=st.booleans(),
        edits=st.lists(
            st.sampled_from(["keep", "empty", "noisy", "negated"]),
            min_size=8,
            max_size=8,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_the_per_window_tail(self, seed, shots, prune, edits):
        cc, tensors, layouts, rng = _window_case(seed, shots, prune)
        for w, edit in zip(range(len(layouts)), edits):
            of_fragment = tensors[int(rng.integers(len(tensors)))]
            tensor = of_fragment[w]
            if edit == "empty":
                of_fragment[w] = np.zeros_like(tensor)
            elif edit == "noisy":
                of_fragment[w] = tensor + rng.normal(0.0, 0.3, tensor.shape)
            elif edit == "negated":
                of_fragment[w] = -tensor
        got, stats = reconstruction.reconstruct_windows(
            cc, tensors, layouts, prune_zeros=prune
        )
        want, want_stats = per_window_reconstruct_windows(
            cc, tensors, layouts, prune_zeros=prune
        )
        assert stats == want_stats
        _assert_rows_twin(got, want)
        try:
            clipped = per_window_clipped(want)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                got.clipped()
        else:
            _assert_rows_twin(got.clipped(), clipped)

    @pytest.mark.parametrize("prune", [True, False])
    def test_empty_and_non_positive_windows(self, prune):
        cc, tensors, layouts, _rng = _window_case(5, None, prune)
        of_fragment = tensors[0]
        of_fragment[0] = np.zeros_like(of_fragment[0])
        got, _stats = reconstruction.reconstruct_windows(
            cc, tensors, layouts, prune_zeros=prune
        )
        want, _stats = per_window_reconstruct_windows(
            cc, tensors, layouts, prune_zeros=prune
        )
        width, row = got.index[0]
        assert len(want[0]) == 0 and not got.rows[width][row].any()
        _assert_rows_twin(got.clipped(), per_window_clipped(want))
        if not prune:
            return  # a negated exact marginal keeps its rounding as positives
        # an exact marginal, negated: every entry at or below the threshold
        of_fragment[1] = -of_fragment[1]
        got, _stats = reconstruction.reconstruct_windows(
            cc, tensors, layouts, prune_zeros=prune
        )
        want, _stats = per_window_reconstruct_windows(
            cc, tensors, layouts, prune_zeros=prune
        )
        message = "cannot normalise an all-zero distribution"
        with pytest.raises(ValueError, match=message):
            per_window_clipped(want)
        with pytest.raises(ValueError, match=message):
            got.clipped()

    def test_array_is_the_rows_of_one_width(self):
        cc, tensors, layouts, _rng = _window_case(5, None, True)
        got, _stats = reconstruction.reconstruct_windows(cc, tensors, layouts)
        widths = {len(order) for _kept, order in layouts}
        for width in range(1, 5):
            if widths - {width}:
                with pytest.raises(ValueError, match=f"is {width} qubits wide"):
                    got.array(width)
        width = len(layouts[0][1])
        one, _stats = reconstruction.reconstruct_windows(
            cc, [[t[0]] * 3 for t in tensors], [layouts[0]] * 3
        )
        array = one.array(width)
        assert array.shape == (3, 2**width)
        assert array.tobytes() == np.stack([d.to_array() for d in one]).tobytes()
        array[:] = 7.0
        assert not (one.array(width) == 7.0).any()
        none, _stats = reconstruction.reconstruct_windows(cc, tensors, [])
        assert none.array(2).shape == (0, 4)


class TestWindowedRunTwin:
    """Two routes to one exact marginal: a windowed ``run()`` (the route
    the service offers) builds ``build_fragment_tensor`` tensors for
    ``reconstruct_distribution``, ``marginal_probabilities`` builds
    ``build_window_tensors`` tensors for ``reconstruct_windows``."""

    @given(
        seed=st.integers(0, 10_000),
        shots=st.sampled_from([None, 300]),
        tomography=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_equals_marginal_probabilities(self, seed, shots, tomography):
        circuit, rng = _readout_t_circuit(seed)
        qubits = list(circuit.measured_qubits)
        width = int(rng.integers(1, min(3, len(qubits)) + 1))
        window = [int(q) for q in rng.choice(qubits, width, replace=False)]
        sampling = SamplingConfig(shots=shots, tomography=tomography, seed=seed)
        windowed = ReconstructionConfig(mode="windowed", window=tuple(window))
        ran = SuperSim(sampling=sampling, reconstruction=windowed).run(circuit)
        (marginal,) = SuperSim(sampling=sampling).marginal_probabilities(
            circuit, [window]
        )
        assert ran.reconstruction_mode == "windowed"
        assert _same_bytes(ran.distribution, marginal)


_OUTSIDE = "is not in the 6-qubit circuit"


def _t_circuit():
    rng = np.random.default_rng(0)
    return inject_t_gates(random_clifford_circuit(6, 4, rng), 1, rng)


class TestQubitListValidation:
    """``plan()`` checks an explicit ``keep_qubits`` and a windowed run's
    window before anything is cut, so ``run``, ``sweep`` and the service
    refuse a bad list up front instead of after every fragment ran."""

    @pytest.mark.parametrize(
        "mode, keep, window, message",
        [
            (mode, keep, None, message)
            for mode in ("full", "recursive", "windowed")
            for keep, message in [
                ([0.5], r"keep_qubits \[0.5\]: qubit 0.5 is not an integer"),
                ([True], "qubit True is not an integer"),
                ([7], r"keep_qubits \[7\]: qubit 7 " + _OUTSIDE),
                ([-1], r"keep_qubits \[-1\]: qubit -1 " + _OUTSIDE),
                ([0, 0], r"keep_qubits \[0, 0\]: qubit 0 repeats"),
            ]
        ]
        + [
            ("recursive", [], None, "needs a kept qubit"),
            ("windowed", None, (1, 1), r"window \[1, 1\]: qubit 1 repeats"),
            ("windowed", None, (), "empty marginal window"),
            ("windowed", [], None, "empty marginal window"),
            ("windowed", None, (0.5,), "qubit 0.5 is not an integer"),
            ("windowed", None, (7,), "qubit 7 " + _OUTSIDE),
            ("windowed", [0, 1], (2,), r"qubits \[2\] are not in keep_qubits"),
        ],
    )
    def test_refused_before_anything_is_cut(
        self, mode, keep, window, message, monkeypatch
    ):
        reached = mock.Mock(side_effect=AssertionError("cut or evaluated"))
        monkeypatch.setattr(FragmentEvaluator, "evaluate_all", reached)
        monkeypatch.setattr(SuperSim, "cut", reached)
        sim = SuperSim(reconstruction=ReconstructionConfig(mode=mode, window=window))
        with pytest.raises(ValueError, match=message):
            sim.run(_t_circuit(), keep_qubits=keep)
        with pytest.raises(ValueError, match=message):
            next(sim.sweep(lambda _point: _t_circuit(), [0], keep_qubits=keep))
        reached.assert_not_called()

    @pytest.mark.parametrize(
        "keep, message",
        [
            ([0, 0], r"keep_qubits \[0, 0\]: qubit 0 repeats"),
            ([7], r"keep_qubits \[7\]: qubit 7 " + _OUTSIDE),
            ([-1], r"keep_qubits \[-1\]: qubit -1 " + _OUTSIDE),
            ([0.5], r"keep_qubits \[0.5\]: qubit 0.5 is not an integer"),
            ([True, 1], "qubit True is not an integer"),
        ],
    )
    def test_sparse_probabilities_refuses_before_evaluating(
        self, keep, message, monkeypatch
    ):
        reached = mock.Mock(side_effect=AssertionError("cut or evaluated"))
        monkeypatch.setattr(FragmentEvaluator, "evaluate_all", reached)
        monkeypatch.setattr(SuperSim, "cut", reached)
        with pytest.raises(ValueError, match=message):
            SuperSim().sparse_probabilities(_t_circuit(), keep)
        reached.assert_not_called()

    def test_sparse_probabilities_of_nothing_is_the_trivial_distribution(self):
        dist = SuperSim().sparse_probabilities(_t_circuit(), [])
        assert dist.n_bits == 0
        assert dist[0] == pytest.approx(1.0, abs=1e-12)

    def test_nothing_kept_in_full_mode_is_the_trivial_distribution(self):
        result = SuperSim().run(_t_circuit(), keep_qubits=[])
        assert result.distribution.n_bits == 0
        assert result.distribution[0] == pytest.approx(1.0, abs=1e-12)

    def test_numpy_integers_are_kept_qubits(self):
        circuit = _t_circuit()
        got = SuperSim().run(circuit, keep_qubits=np.array([2, 0])).distribution
        want = SuperSim().run(circuit, keep_qubits=[2, 0]).distribution
        assert _same_bytes(got, want)

class TestMaxDenseBits:
    def test_batched_contraction_honours_the_limit(self):
        circuit, _rng = _readout_t_circuit(3)
        sim = SuperSim()
        cc = sim.cut(circuit)
        window = list(circuit.measured_qubits)[:2]
        data = sim._evaluator().evaluate_all(cc.fragments)
        layouts = [
            reconstruction.window_layout(
                reconstruction.output_sites(cc), len(cc.fragments), window
            )
        ]
        tensors = [
            build_window_tensors(d, [layouts[0][0][f]]) for f, d in enumerate(data)
        ]
        with pytest.raises(ReconstructionMemoryError, match="limit: 1 bits"):
            reconstruction.reconstruct_windows(cc, tensors, layouts, max_dense_bits=1)
        (dist,), _stats = reconstruction.reconstruct_windows(
            cc, tensors, layouts, max_dense_bits=2
        )
        assert dist.n_bits == 2

    def test_marginal_probabilities_passes_the_configured_limit(self, monkeypatch):
        limits = []
        check = reconstruction.check_dense_width

        def spy(total_bits, max_dense_bits):
            limits.append(max_dense_bits)
            return check(total_bits, max_dense_bits)

        monkeypatch.setattr(reconstruction, "check_dense_width", spy)
        circuit, _rng = _readout_t_circuit(3)
        sim = SuperSim(reconstruction=ReconstructionConfig(max_dense_bits=40))
        sim.marginal_probabilities(circuit, [[0], [0, 1]])
        assert limits and set(limits) == {40}


class TestWindowValidation:
    @pytest.mark.parametrize(
        "window, message",
        [
            ([3, 3], r"window \[3, 3\]: qubit 3 repeats"),
            ([9], r"window \[9\]: qubit 9 is not in the 4-qubit circuit"),
            ([-1], r"window \[-1\]: qubit -1 is not in the 4-qubit circuit"),
            ([1.5], r"window \[1.5\]: qubit 1.5 is not an integer"),
            ([0, True], r"qubit True is not an integer"),
            ([], "empty marginal window"),
        ],
    )
    def test_refused_before_anything_is_cut(self, window, message, monkeypatch):
        circuit = random_clifford_circuit(4, 3, np.random.default_rng(0)).measure_all()
        reached = mock.Mock(side_effect=AssertionError("evaluated a bad window"))
        monkeypatch.setattr(FragmentEvaluator, "evaluate_all", reached)
        monkeypatch.setattr(SuperSim, "cut", reached)
        with pytest.raises(ValueError, match=message):
            SuperSim().marginal_probabilities(circuit, [[0], window])
        reached.assert_not_called()

    def test_numpy_integers_are_qubits(self):
        circuit = random_clifford_circuit(4, 3, np.random.default_rng(0)).measure_all()
        (got,) = SuperSim().marginal_probabilities(circuit, [np.array([2, 0])])
        (want,) = SuperSim().marginal_probabilities(circuit, [[2, 0]])
        assert _same_bytes(got, want)
