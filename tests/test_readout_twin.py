"""Every query is a plan with a readout, byte for byte what it was alone.

``marginal_probabilities``, ``sparse_probabilities``, ``probability_of``
and a windowed-config ``run()`` used to cut and evaluate on their own,
each with its own tensor builder and engine call.  They are now one
``plan(readout=...)`` → ``execute()`` path.  The oracles below are those
earlier bodies, kept verbatim apart from ``self`` becoming ``sim`` (and
``reconstruct_windows`` returning its statistics beside the marginals),
and every wrapper must return exactly their bytes: keys, values and, for
the windowed run, the raw distribution and the statistics too.  A windows
readout's answer is rows now (``WindowMarginals``), so its oracles run the
per-window tail it replaced
(``repro.testing.reconstruction.per_window_reconstruct_windows`` and
``per_window_clipped``), and ``single_qubit_marginals`` and the QAOA edge
scorer, which read the rows, must equal the ``Distribution`` reads they
replaced.  These outputs are floats, which
``tests/differential/digests.json`` does not pin.
"""

import math
import numbers

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.qaoa import expected_cut_from_marginals, near_clifford_qaoa, sk_model
from repro.circuits import gates, inject_t_gates, random_clifford_circuit
from repro.core import ExecutionConfig, ReconstructionConfig, SamplingConfig, SuperSim
from repro.core.reconstruction import (
    output_sites,
    reconstruct_distribution,
    window_layout,
)
from repro.core.supersim import _check_qubits, _check_windows, _kept_locals
from repro.core.tomography import (
    build_conditioned_fragment_tensor,
    build_fragment_tensor,
    build_window_tensors,
)
from repro.testing.reconstruction import (
    per_window_clipped,
    per_window_reconstruct_windows,
)


def oracle_sparse_probabilities(sim, circuit, keep_qubits=None, max_support=1_000_000):
    if keep_qubits is None:
        keep_qubits = list(circuit.measured_qubits)
    else:
        keep_qubits = list(keep_qubits)
        _check_qubits(keep_qubits, circuit.n_qubits, f"keep_qubits {keep_qubits}")
    cc = sim.cut(circuit)
    fragment_data = sim._evaluator().evaluate_all(
        cc.fragments, job_runner=sim._job_runner
    )
    kept_locals = _kept_locals(cc, keep_qubits)
    tensors = [
        build_conditioned_fragment_tensor(data, kept, {}, max_dense_bits=None)
        for data, kept in zip(fragment_data, kept_locals)
    ]
    if math.prod(len(tensor.support) for tensor in tensors) > max_support:
        raise ValueError(
            "sparse reconstruction support exceeded max_support; "
            "use marginal reconstruction for dense outputs"
        )
    dist, _stats = reconstruct_distribution(
        cc,
        tensors,
        kept_locals,
        keep_qubits,
        prune_zeros=sim.execution.prune_zeros,
        max_dense_bits=None,
    )
    return dist.clipped() if len(dist) else dist


def oracle_marginal_probabilities(sim, circuit, windows, cuts=None):
    windows = [list(w) for w in windows]
    _check_windows(windows, circuit.n_qubits)
    cc = sim.cut(circuit, cuts)
    evaluator = sim._evaluator()
    fragment_data = evaluator.evaluate_all(cc.fragments, job_runner=sim._job_runner)
    max_dense_bits = sim.reconstruction.max_dense_bits
    sites = output_sites(cc)
    layouts = [window_layout(sites, len(cc.fragments), w) for w in windows]
    tensors = [
        build_window_tensors(
            data,
            [kept_locals[f] for kept_locals, _order in layouts],
            project=sim._projects(evaluator, data.fragment),
            max_dense_bits=max_dense_bits,
        )
        for f, data in enumerate(fragment_data)
    ]
    marginals, _stats = per_window_reconstruct_windows(
        cc,
        tensors,
        layouts,
        prune_zeros=sim.execution.prune_zeros,
        max_dense_bits=max_dense_bits,
    )
    return per_window_clipped(marginals)


def oracle_single_qubit_marginals(sim, circuit):
    windows = [[q] for q in circuit.measured_qubits]
    marginals = oracle_marginal_probabilities(sim, circuit, windows)
    return np.array([[dist[0], dist[1]] for dist in marginals]).reshape(-1, 2)


def oracle_expected_cut_from_marginals(couplings, circuit, sim):
    edges = list(couplings.items())
    marginals = sim.marginal_probabilities(
        circuit, [(i, j) for (i, j), _w in edges]
    )
    total = 0.0
    for ((_i, _j), w), dist in zip(edges, marginals):
        total += w * (dist[0b01] + dist[0b10])
    return total


def oracle_probability_of(sim, circuit, outcome_bits):
    qubits = list(circuit.measured_qubits)
    outcome_bits = list(outcome_bits)
    if len(outcome_bits) != len(qubits):
        raise ValueError("bitstring length does not match measured qubits")
    if not all(
        (isinstance(b, numbers.Integral) and b in (0, 1)) or b in ("0", "1")
        for b in outcome_bits
    ):
        raise ValueError(f"outcome bits must be 0 or 1, got {outcome_bits!r}")
    outcome_bits = [int(b) for b in outcome_bits]
    bit_of = dict(zip(qubits, outcome_bits))
    cc = sim.cut(circuit)
    fragment_data = sim._evaluator().evaluate_all(
        cc.fragments, job_runner=sim._job_runner
    )
    tensors = [
        build_conditioned_fragment_tensor(
            data,
            [],
            {lq: bit_of[oq] for oq, lq in data.fragment.circuit_outputs if oq in bit_of},
        )
        for data in fragment_data
    ]
    point, _stats = reconstruct_distribution(
        cc, tensors, [[] for _ in tensors], [], prune_zeros=False
    )
    return point[0]


def oracle_windowed_run(sim, circuit):
    """The windowed branch of the execute stage: ``(distribution, raw,
    stats)`` of the window over the dense fragment tensors."""
    plan = sim.plan(circuit)
    cc = plan.cut_circuit
    evaluator = sim._evaluator(plan)
    fragment_data = evaluator.evaluate_all(cc.fragments, job_runner=sim._job_runner)
    rc = sim.reconstruction
    window = rc.window
    if window is None:
        window = list(plan.keep_qubits)[: rc.qubit_limit]
    target_qubits = list(window)
    kept_locals = _kept_locals(cc, target_qubits)
    tensors = [
        build_fragment_tensor(
            data,
            kept,
            project=sim._projects(evaluator, data.fragment),
            max_dense_bits=rc.max_dense_bits,
        )
        for data, kept in zip(fragment_data, kept_locals)
    ]
    raw, stats = reconstruct_distribution(
        cc,
        tensors,
        kept_locals,
        target_qubits,
        prune_zeros=sim.execution.prune_zeros,
        max_dense_bits=rc.max_dense_bits,
    )
    stats.mode = "windowed"
    cleaned = raw.clipped() if len(raw) else raw
    return cleaned, raw, stats


def _near_clifford(seed: int):
    """A random Clifford circuit with one or two T gates, one of them on a
    wire's readout so a non-Clifford fragment keeps outputs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    circuit = random_clifford_circuit(n, int(rng.integers(2, 5)), rng)
    circuit = inject_t_gates(circuit, int(rng.integers(0, 2)), rng)
    circuit.append(gates.T, int(rng.integers(n)))
    return circuit.measure_all(), rng


def _sampling(seed, shots, tomography):
    return SamplingConfig(shots=shots, tomography=tomography, seed=seed)


def _sim(seed, shots, tomography, prune=True, **configs):
    return SuperSim(
        sampling=_sampling(seed, shots, tomography),
        execution=ExecutionConfig(prune_zeros=prune),
        **configs,
    )


def _same_bytes(got, want) -> bool:
    return (
        got.n_bits == want.n_bits
        and got.keys_array.tobytes() == want.keys_array.tobytes()
        and got.values_array.tobytes() == want.values_array.tobytes()
    )


_CASES = dict(
    seed=st.integers(0, 10_000),
    shots=st.sampled_from([None, 300]),
    tomography=st.booleans(),
)


class TestQueriesEqualTheirOracles:
    @given(**_CASES, prune=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_marginal_probabilities(self, seed, shots, tomography, prune):
        # widths 1-4: a window of 8 or more outcomes is where summing a row
        # with zeros in place of its dropped entries would drift
        circuit, rng = _near_clifford(seed)
        qubits = list(circuit.measured_qubits)
        windows = [
            [
                int(q)
                for q in rng.choice(
                    qubits, int(rng.integers(1, min(4, len(qubits)) + 1)), replace=False
                )
            ]
            for _ in range(int(rng.integers(1, 7)))
        ]
        got = _sim(seed, shots, tomography, prune).marginal_probabilities(
            circuit, windows
        )
        want = oracle_marginal_probabilities(
            _sim(seed, shots, tomography, prune), circuit, windows
        )
        assert len(got) == len(want)
        assert all(_same_bytes(g, w) for g, w in zip(got, want))

    @given(**_CASES, prune=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_single_qubit_marginals(self, seed, shots, tomography, prune):
        circuit, _rng = _near_clifford(seed)
        got = _sim(seed, shots, tomography, prune).single_qubit_marginals(circuit)
        want = oracle_single_qubit_marginals(
            _sim(seed, shots, tomography, prune), circuit
        )
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(seed=st.integers(0, 10_000), shots=st.sampled_from([None, 300]))
    @settings(max_examples=15, deadline=None)
    def test_qaoa_edge_scorer(self, seed, shots):
        n = 4 + seed % 4
        circuit = near_clifford_qaoa(n, num_t=1 + seed % 2, rng=seed).measure_all()
        couplings = sk_model(n, seed)
        got = expected_cut_from_marginals(couplings, circuit, _sim(seed, shots, False))
        want = oracle_expected_cut_from_marginals(
            couplings, circuit, _sim(seed, shots, False)
        )
        assert type(got) is type(want) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @given(**_CASES)
    @settings(max_examples=25, deadline=None)
    def test_sparse_probabilities(self, seed, shots, tomography):
        circuit, rng = _near_clifford(seed)
        qubits = list(circuit.measured_qubits)
        keep = None
        if rng.random() < 0.5:
            width = int(rng.integers(1, len(qubits) + 1))
            keep = [int(q) for q in rng.choice(qubits, width, replace=False)]
        sampling = _sampling(seed, shots, tomography)
        got = SuperSim(sampling=sampling).sparse_probabilities(circuit, keep)
        want = oracle_sparse_probabilities(SuperSim(sampling=sampling), circuit, keep)
        assert _same_bytes(got, want)

    @given(**_CASES)
    @settings(max_examples=25, deadline=None)
    def test_probability_of(self, seed, shots, tomography):
        circuit, rng = _near_clifford(seed)
        bits = [int(b) for b in rng.integers(0, 2, len(circuit.measured_qubits))]
        sampling = _sampling(seed, shots, tomography)
        got = SuperSim(sampling=sampling).probability_of(circuit, bits)
        want = oracle_probability_of(SuperSim(sampling=sampling), circuit, bits)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @given(**_CASES, default_window=st.booleans(), prune=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_windowed_run(self, seed, shots, tomography, default_window, prune):
        circuit, rng = _near_clifford(seed)
        qubits = list(circuit.measured_qubits)
        width = int(rng.integers(1, min(4, len(qubits)) + 1))
        window = [int(q) for q in rng.choice(qubits, width, replace=False)]
        windowed = ReconstructionConfig(
            mode="windowed",
            window=None if default_window else tuple(window),
            qubit_limit=width,
        )
        got = _sim(seed, shots, tomography, prune, reconstruction=windowed).run(
            circuit
        )
        distribution, raw, stats = oracle_windowed_run(
            _sim(seed, shots, tomography, prune, reconstruction=windowed), circuit
        )
        assert _same_bytes(got.distribution, distribution)
        assert _same_bytes(got.raw_distribution, raw)
        assert got.stats == stats
        assert len(got.marginals) == 1 and got.marginals[0] is got.distribution
