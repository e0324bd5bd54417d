"""The four ledger workloads.

Every workload generates its inputs from the seed, drives the system
through public entry points only, and checks its own outputs.  An *op*
is the unit a user waits for; ``README.md`` says why each workload
exists and which layer it stresses or bypasses.

Set-up has two parts: ``prepare()`` (inputs and reference results, once)
and ``start()`` (start the system and warm it; repeatable after
``stop()``).  The three local workloads expose ``ops()`` — an endless
iterator whose every ``next()`` is one op — and ``measure()`` times each;
the service workload runs concurrent closed-loop clients and overrides
``measure()``.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analysis import hellinger_fidelity, mean_marginal_fidelity
from repro.analysis.distributions import Distribution, marginal_fidelity_from_arrays
from repro.apps.hwea import HWEA
from repro.circuits import Circuit, gates
from repro.core import ReconstructionConfig, SamplingConfig, SuperSim
from repro.service import Coordinator, ServiceClient

from benchmarks.ledger import service_probe
from benchmarks.ledger.proctree import ProcessTree
from benchmarks.ledger.refclock import RefClock

LEDGER_DIR = Path(__file__).resolve().parent
OUT_DIR = LEDGER_DIR / "_out"
SRC_DIR = LEDGER_DIR.parents[1] / "src"


@dataclass(frozen=True)
class Scale:
    """Problem sizes: the real ledger, or the tier-1 smoke test's."""

    hwea_qubits: int = 200
    sweep_points: int = 80
    sweep_warmup_points: int = 4
    chain_qubits: int = 61
    service_points: int = 25
    service_warmup_points: int = 6
    cold_min_ops: int = 3
    sweep_min_ops: int = 8


FULL = Scale()
SMOKE = Scale(
    hwea_qubits=50,
    sweep_points=8,
    sweep_warmup_points=2,
    chain_qubits=31,
    service_points=10,
    service_warmup_points=2,
    cold_min_ops=2,
)


@dataclass
class Measurement:
    """What one measured phase produced."""

    op_s: list[float]
    wall_s: float  # the ops' own wall time: reference ticks between them excluded
    cpu_s: float
    outputs: list
    norm: float  # x this = seconds at nominal host speed (see refclock)
    failed: int = 0


@dataclass
class Verdict:
    """Outcome of checking one phase's outputs against the references."""

    failed: int
    fidelity_min: float
    notes: list[str]


def _same_distribution(a: Distribution, b: Distribution) -> bool:
    return (
        a.n_bits == b.n_bits
        and np.array_equal(a.keys_array, b.keys_array)
        and np.array_equal(a.values_array, b.values_array)
    )


class Workload:
    """Interface the runner drives; see the module docstring."""

    name = "workload"
    #: fewest ops a measured phase may stop at
    min_ops = 1

    def __init__(self, seed: int, scale: Scale, tracer):
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self.ref = RefClock()

    def prepare(self) -> None:
        """Generate the inputs and the reference results (once per run)."""

    def start(self) -> None:
        """Start the system under test and warm it up."""

    def stop(self) -> None:
        """Stop whatever ``start`` started."""

    def start_tracing(self) -> None:
        """Called once, between the untraced and the traced phase."""

    def ops(self):
        """Endless iterator; every ``next()`` performs one op."""
        raise NotImplementedError

    def measure(self, seconds: float, first_op: int = 0) -> Measurement:
        """Run ops for ``seconds`` (at least ``min_ops``), timing each."""
        tree = self.tree()
        stream = self.ops()
        op_s, outputs = [], []
        first_tick = len(self.ref.ticks)
        cpu = -tree.cpu_seconds()
        begin = time.perf_counter()
        while True:
            cpu += tree.cpu_seconds()
            self.ref.tick_if_due()
            cpu -= tree.cpu_seconds()
            start = time.perf_counter()
            with self.tracer.span("op", op=first_op + len(op_s)):
                output = next(stream)
            now = time.perf_counter()
            op_s.append(now - start)
            outputs.append(output)
            if now - begin >= seconds and len(op_s) >= self.min_ops:
                break
        cpu += tree.cpu_seconds()
        stream.close()
        self.ref.tick()
        return Measurement(op_s, sum(op_s), cpu, outputs, self.ref.scale(first_tick))

    def extra_metrics(self, traced: Measurement) -> dict:
        """Per-layer metrics only this workload can supply (called after
        ``verify``, before ``stop``)."""
        return {}

    def remote_work(self):
        """``(kernels, backends)`` run in other processes during the traced
        phase: name -> (calls, seconds).  Valid after ``extra_metrics``."""
        return {}, {}

    def verify(self, outputs: list) -> Verdict:
        raise NotImplementedError

    def probe_case(self):
        """``(circuit, sampling, reconstruction, keep_qubits)`` of one
        representative op, for the traced run's estimate / warm-cache probes."""
        raise NotImplementedError

    def tree(self) -> ProcessTree:
        """The processes whose CPU and memory an op is charged with."""
        return ProcessTree([])


# -- hwea200_cold ---------------------------------------------------------------


class HweaCold(Workload):
    """Paper Fig. 5 shape: one cold single-qubit-marginals request."""

    name = "hwea200_cold"
    SHOTS = 5000
    #: 5000 shots put a single-qubit marginal within ~1e-4 of exact
    FIDELITY_FLOOR = 0.999

    def __init__(self, seed, scale, tracer):
        super().__init__(seed, scale, tracer)
        self.min_ops = scale.cold_min_ops
        self.sampling = SamplingConfig(shots=self.SHOTS, seed=seed)

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        ansatz = HWEA(self.scale.hwea_qubits, 5)
        while True:
            circuit = ansatz.near_clifford_instance(num_t=1, rng=rng).measure_all()
            # a T gate drawn into the last layer needs one cut, not two, and
            # a quarter of the variant jobs: keep the shape the same on
            # every seed by redrawing until the T sits inside the circuit
            if SuperSim().plan(circuit).num_cuts == 2:
                break
        self.circuit = circuit
        self.reference = SuperSim().single_qubit_marginals(circuit)

    def start(self) -> None:
        next(self.ops())

    def ops(self):
        while True:
            sim = SuperSim(sampling=self.sampling)
            marginals = sim.single_qubit_marginals(self.circuit)
            del sim
            # each request pays for collecting its own garbage, so a full
            # collection never lands on a neighbouring op
            gc.collect()
            yield marginals

    def verify(self, outputs) -> Verdict:
        failed, worst, notes = 0, 1.0, []
        for index, marginals in enumerate(outputs):
            fidelity = marginal_fidelity_from_arrays(marginals, self.reference)
            worst = min(worst, fidelity)
            if not np.allclose(marginals.sum(axis=1), 1.0, atol=1e-9):
                failed += 1
                notes.append(f"op {index}: a marginal row does not sum to 1")
            elif fidelity < self.FIDELITY_FLOOR:
                failed += 1
                notes.append(f"op {index}: marginal fidelity {fidelity:.6f}")
        return Verdict(failed, worst, notes)

    def probe_case(self):
        return self.circuit, self.sampling, None, None


# -- hwea_sweep -----------------------------------------------------------------


class HweaSweep(Workload):
    """The §VII VQE loop: one rotation of the ansatz swept over many angles."""

    name = "hwea_sweep"
    SHOTS = 5000
    WINDOW = 12
    #: per-qubit marginals of the window are pinned tightly by 5000 shots ...
    MARGINAL_FLOOR = 0.999
    #: ... the joint over 2**12 bins is not: ~0.6 is what shot noise leaves
    WINDOW_FLOOR = 0.5
    #: reference angles 2/3 of a turn apart (none a Clifford point)
    REFERENCE_ANGLES = (0.2, 0.2 + 2.0 / 3.0, 0.2 + 4.0 / 3.0)

    def __init__(self, seed, scale, tracer):
        super().__init__(seed, scale, tracer)
        self.min_ops = scale.sweep_min_ops
        self.sampling = SamplingConfig(shots=self.SHOTS, seed=seed)

    def _factory(self, theta: float) -> Circuit:
        with self.tracer.span("circuits.build"):
            params = self.base.copy()
            params[self.swept] = theta
            return self.ansatz.circuit(params).measure_all()

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        n = self.scale.hwea_qubits
        self.ansatz = HWEA(n, 5)
        self.base = rng.integers(0, 4, size=self.ansatz.num_parameters) * 0.5
        half = self.WINDOW // 2
        qubit = int(rng.integers(half, n - half))
        layer = int(rng.integers(1, 4))
        # the first-layer Y exponent of `qubit` in round `layer`
        self.swept = layer * 4 * n + 2 * qubit
        self.window = list(range(qubit - half, qubit + half))
        points = self.scale.sweep_points
        turns = rng.integers(0, 4, size=points) * 0.5
        self.angles = [
            float(a) for a in turns + rng.uniform(0.02, 0.48, size=points)
        ]
        self._exact_basis = self._trig_basis()

    def start(self) -> None:
        warm = SuperSim(sampling=self.sampling)
        for _ in warm.sweep(
            self._factory,
            self.angles[: self.scale.sweep_warmup_points],
            keep_qubits=self.window,
        ):
            pass

    def _trig_basis(self) -> np.ndarray:
        """Exact window distributions at every angle from three exact runs.

        One rotated gate makes every outcome probability a first-order
        trigonometric polynomial ``a + b cos(pi t) + c sin(pi t)`` of the
        swept exponent ``t``, so exact-mode results at three angles
        determine the exact distribution at all of them.
        """
        sim = SuperSim()
        rows = np.stack(
            [
                point.distribution.to_array()
                for point in sim.sweep(
                    self._factory, self.REFERENCE_ANGLES, keep_qubits=self.window
                )
            ]
        )
        design = np.array(
            [
                [1.0, np.cos(np.pi * t), np.sin(np.pi * t)]
                for t in self.REFERENCE_ANGLES
            ]
        )
        return np.linalg.solve(design, rows)

    def exact(self, theta: float) -> Distribution:
        weights = np.array([1.0, np.cos(np.pi * theta), np.sin(np.pi * theta)])
        return Distribution.from_array(np.clip(weights @ self._exact_basis, 0.0, None))

    def ops(self):
        while True:
            sim = SuperSim(sampling=self.sampling)
            for point in sim.sweep(self._factory, self.angles, keep_qubits=self.window):
                yield point.params, point.distribution

    def verify(self, outputs) -> Verdict:
        failed, worst, notes = 0, 1.0, []
        for index, (theta, got) in enumerate(outputs):
            exact = self.exact(theta)
            window = hellinger_fidelity(exact, got)
            marginal = mean_marginal_fidelity(exact, got)
            worst = min(worst, window)
            if (
                abs(got.total() - 1.0) > 1e-9
                or window < self.WINDOW_FLOOR
                or marginal < self.MARGINAL_FLOOR
            ):
                failed += 1
                notes.append(
                    f"op {index} (angle {theta:.4f}): window fidelity "
                    f"{window:.4f}, marginal fidelity {marginal:.6f}"
                )
        # a sweep point must be bit-identical to an independent seeded run
        spot = SuperSim(sampling=self.sampling)
        for index in sorted({0, len(outputs) // 2, len(outputs) - 1}):
            theta, got = outputs[index]
            alone = spot.run(self._factory(theta), keep_qubits=self.window)
            if not _same_distribution(alone.distribution, got):
                failed += 1
                notes.append(f"op {index}: differs from an independent seeded run()")
        return Verdict(failed, worst, notes)

    def probe_case(self):
        return self._factory(self.angles[0]), self.sampling, None, self.window


# -- wide61_recursive -------------------------------------------------------------


class WideRecursive(Workload):
    """Wide-output mode: a chain too wide for any dense accumulator."""

    name = "wide61_recursive"
    RECONSTRUCTION = ReconstructionConfig(qubit_limit=12, top_k=64)

    def __init__(self, seed, scale, tracer):
        super().__init__(seed, scale, tracer)
        self.min_ops = scale.cold_min_ops

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        n = self.scale.chain_qubits
        # two non-Clifford gates, each a few qubits either side of the
        # middle: 4 cuts, 3 fragments.  (A third gate ran the seed out of
        # memory on a 16 GiB host.)
        middle = n // 2
        positions = (
            middle - 1 - int(rng.integers(0, 5)),
            middle + 1 + int(rng.integers(0, 5)),
        )
        circuit = Circuit(n).append(gates.H, 0)
        for q in range(n - 1):
            circuit.append(gates.CX, q, q + 1)
        for q in positions:
            circuit.append(gates.XPow(0.25), q)
        for q in range(0, n - 1, 2):
            circuit.append(gates.CX, q, q + 1)
        self.circuit = circuit.measure_all()
        self.reference = SuperSim().single_qubit_marginals(self.circuit)

    def start(self) -> None:
        next(self.ops())

    def ops(self):
        while True:
            sim = SuperSim(reconstruction=self.RECONSTRUCTION)
            result = sim.run(self.circuit)
            output = (result.distribution, result.stats)
            del sim, result
            gc.collect()  # as in HweaCold.ops
            yield output

    def verify(self, outputs) -> Verdict:
        failed, worst, notes = 0, 1.0, []
        for index, (distribution, stats) in enumerate(outputs):
            marginals = distribution.single_bit_marginals()
            error = float(np.abs(marginals - self.reference).max())
            worst = min(
                worst,
                stats.covered_probability,
                marginal_fidelity_from_arrays(marginals, self.reference),
            )
            if stats.mode != "recursive":
                failed += 1
                notes.append(f"op {index}: ran {stats.mode}, not recursive")
            elif stats.covered_probability < 1.0 - 1e-6 or error > 1e-9:
                failed += 1
                notes.append(
                    f"op {index}: covered {stats.covered_probability:.9f}, "
                    f"marginal error {error:.2e}"
                )
        return Verdict(failed, worst, notes)

    def probe_case(self):
        return self.circuit, None, self.RECONSTRUCTION, None


# -- service_sweep ----------------------------------------------------------------


def angle_sweep_circuit(theta: float) -> Circuit:
    """The service soak's 10-qubit angle sweep (benchmarks/soak_service.py)."""
    n = 10
    circuit = Circuit(n).append(gates.H, 0)
    for q in range(n - 1):
        circuit.append(gates.CX, q, q + 1)
    circuit.append(gates.ZPow(theta), n // 2)
    for q in range(n - 1, 0, -1):
        circuit.append(gates.CX, q - 1, q)
    return circuit.append(gates.H, 0)


class ServiceSweep(Workload):
    """Closed loop: 2 clients, each waiting for a sweep's last point
    before sending the next sweep, against a coordinator and 2 workers."""

    name = "service_sweep"
    CLIENTS = 2  # = nproc on the reference host; one outstanding request each
    WORKERS = 2
    SHOTS = 1000

    def __init__(self, seed, scale, tracer):
        super().__init__(seed, scale, tracer)
        self.min_ops = self.CLIENTS * scale.service_points
        self.sampling = SamplingConfig(shots=self.SHOTS, seed=seed)
        self.offset = float(np.random.default_rng(seed).uniform(0.0, 1e-4))
        self.traced = False
        self.coordinator = None
        self.workers: list[subprocess.Popen] = []
        self.tmp: str | None = None
        self.recorders: list[service_probe.RecordingTransport] = []
        self.local_op_s: list[float] = []
        self.worker_summaries: list[dict] = []

    # -- inputs ------------------------------------------------------------------

    def grid(self, client: int, request: int) -> list[float]:
        """One request's angles: half shared by every client's request of
        this number, half private.  Every angle of a run is distinct, so
        the coordinator's 4096-entry cache tier overflows and evicts."""
        points = self.scale.service_points
        shared = points // 2
        private = points - shared
        grid = [
            0.05 + ((request * shared + i) * 0.000137 + self.offset) % 0.4
            for i in range(shared)
        ]
        grid += [
            0.55
            + (((client + 1) * 100_003 + request * private + i) * 0.000131 + self.offset)
            % 0.4
            for i in range(private)
        ]
        return [round(theta, 9) for theta in grid]

    # -- the service ---------------------------------------------------------------

    def start(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="service-", dir=OUT_DIR)
        self.coordinator = Coordinator(
            journal=os.path.join(self.tmp, "journal.db"),
            # rates no request can exhaust: pricing, token accounting and
            # quota journaling all run, nothing is ever refused
            quota_rate=1e12,
            quota_capacity=1e12,
        )
        address = self.coordinator.start_in_thread()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        for index in range(self.WORKERS):
            name = f"ledger-w{index}"
            if self.traced:
                command = [
                    sys.executable,
                    str(LEDGER_DIR / "traced_worker.py"),
                    "--connect", address,
                    "--name", name,
                    "--out", os.path.join(self.tmp, f"{name}.json"),
                    "--trace-out", str(OUT_DIR / f"trace-{self.name}-{name}.jsonl"),
                ]
            else:
                command = [
                    sys.executable, "-m", "repro.service.worker",
                    "--connect", address, "--slots", "1", "--name", name,
                ]
            self.workers.append(subprocess.Popen(command, env=env))
        deadline = time.monotonic() + 60.0
        with ServiceClient(address) as probe:
            while len(probe.stats()["workers"]) < self.WORKERS:
                if time.monotonic() > deadline:
                    raise RuntimeError("workers did not join within 60 s")
                time.sleep(0.01)
        with self._client(self.CLIENTS, record=False) as client:
            # request -1: angles no measured request will ask for
            warm = self.grid(self.CLIENTS, -1)[: self.scale.service_warmup_points]
            for _ in client.sweep(angle_sweep_circuit, warm):
                pass

    def _client(self, index: int, record: bool = True) -> ServiceClient:
        factory = None
        if self.traced and record:
            address = self.coordinator.address

            def factory():
                recorder = service_probe.RecordingTransport(address, self.tracer)
                self.recorders.append(recorder)
                return recorder

        return ServiceClient(
            self.coordinator.address,
            sampling=self.sampling,
            tenant=f"tenant-{index}",
            transport_factory=factory,
        )

    def stop(self) -> None:
        if self.coordinator is not None:
            self.coordinator.shutdown()
            self.coordinator = None
        for worker in self.workers:
            try:
                worker.wait(timeout=15)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait(timeout=15)
        self.workers = []
        if self.tmp is not None and not self.traced:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def start_tracing(self) -> None:
        """Restart the fleet with recording workers and client transports."""
        self.stop()
        self.traced = True
        self.start()

    def tree(self) -> ProcessTree:
        return ProcessTree([worker.pid for worker in self.workers])

    # -- measurement -----------------------------------------------------------------

    def measure(self, seconds: float, first_op: int = 0) -> Measurement:
        """Both clients issue sweeps until ``seconds`` have passed."""
        tree = self.tree()
        points = self.scale.service_points
        barrier = threading.Barrier(self.CLIENTS + 1)
        latencies: list[list[float]] = [[] for _ in range(self.CLIENTS)]
        outputs: list[list] = [[] for _ in range(self.CLIENTS)]
        errors: list[BaseException] = []
        deadline = [float("inf")]

        def run_client(index: int) -> None:
            try:
                with self._client(index) as client:
                    barrier.wait(timeout=60)
                    request = 0
                    while request == 0 or time.perf_counter() < deadline[0]:
                        grid = self.grid(index, request)
                        last = time.perf_counter()
                        stream = client.sweep(angle_sweep_circuit, grid)
                        for slot in range(points):
                            # op ids unique across clients and requests
                            op = first_op + (request * self.CLIENTS + index) * points + slot
                            with self.tracer.span("op", op=op):
                                point = next(stream)
                            now = time.perf_counter()
                            latencies[index].append(now - last)
                            last = now
                            outputs[index].append(
                                (index, point.params, point.distribution)
                            )
                        for _ in stream:  # consume the sweep_done frame
                            pass
                        request += 1
            except Exception as exc:  # counted as a failed op by the caller
                errors.append(exc)
                barrier.abort()

        threads = [
            threading.Thread(target=run_client, args=(i,), name=f"client-{i}")
            for i in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        self.stats_before = self.coordinator.stats()
        cpu0 = tree.cpu_seconds()
        start = time.perf_counter()
        deadline[0] = start + seconds
        try:
            barrier.wait(timeout=60)
        except threading.BrokenBarrierError:
            pass  # a client failed to connect; its error is in `errors`
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        cpu = tree.cpu_seconds() - cpu0
        self.stats_after = self.coordinator.stats()
        for exc in errors:
            print(f"service_sweep client failed: {exc!r}", file=sys.stderr)
        return Measurement(
            op_s=[t for per_client in latencies for t in per_client],
            wall_s=wall,
            cpu_s=cpu,
            outputs=[o for per_client in outputs for o in per_client],
            # interpreter- and wakeup-bound: point latency does not follow the
            # cache-sensitive reference kernel (over 10 runs the raw spread
            # was 7 %, the "normalised" one 15 %), and ticking would fight the
            # service for the two cores: seconds stay as measured
            norm=1.0,
            failed=len(errors),
        )

    # -- correctness -----------------------------------------------------------------

    def verify(self, outputs) -> Verdict:
        """Every point bit-identical to one local seeded sweep; angles two
        tenants share identical between them."""
        distinct = sorted({theta for _client, theta, _dist in outputs})
        self.local_op_s = []
        local: dict[float, Distribution] = {}
        sim = SuperSim(sampling=self.sampling)
        last = time.perf_counter()
        for point in sim.sweep(angle_sweep_circuit, distinct):
            now = time.perf_counter()
            self.local_op_s.append(now - last)
            last = now
            local[point.params] = point.distribution
        failed, worst, notes = 0, 1.0, []
        seen: dict[float, Distribution] = {}
        for client, theta, distribution in outputs:
            worst = min(worst, hellinger_fidelity(local[theta], distribution))
            if not _same_distribution(local[theta], distribution):
                failed += 1
                notes.append(
                    f"tenant-{client} angle {theta}: differs from the local sweep"
                )
            elif not _same_distribution(seen.setdefault(theta, distribution), distribution):
                failed += 1
                notes.append(f"angle {theta}: tenants disagree")
        return Verdict(failed, worst, notes)

    def probe_case(self):
        return angle_sweep_circuit(self.grid(0, 0)[0]), self.sampling, None, None

    # -- traced-run extras -------------------------------------------------------------

    def _estimate_rtt(self, repeats: int = 5) -> float:
        """Median round trip of ``ServiceClient.estimate``."""
        circuit = self.probe_case()[0]
        times = []
        with self._client(self.CLIENTS, record=False) as client:
            for _ in range(repeats):
                start = time.perf_counter()
                client.estimate(circuit)
                times.append(time.perf_counter() - start)
        return statistics.median(times)

    def remote_work(self):
        kernels: dict[str, tuple[int, float]] = {}
        backends: dict[str, tuple[int, float]] = {}
        for worker in self.worker_summaries:
            for name, (calls, seconds) in worker["kernels"].items():
                had = kernels.get(name, (0, 0.0))
                kernels[name] = (had[0] + calls, had[1] + seconds)
            for name, (jobs, seconds) in worker["backends"].items():
                had = backends.get(name, (0, 0.0))
                backends[name] = (had[0] + jobs, had[1] + seconds)
        return kernels, backends

    def extra_metrics(self, traced: Measurement) -> dict:
        rtt = self._estimate_rtt()
        # the recording workers write their summaries as they exit
        self.stop()
        workers = self.worker_summaries = [
            json.loads((Path(self.tmp) / f"ledger-w{i}.json").read_text())
            for i in range(self.WORKERS)
        ]
        ops = len(traced.op_s)
        ordered = sorted(traced.op_s)
        service_p50 = statistics.median(ordered)
        local_p50 = statistics.median(self.local_op_s)
        before, after = self.stats_before, self.stats_after

        def delta(*path):
            a, b = before, after
            for key in path:
                a, b = a[key], b[key]
            return b - a

        lookups = delta("cache", "hits") + delta("cache", "misses")
        frames = [f for recorder in self.recorders for f in recorder.frames]
        codec = service_probe.codec_costs(frames)
        journal = service_probe.journal_costs(self.tmp, "tenant-0")
        shutil.rmtree(self.tmp, ignore_errors=True)
        jobs = sum(w["jobs"] for w in workers)
        return {
            "service.local_op_s_p50": local_p50,
            "service.overhead_share": 1.0 - local_p50 / service_p50,
            "service.jobs_per_op": (delta("jobs_dispatched") + delta("jobs_local")) / ops,
            "service.cache_hit_share": delta("cache", "hits") / lookups if lookups else 0.0,
            "service.cache_evictions_per_op": delta("cache", "evictions") / ops,
            "service.op_s_p95": percentile(ordered, 0.95),
            "service.op_s_p99": percentile(ordered, 0.99),
            "service.estimate_rtt_s": rtt,
            "client.frames_per_op": len(frames) / ops,
            "client.wire_bytes_per_op": codec["bytes"] * len(frames) / ops,
            "client.wait_s_per_op": sum(
                f.end - f.start for f in frames if f.direction == "recv"
            ) / ops,
            "worker.run_s_per_job": sum(w["run_s"] for w in workers) / jobs,
            "worker.busy_share": sum(w["run_s"] for w in workers)
            / sum(w["window_s"] for w in workers),
            "worker.wire_bytes_per_job": sum(w["wire_bytes"] for w in workers) / jobs,
            "protocol.encode_s_per_frame": codec["encode_s"],
            "protocol.decode_s_per_frame": codec["decode_s"],
            "protocol.pickle_frame_share": codec["pickle_share"],
            "journal.record_request_s": journal["record_request_s"],
            "journal.record_reply_s": journal["record_reply_s"],
            "journal.bytes_per_request": journal["bytes_per_request"],
        }


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


WORKLOADS = {
    cls.name: cls for cls in (HweaCold, HweaSweep, WideRecursive, ServiceSweep)
}
