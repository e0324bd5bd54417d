"""Service suite: the distributed coordinator/worker/client stack.

The service's headline invariant mirrors the engine's: a seeded run
through a coordinator and real worker subprocesses is **bit-for-bit**
identical to a local ``SuperSim`` run — including under chaos that
``os._exit``s a worker mid-batch (the faults land in the ledger, the
numbers never move).  Around that invariant: the wire protocol, the
token-bucket admission control with 429-style rejections, per-worker
back-pressure bounds, the shared variant cache across clients, and
the lifecycle satellites (``SuperSim.close()``, ``CostEstimate``
round-trips, unbound-plan pickling).
"""

import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.backends import VariantCache
from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.core import (
    ExecutionConfig,
    ReconstructionConfig,
    SamplingConfig,
    SuperSim,
)
from repro.core.fragments import Cut
from repro.core.plan import CostEstimate
from repro.errors import (
    BackendExecutionError,
    JobTimeoutError,
    QuotaExceededError,
)
from repro.service import Coordinator, ServiceClient, run_worker
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.protocol import (
    TcpTransport,
    connect,
    encode_frame,
    parse_address,
)
from repro.testing import ChaosSchedule

SRC = str(Path(__file__).resolve().parents[1] / "src")


# -- circuit factories -------------------------------------------------------


def rotated_chain(t: float, n: int = 8) -> Circuit:
    c = Circuit(n)
    for i in range(n):
        c.append(gates.H, i)
    for i in range(n - 1):
        c.append(gates.CX, i, i + 1)
    c.append(gates.ZPow(t), n // 2)
    c.measure_all()
    return c


def wide_chain(n: int) -> Circuit:
    """GHZ chain with one XPow(1/4): 4-outcome support at any width."""
    circuit = Circuit(n).append(gates.H, 0)
    for q in range(n - 1):
        circuit.append(gates.CX, q, q + 1)
    circuit.append(gates.XPow(0.25), n // 2)
    return circuit


# -- fleet plumbing ----------------------------------------------------------


def spawn_workers(address: str, n: int, slots: int = 2) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    return [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service.worker",
                "--connect",
                address,
                "--slots",
                str(slots),
                "--name",
                f"w{i}",
            ],
            env=env,
        )
        for i in range(n)
    ]


def wait_for_workers(address: str, n: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    with ServiceClient(address) as probe:
        while time.monotonic() < deadline:
            if len(probe.stats()["workers"]) >= n:
                return
            time.sleep(0.05)
    raise AssertionError(f"{n} workers never registered within {timeout}s")


def stop_workers(workers, timeout: float = 10.0) -> None:
    for worker in workers:
        try:
            worker.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait(timeout=timeout)


class Fleet:
    """One coordinator plus worker subprocesses, torn down deterministically."""

    def __init__(self, n_workers: int = 2, slots: int = 2, **coordinator_kwargs):
        self.coordinator = Coordinator(**coordinator_kwargs)
        self.address = self.coordinator.start_in_thread()
        self.workers = spawn_workers(self.address, n_workers, slots=slots)
        if n_workers:
            wait_for_workers(self.address, n_workers)

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient(self.address, **kwargs)

    def close(self) -> None:
        self.coordinator.shutdown()
        stop_workers(self.workers)

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


@pytest.fixture(scope="module")
def fleet():
    """The module-wide fleet: one coordinator, two 2-slot workers."""
    f = Fleet(n_workers=2)
    yield f
    f.close()


# -- wire protocol -----------------------------------------------------------


def test_transport_roundtrip_json_and_pickle():
    a, b = socket.socketpair()
    ta, tb = TcpTransport(a), TcpTransport(b)
    try:
        ta.send({"type": "hello", "n": 3})  # JSON-safe
        assert tb.recv() == {"type": "hello", "n": 3}
        payload = {"type": "data", "key": ("fp", 1, None), "arr": b"\x00\xff"}
        tb.send(payload)  # tuples/bytes force the pickle codec
        assert ta.recv() == payload
    finally:
        ta.close()
        tb.close()


def test_transport_eof_and_frame_tags():
    a, b = socket.socketpair()
    ta, tb = TcpTransport(a), TcpTransport(b)
    ta.close()
    assert tb.recv() is None  # clean EOF on a frame boundary
    tb.close()
    assert encode_frame({"x": 1})[0] == 1  # JSON tag
    assert encode_frame({"x": (1,)})[0] == 2  # pickle tag
    assert parse_address("127.0.0.1:99") == ("127.0.0.1", 99)
    with pytest.raises(ValueError):
        parse_address("nocolon")


# -- admission control -------------------------------------------------------


def test_token_bucket_burst_debt_and_retry_after():
    clock = [0.0]
    bucket = TokenBucket(rate=2.0, capacity=10.0, clock=lambda: clock[0])
    # a request dearer than capacity admits on a full bucket (burst)...
    ok, _ = bucket.admit(25.0)
    assert ok
    # ...and leaves debt that rejects the follow-up with a refill hint
    ok, retry_after = bucket.admit(4.0)
    assert not ok
    assert retry_after == pytest.approx((4.0 - (-15.0)) / 2.0)
    clock[0] += retry_after
    ok, _ = bucket.admit(4.0)
    assert ok
    stats = bucket.stats()
    assert stats["admitted"] == 2 and stats["rejected"] == 1


def test_admission_controller_isolates_tenants():
    clock = [0.0]
    ctl = AdmissionController(rate=1.0, capacity=1.0, clock=lambda: clock[0])
    assert ctl.admit("a", 50.0) == (True, 0.0)
    ok, retry_after = ctl.admit("a", 1.0)
    assert not ok and retry_after > 0
    assert ctl.admit("b", 1.0)[0]  # tenant b has its own bucket
    assert AdmissionController().admit("anyone", 1e9)[0]  # disabled admits all


# -- the shared variant cache ----------------------------------------------


def clifford_fragment_value():
    """``(key, value)`` of one Clifford fragment job: the Pauli map of a
    64-qubit body with 12 variants, its images ``65`` rows of ``64`` bits."""
    from repro.core.evaluator import FragmentEvaluator, _execute_job
    from repro.core.fragments import Fragment

    n = 64
    body = Circuit(n)
    for q in range(n):
        body.append(gates.H, q)
    for q in range(0, n - 1, 2):
        body.append(gates.CX, q, q + 1)
    fragment = Fragment(
        index=0,
        circuit=body,
        quantum_inputs=[(0, 0)],
        quantum_outputs=[(1, n - 1)],
        circuit_outputs=[(q, q) for q in range(n - 1)],
    )
    _assignments, jobs = FragmentEvaluator()._build_jobs([fragment], 0)
    ((key, job),) = jobs.items()
    return key, _execute_job(job)


def test_the_byte_gauge_counts_the_images_of_a_fragment_value():
    from repro.backends import approx_result_bytes
    from repro.stabilizer.tableau import PauliMap

    key, value = clifford_fragment_value()
    assert isinstance(value, PauliMap)
    arrays = value.x.nbytes + value.z.nbytes + value.sign.nbytes
    assert arrays == 2 * 65 * 8 + 65
    assert approx_result_bytes(value) >= arrays
    cache = VariantCache()
    cache.put(key, value)
    assert cache.stats()["bytes"] >= arrays


def test_a_fragment_value_crosses_the_wire_intact():
    """A worker ships a Clifford fragment's Pauli map back in a pickled
    ``job_result`` frame; what the coordinator reads off the stream is
    the same map, array for array, and caches under the same key."""
    import asyncio

    from repro.service.protocol import read_message

    key, value = clifford_fragment_value()
    frame = encode_frame({"type": "job_result", "key": key, "value": value})

    async def receive():
        reader = asyncio.StreamReader()
        reader.feed_data(frame)
        reader.feed_eof()
        return await read_message(reader)

    message = asyncio.run(receive())
    got = message["value"]
    assert message["key"] == key
    assert type(got) is type(value)
    assert (got.n, got.inputs, got.outputs) == (value.n, value.inputs, value.outputs)
    for name in ("x", "z", "sign"):
        assert getattr(got, name).tobytes() == getattr(value, name).tobytes()
    cache = VariantCache()
    cache.put(message["key"], got)
    assert cache.get(key) is got


def test_concurrent_clients_keep_the_shared_cache_counts_whole():
    """The coordinator shares one ``VariantCache`` across request threads:
    every lookup lands as exactly one hit or miss, entries never exceed
    ``maxsize``, and the byte gauge matches the live entries."""
    cache = VariantCache(maxsize=16)
    lookups_per_thread, n_threads = 400, 4

    def client(seed):
        rng = np.random.default_rng(seed)
        for k in rng.integers(0, 32, size=lookups_per_thread):
            if cache.get((int(k),)) is None:
                cache.put((int(k),), np.zeros(8 + int(k), dtype=np.uint8))

    threads = [threading.Thread(target=client, args=(s,)) for s in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == lookups_per_thread * n_threads
    assert stats["entries"] == len(cache) <= 16
    live = VariantCache(maxsize=16)
    for k in range(32):
        if (k,) in cache:
            live.put((k,), np.zeros(8 + k, dtype=np.uint8))
    assert stats["bytes"] == live.stats()["bytes"]


def test_the_coordinator_cli_has_no_cache_db_flag(capsys):
    """``VariantCache`` is the one variant cache: the coordinator takes no
    second tier on its command line."""
    from repro.service.coordinator import main

    with pytest.raises(SystemExit) as refused:
        main(["--cache-db", "variants.db"])
    assert refused.value.code == 2
    assert "--cache-db" in capsys.readouterr().err


# -- bit-identity: service == local ------------------------------------------


def test_service_run_matches_local_exact(fleet):
    circuit = rotated_chain(0.37)
    local = SuperSim().run(circuit)
    with fleet.client() as client:
        remote = client.run(circuit)
    assert remote.distribution.probs == local.distribution.probs
    assert not remote.faults


def test_service_run_matches_local_sampled(fleet):
    sampling = SamplingConfig(shots=700, seed=17)
    circuit = rotated_chain(0.61)
    local = SuperSim(sampling=sampling).run(circuit)
    with fleet.client(sampling=sampling) as client:
        remote = client.run(circuit)
    assert remote.distribution.probs == local.distribution.probs


def test_service_wide_recursive_matches_local(fleet):
    reconstruction = ReconstructionConfig(qubit_limit=16, top_k=16)
    circuit = wide_chain(61)
    local = SuperSim(reconstruction=reconstruction).run(circuit)
    with fleet.client(reconstruction=reconstruction) as client:
        remote = client.run(circuit)
    assert remote.stats.mode == "recursive"
    assert remote.distribution.probs == local.distribution.probs


def test_service_sweep_matches_local(fleet):
    sampling = SamplingConfig(shots=300, seed=5)
    grid = [0.1, 0.25, 0.4]
    local_points = list(
        SuperSim(sampling=sampling).sweep(rotated_chain, grid)
    )
    with fleet.client(sampling=sampling) as client:
        remote_points = list(client.sweep(rotated_chain, grid))
    assert [p.params for p in remote_points] == grid
    for local_point, remote_point in zip(local_points, remote_points):
        assert remote_point.ok
        assert (
            remote_point.result.distribution.probs
            == local_point.result.distribution.probs
        )


def test_submit_poll_and_estimate(fleet):
    circuit = rotated_chain(0.81)
    with fleet.client() as client:
        quote = client.estimate(circuit)
        assert isinstance(quote, CostEstimate)
        assert quote.total_cost > 0 and quote.num_variants > 0
        ticket = client.submit(circuit)
        deadline = time.monotonic() + 60
        result = None
        while result is None and time.monotonic() < deadline:
            result = client.poll(ticket)
            if result is None:
                time.sleep(0.05)
        assert result is not None
        local = SuperSim().run(circuit)
        assert result.distribution.probs == local.distribution.probs


# -- admission + back-pressure through the service ---------------------------


def test_quota_rejection_with_retry_after():
    with Fleet(n_workers=0, quota_rate=1e-6, quota_capacity=1e-9) as fleet:
        sampling = SamplingConfig(shots=100, seed=1)
        with fleet.client(sampling=sampling) as client:
            client.run(rotated_chain(0.2))  # burst: first request admits
            with pytest.raises(QuotaExceededError) as info:
                client.run(rotated_chain(0.3))
            assert info.value.retry_after > 0
            assert info.value.estimate is not None
            assert info.value.estimate.total_cost > 0
            stats = client.stats()["admission"]
            assert stats["rejected"] == 1
        # a different tenant's bucket is untouched
        with fleet.client(tenant="other", sampling=sampling) as client:
            client.run(rotated_chain(0.2))


def test_backpressure_bounds_inflight_per_worker():
    # one 4-slot worker, but the coordinator only allows 1 in flight:
    # peak in-flight must respect the coordinator's bound, not the
    # worker's appetite
    with Fleet(n_workers=1, slots=4, max_inflight_per_worker=1) as fleet:
        with fleet.client(sampling=SamplingConfig(shots=200, seed=2)) as client:
            client.run(rotated_chain(0.33))
            stats = client.stats()
            worker_stats = list(stats["workers"].values())
            assert worker_stats, "worker vanished"
            assert worker_stats[0]["peak_inflight"] == 1
            assert stats["jobs_dispatched"] >= 4  # real queuing happened
            assert stats["jobs_completed"] == stats["jobs_dispatched"]


# -- fault tolerance ---------------------------------------------------------


def test_chaos_worker_exit_mid_batch_completes_with_fault_accounting():
    # the one job scheduled to crash is the Clifford fragment's
    chaos = ChaosSchedule(seed=3, crash_rate=0.2, fail_attempts=1)
    execution = ExecutionConfig(failure_policy="retry", chaos=chaos)
    sampling = SamplingConfig(shots=400, seed=3)
    circuit = rotated_chain(0.3)
    clean = SuperSim(sampling=sampling).run(circuit)
    with Fleet(n_workers=2) as fleet:
        with fleet.client(sampling=sampling, execution=execution) as client:
            result = client.run(circuit)
            stats = client.stats()
        # the numbers never move, even though a worker really died
        assert result.distribution.probs == clean.distribution.probs
        # ...and the ledger says exactly what happened
        assert result.faults.crashes >= 1
        assert stats["workers_lost"] >= 1
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            codes = [w.poll() for w in fleet.workers]
            if 17 in codes:  # the chaos harness's os._exit status
                break
            time.sleep(0.1)
        assert 17 in [w.poll() for w in fleet.workers]


def test_no_workers_degrades_to_local_with_fallback_events():
    sampling = SamplingConfig(shots=250, seed=13)
    circuit = rotated_chain(0.44)
    clean = SuperSim(sampling=sampling).run(circuit)
    with Fleet(n_workers=0) as fleet:
        with fleet.client(sampling=sampling) as client:
            result = client.run(circuit)
    assert result.distribution.probs == clean.distribution.probs
    assert result.faults.fallbacks >= 1
    details = [e.detail for e in result.faults.of_kind("fallback")]
    assert any("no live workers" in d for d in details)


# -- one failure policy, local and service -----------------------------------


def test_sampled_clifford_fragments_come_back_exact(fleet):
    # workers evaluate Clifford variants exactly in sampled mode too: an
    # all-Clifford request is the exact answer, bit for bit
    circuit = Circuit(6)
    for q in range(6):
        circuit.append(gates.H, q)
    for q in range(5):
        circuit.append(gates.CX, q, q + 1)
    circuit.append(gates.S, 3).append(gates.CX, 3, 4).measure_all()
    cuts = [Cut(3, 2), Cut(2, 2)]
    sampling = SamplingConfig(shots=100, seed=9)
    with fleet.client(sampling=sampling) as client:
        remote = client.run(circuit, cuts=cuts)
    local = SuperSim().run(circuit, cuts=cuts)
    assert remote.num_cuts == 2
    assert remote.distribution.probs == local.distribution.probs


def test_retry_fault_ledger_matches_local():
    # the same lifecycle decides locally and in the service, so a seeded
    # chaos run leaves the same ledger behind in both.  Both start from an
    # empty cache: exact Clifford jobs have seed-free keys, so a fleet that
    # other requests warmed would meet fewer of the scheduled faults
    chaos = ChaosSchedule(exception_rate=0.3, fail_attempts=2)
    execution = ExecutionConfig(
        failure_policy="retry", chaos=chaos, retry_backoff=0.0
    )
    sampling = SamplingConfig(shots=300, seed=4)
    circuit = rotated_chain(0.3)
    local = SuperSim(sampling=sampling, execution=execution).run(circuit)
    with Fleet(n_workers=2) as fleet, fleet.client(
        sampling=sampling, execution=execution
    ) as client:
        remote = client.run(circuit)
    assert remote.distribution.probs == local.distribution.probs
    # one of the five jobs is scheduled to fail, on both its first attempts
    assert remote.faults.summary() == local.faults.summary() == {"retry": 2}


def test_degrade_falls_back_to_coordinator_after_timeouts_exhaust(fleet):
    # every statevector job overruns its soft deadline on both of its
    # allowed attempts; degrade must then run it on the coordinator, as a
    # local degrade run falls back to the next backend — not raise
    chaos = ChaosSchedule(
        delay_rate=1.0,
        delay_seconds=0.6,
        fail_attempts=2,
        only_backends=("statevector",),
    )
    execution = ExecutionConfig(
        failure_policy="degrade", job_timeout=0.2, max_retries=1, chaos=chaos
    )
    sampling = SamplingConfig(shots=300, seed=21)  # not in the shared cache
    circuit = rotated_chain(0.3)
    clean = SuperSim(sampling=sampling).run(circuit)
    with fleet.client(sampling=sampling, execution=execution) as client:
        result = client.run(circuit)
    assert result.distribution.probs == clean.distribution.probs
    assert result.faults.timeouts >= 1
    fallbacks = result.faults.of_kind("fallback")
    assert fallbacks
    assert all("repeated soft-timeouts" in e.detail for e in fallbacks)


def test_raise_mode_timeout_carries_job_context(fleet):
    chaos = ChaosSchedule(delay_rate=1.0, delay_seconds=0.6)
    execution = ExecutionConfig(job_timeout=0.2, chaos=chaos)
    with fleet.client(execution=execution) as client:
        with pytest.raises(JobTimeoutError) as info:
            client.run(rotated_chain(0.123))  # an angle no other test caches
    err = info.value
    assert err.attempts == 1
    assert err.fragment_index is not None and err.backend is not None


def test_failed_local_fallback_ends_through_the_lifecycle():
    # no workers: jobs run on the coordinator, whose retries fail too —
    # the error is the policy's own, with the attempts it really made
    chaos = ChaosSchedule(exception_rate=1.0, fail_attempts=10**9)
    execution = ExecutionConfig(
        failure_policy="degrade", max_retries=1, retry_backoff=0.0, chaos=chaos
    )
    with Fleet(n_workers=0) as fleet:
        with fleet.client(execution=execution) as client:
            with pytest.raises(
                BackendExecutionError, match="retries exhausted"
            ) as info:
                client.run(rotated_chain(0.3))
    assert info.value.attempts == 2


class ArrivalLog:
    """A worker transport noting when each job arrives (jobs travel in
    frames, so frame-mates share an arrival time)."""

    def __init__(self, address: str):
        self.inner = connect(address)
        self.arrivals: list[tuple[int, float]] = []

    def send(self, message: dict) -> None:
        self.inner.send(message)

    def recv(self):
        message = self.inner.recv()
        if message and message.get("type") == "job":
            now = time.monotonic()
            self.arrivals.extend((jid, now) for jid, _job in message["jobs"])
        return message

    def close(self) -> None:
        self.inner.close()


def test_crash_requeue_waits_out_the_policy_backoff():
    backoff = 0.6
    execution = ExecutionConfig(
        failure_policy="retry", retry_backoff=backoff, retry_backoff_cap=backoff
    )
    circuit = rotated_chain(0.3)
    clean = SuperSim().run(circuit)
    outcome = {}
    with Fleet(n_workers=0) as fleet:
        # a worker that takes one frame of jobs and dies with it...
        doomed = connect(fleet.address)
        doomed.send({"type": "hello", "role": "worker", "name": "doomed", "slots": 1})
        assert doomed.recv()["type"] == "welcome"
        wait_for_workers(fleet.address, 1)

        def run_client():
            with fleet.client(execution=execution) as client:
                outcome["result"] = client.run(circuit)

        client_thread = threading.Thread(target=run_client)
        client_thread.start()
        message = doomed.recv()
        while message["type"] != "job":
            message = doomed.recv()
        # ...and an in-process one that survives to finish the batch
        survivor = ArrivalLog(fleet.address)
        worker_thread = threading.Thread(
            target=run_worker,
            args=(fleet.address,),
            kwargs={"slots": 1, "name": "survivor", "transport": survivor},
        )
        worker_thread.start()
        wait_for_workers(fleet.address, 2)
        doomed.close()
        lost_at = time.monotonic()
        client_thread.join(timeout=60)
        assert not client_thread.is_alive()
    worker_thread.join(timeout=10)
    assert not worker_thread.is_alive()
    result = outcome["result"]
    assert result.distribution.probs == clean.distribution.probs
    # attribution is the documented heuristic of JobLifecycle.on_crash: a
    # lost worker takes every job of the frame it held with it, so each of
    # them is charged one crash
    held = [jid for jid, _job in message["jobs"]]
    assert result.faults.crashes == len(held)
    redispatched_at = dict(survivor.arrivals)[held[0]]
    assert redispatched_at - lost_at >= backoff - 0.05


# -- shared cache across clients ---------------------------------------------


def test_shared_cache_across_clients():
    sampling = SamplingConfig(shots=300, seed=9)
    circuit = rotated_chain(0.55)
    with Fleet(n_workers=2) as fleet:
        with fleet.client(sampling=sampling) as first:
            first_result = first.run(circuit)
            after_first = first.cache_stats()
        with fleet.client(sampling=sampling) as second:
            second_result = second.run(circuit)
            after_second = second.cache_stats()
        assert first_result.distribution.probs == second_result.distribution.probs
        # the second client's evaluation was served entirely from the shared cache
        assert second_result.timings["cache_misses"] == 0
        assert second_result.timings["cache_hits"] > 0
        assert after_second["hits"] > after_first["hits"]
        # concurrent clients also agree (and share the cache)
        results = {}

        def run_client(name):
            with fleet.client(sampling=sampling, tenant=name) as client:
                results[name] = client.run(rotated_chain(0.77))

        threads = [
            threading.Thread(target=run_client, args=(f"c{i}",))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert (
            results["c0"].distribution.probs == results["c1"].distribution.probs
        )


# -- lifecycle satellites ----------------------------------------------------


def test_supersim_close_and_context_manager():
    class Resource:
        closed = 0

        def close(self):
            Resource.closed += 1

    with SuperSim() as sim:
        sim.adopt_resource(Resource())
        sim.run(rotated_chain(0.5, n=4))
    assert Resource.closed == 1
    # idempotent, and the engine stays usable after close()
    sim.close()
    assert Resource.closed == 1
    assert sim.run(rotated_chain(0.5, n=4)).distribution.probs


def test_cost_estimate_dict_roundtrip():
    plan = SuperSim().plan(rotated_chain(0.2))
    estimate = plan.estimate()
    data = estimate.to_dict()
    import json

    restored = CostEstimate.from_dict(json.loads(json.dumps(data)))
    assert restored == estimate
    assert restored.backends == estimate.backends


def test_execution_plan_pickles_unbound():
    sim = SuperSim()
    plan = sim.plan(rotated_chain(0.9))
    clone = pickle.loads(pickle.dumps(plan))
    with pytest.raises(RuntimeError, match="unbound"):
        clone.execute()
    with pytest.raises(RuntimeError, match="unbound"):
        clone.estimate()
    local = plan.execute()
    rebound = clone.bind(sim).execute()
    assert rebound.distribution.probs == local.distribution.probs
