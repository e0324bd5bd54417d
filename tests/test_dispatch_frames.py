"""Dispatch in frames: a batch travels as one message per worker lane.

The coordinator splits a request's miss jobs over the fleet's lanes and
moves each share as one ``job`` frame out and one ``job_result`` frame
back; the failure policy stays per job.  These tests watch the wire
through recording worker transports (in-process workers, so every frame
in both directions is visible) and hand-rolled peers that take a frame
and die, hang or speak another protocol version.
"""

import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.core import ExecutionConfig, SamplingConfig, SuperSim
from repro.core.evaluator import _execute_job
from repro.errors import ServiceError
from repro.service import Coordinator, ServiceClient, run_worker
from repro.service import coordinator as coordinator_module
from repro.service.coordinator import _MAX_FRAME_JOBS, _split_frames
from repro.service.protocol import PROTOCOL_VERSION, TcpTransport, connect
from repro.testing import ChaosSchedule

from test_service import Fleet, rotated_chain, wait_for_workers


def mirror_chain(theta: float) -> Circuit:
    """The soak's 10-qubit sweep circuit: 24 variants in 13 jobs on an
    empty cache — one for the Clifford fragment, one for each variant of
    the ``theta`` fragment — of which those 12 miss at a new angle."""
    n = 10
    circuit = Circuit(n).append(gates.H, 0)
    for q in range(n - 1):
        circuit.append(gates.CX, q, q + 1)
    circuit.append(gates.ZPow(theta), n // 2)
    for q in range(n - 1, 0, -1):
        circuit.append(gates.CX, q - 1, q)
    return circuit.append(gates.H, 0)


class Recorder:
    """A worker transport remembering every message in both directions."""

    def __init__(self, address: str):
        self.inner = connect(address)
        self.received: list[tuple[float, dict]] = []
        self.sent: list[tuple[float, dict]] = []

    def send(self, message: dict) -> None:
        self.sent.append((time.monotonic(), message))
        self.inner.send(message)

    def recv(self):
        message = self.inner.recv()
        if message:
            self.received.append((time.monotonic(), message))
        return message

    def close(self) -> None:
        self.inner.close()

    def job_frames(self, since: float = 0.0) -> list[dict]:
        return [m for at, m in self.received if m["type"] == "job" and at >= since]

    def result_frames(self, since: float = 0.0) -> list[dict]:
        return [m for at, m in self.sent if m["type"] == "job_result" and at >= since]


class GatedRecorder(Recorder):
    """Holds the first job frame back until ``gate`` opens, so the frames
    behind it pile up in the coordinator's queue."""

    def __init__(self, address: str):
        super().__init__(address)
        self.gate = threading.Event()

    def recv(self):
        message = super().recv()
        if message and message["type"] == "job":
            assert self.gate.wait(timeout=60)
        return message


class RecordedFleet:
    """A coordinator with in-process workers on recording transports."""

    def __init__(self, n_workers: int = 2, slots: int = 1, **coordinator_kwargs):
        self.coordinator = Coordinator(**coordinator_kwargs)
        self.address = self.coordinator.start_in_thread()
        self.recorders: list[Recorder] = []
        self.threads: list[threading.Thread] = []
        for _ in range(n_workers):
            self.add_worker(Recorder(self.address), slots)

    def add_worker(self, recorder: Recorder, slots: int = 1) -> Recorder:
        name = f"rec{len(self.recorders)}"
        thread = threading.Thread(
            target=run_worker,
            args=(self.address,),
            kwargs={"slots": slots, "name": name, "transport": recorder},
        )
        thread.start()
        self.recorders.append(recorder)
        self.threads.append(thread)
        wait_for_workers(self.address, len(self.recorders))
        return recorder

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient(self.address, **kwargs)

    def job_frames(self, since: float = 0.0) -> list[dict]:
        return [m for r in self.recorders for m in r.job_frames(since)]

    def result_frames(self, since: float = 0.0) -> list[dict]:
        return [m for r in self.recorders for m in r.result_frames(since)]

    def __enter__(self) -> "RecordedFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.coordinator.shutdown()  # tells every worker to stop
        for thread in self.threads:
            thread.join(timeout=15)
            assert not thread.is_alive()


def hand_rolled_worker(address: str, name: str, slots: int = 1) -> TcpTransport:
    """A peer that registers as a worker and then does what the test says."""
    peer = connect(address)
    peer.send({"type": "hello", "role": "worker", "name": name, "slots": slots})
    assert peer.recv()["type"] == "welcome"
    return peer


def next_job_frame(peer: TcpTransport) -> tuple[dict, float]:
    message = peer.recv()
    while message["type"] != "job":
        message = peer.recv()
    return message, time.monotonic()


def frame_jids(frame: dict) -> list[int]:
    return [jid for jid, _job in frame["jobs"]]


# -- (1) counts ---------------------------------------------------------------


def test_a_batch_is_one_frame_per_lane_each_way():
    sampling = SamplingConfig(shots=200, seed=3)
    with RecordedFleet(n_workers=2, slots=1) as fleet:
        with fleet.client(sampling=sampling) as client:
            client.run(mirror_chain(0.2))  # warms the theta-independent half
            warmed_at = time.monotonic()
            before = client.stats()
            remote = client.run(mirror_chain(0.3))
            after = client.stats()
        assert remote.timings["cache_misses"] == 12
        frames = fleet.job_frames(since=warmed_at)
        replies = fleet.result_frames(since=warmed_at)
        assert [len(f["jobs"]) for f in frames] == [6, 6]
        assert [len(r["results"]) for r in replies] == [6, 6]
        assert sorted(r["frame"] for r in replies) == sorted(
            f["frame"] for f in frames
        )
        # one frame per worker: jobs stay counted per job, lanes per frame
        assert [len(r.job_frames()) for r in fleet.recorders] == [2, 2]
        assert after["frames_dispatched"] - before["frames_dispatched"] == 2
        assert after["jobs_dispatched"] - before["jobs_dispatched"] == 12
        assert after["jobs_completed"] - before["jobs_completed"] == 12
        for worker in after["workers"].values():
            assert (worker["inflight"], worker["peak_inflight"]) == (0, 1)
    local = SuperSim(sampling=sampling).run(mirror_chain(0.3))
    assert remote.distribution.probs == local.distribution.probs


def test_a_batch_wider_than_the_cap_splits_at_the_cap(monkeypatch):
    monkeypatch.setattr(coordinator_module, "_MAX_FRAME_JOBS", 5)
    with RecordedFleet(n_workers=1, slots=1) as fleet:
        with fleet.client() as client:
            remote = client.run(mirror_chain(0.2))
        sizes = [len(f["jobs"]) for f in fleet.job_frames()]
        assert sizes == [5, 4, 4]  # 13 jobs, one lane, cap 5
        jids = [jid for f in fleet.job_frames() for jid in frame_jids(f)]
        assert len(set(jids)) == len(jids) == 13
    local = SuperSim().run(mirror_chain(0.2))
    assert remote.distribution.probs == local.distribution.probs


def test_concurrent_requests_interleave_frames_by_priority_then_fifo(monkeypatch):
    # one lane, three 13-job requests of two frames each; the worker
    # sits on the very first frame until all six are cut, then serves
    # the queue as the coordinator orders it
    monkeypatch.setattr(coordinator_module, "_MAX_FRAME_JOBS", 8)
    outcomes = {}

    def run(fleet, seed, priority):
        sampling = SamplingConfig(shots=100, seed=seed)
        with fleet.client(sampling=sampling, priority=priority) as client:
            outcomes[seed] = client.run(mirror_chain(0.2))

    with RecordedFleet(n_workers=0) as fleet:
        gated = fleet.add_worker(GatedRecorder(fleet.address))
        clients = []
        # (frames queued once this request is cut, its seed, its priority)
        for queued, seed, priority in ((1, 101, 0), (3, 102, 0), (5, 103, -1)):
            clients.append(
                threading.Thread(target=run, args=(fleet, seed, priority))
            )
            clients[-1].start()
            deadline = time.monotonic() + 30
            while fleet.coordinator.stats()["queue_depth"] < queued:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        gated.gate.set()
        for thread in clients:
            thread.join(timeout=60)
            assert not thread.is_alive()
        # every sampled job's seed leads with its request's root seed, drawn
        # from the request's own seed: that tells whose job it is (the
        # Clifford fragment's job carries no seed, and its key is the same
        # in every request; every frame holds sampled jobs too)
        whose = {
            int(np.random.default_rng(seed).integers(2**63)): seed
            for seed in (101, 102, 103)
        }
        order = [
            {whose[job.seed[0]] for _jid, job in frame["jobs"] if job.seed}
            for frame in gated.job_frames()
        ]
        assert order == [{101}] + [{103}] * 2 + [{101}] + [{102}] * 2
    for seed, remote in outcomes.items():
        local = SuperSim(sampling=SamplingConfig(shots=100, seed=seed)).run(
            mirror_chain(0.2)
        )
        assert remote.distribution.probs == local.distribution.probs


# -- (2) a job that raises inside a frame ---------------------------------------


def test_a_raising_job_is_retried_alone_inside_its_frame():
    # shape of test_retry_fault_ledger_matches_local: the worker retries a
    # raising job where it is, so its frame-mates are neither re-run nor
    # re-sent and the ledger is the local run's
    chaos = ChaosSchedule(exception_rate=0.3, fail_attempts=2)
    execution = ExecutionConfig(
        failure_policy="retry", chaos=chaos, retry_backoff=0.0
    )
    sampling = SamplingConfig(shots=300, seed=4)
    circuit = rotated_chain(0.3)
    local = SuperSim(sampling=sampling, execution=execution).run(circuit)
    with RecordedFleet(n_workers=2, slots=1) as fleet:
        with fleet.client(sampling=sampling, execution=execution) as client:
            remote = client.run(circuit)
            stats = client.stats()
        frames, replies = fleet.job_frames(), fleet.result_frames()
    assert remote.distribution.probs == local.distribution.probs
    assert remote.faults.summary() == local.faults.summary() == {"retry": 2}
    assert len(frames) == len(replies) == 2 and stats["jobs_requeued"] == 0
    results = [result for reply in replies for result in reply["results"]]
    assert all("value" in result for result in results)
    assert sorted(len(r["faults"]) for r in results) == [0, 0, 0, 0, 2]


def test_a_failed_job_does_not_take_its_frame_mates_with_it():
    # the worker's retry budget runs out on the scheduled jobs: the reply
    # carries their exceptions next to their frame-mates' values, and only
    # they fall back to the coordinator
    chaos = ChaosSchedule(exception_rate=0.3, fail_attempts=2)
    execution = ExecutionConfig(
        failure_policy="degrade", chaos=chaos, max_retries=1, retry_backoff=0.0
    )
    sampling = SamplingConfig(shots=300, seed=4)
    circuit = rotated_chain(0.3)
    clean = SuperSim(sampling=sampling).run(circuit)
    with RecordedFleet(n_workers=2, slots=1) as fleet:
        with fleet.client(sampling=sampling, execution=execution) as client:
            remote = client.run(circuit)
            stats = client.stats()
        frames, replies = fleet.job_frames(), fleet.result_frames()
    assert remote.distribution.probs == clean.distribution.probs
    assert len(frames) == len(replies) == 2
    results = [result for reply in replies for result in reply["results"]]
    assert sum("exception" in result for result in results) == 1
    assert sum("value" in result for result in results) == 4
    assert remote.faults.summary() == {"retry": 1, "fallback": 1}
    assert (stats["jobs_local"], stats["jobs_requeued"]) == (1, 0)


# -- (3) a worker that dies holding a frame ----------------------------------------


def test_a_lost_frame_is_one_crash_per_job_and_each_returns_alone():
    execution = ExecutionConfig(failure_policy="retry", retry_backoff=0.0)
    circuit = rotated_chain(0.3)
    clean = SuperSim().run(circuit)
    outcome = {}
    with RecordedFleet(n_workers=0) as fleet:
        doomed = hand_rolled_worker(fleet.address, "doomed")
        wait_for_workers(fleet.address, 1)

        def run_client():
            with fleet.client(execution=execution) as client:
                outcome["result"] = client.run(circuit)

        client_thread = threading.Thread(target=run_client)
        client_thread.start()
        held = frame_jids(next_job_frame(doomed)[0])
        survivor = fleet.add_worker(Recorder(fleet.address))
        doomed.close()
        client_thread.join(timeout=60)
        assert not client_thread.is_alive()
        redispatched = [frame_jids(f) for f in survivor.job_frames()]
    assert len(held) == 5  # the whole batch went to the one lane there was
    assert sorted(redispatched) == [[jid] for jid in sorted(held)]
    result = outcome["result"]
    assert result.faults.summary() == {"crash": len(held)}
    assert result.distribution.probs == clean.distribution.probs


def test_only_the_poison_job_of_a_frame_is_quarantined():
    sampling = SamplingConfig(shots=300, seed=6)
    circuit = mirror_chain(0.2)
    clean = SuperSim(sampling=sampling).run(circuit)
    # learn the batch's fingerprints, then pick a schedule that crashes
    # exactly one of them on every attempt a worker gets
    with RecordedFleet(n_workers=1) as fleet:
        with fleet.client(sampling=sampling) as client:
            client.run(circuit)
        fingerprints = [
            job.fingerprint for f in fleet.job_frames() for _jid, job in f["jobs"]
        ]
    assert len(fingerprints) == 13
    chaos = next(
        schedule
        for schedule in (
            ChaosSchedule(seed=seed, crash_rate=0.04, fail_attempts=3)
            for seed in range(1000)
        )
        if len(schedule.faulted_fingerprints(fingerprints)) == 1
    )
    execution = ExecutionConfig(
        failure_policy="degrade", chaos=chaos, max_job_crashes=2, retry_backoff=0.0
    )
    # four lanes: frames of four or three, the poison job in one of three;
    # it kills three workers — with its frame, then twice alone — is
    # quarantined and runs on the coordinator
    with Fleet(n_workers=4, slots=1) as fleet:
        with fleet.client(sampling=sampling, execution=execution) as client:
            result = client.run(circuit)
            stats = client.stats()
    assert result.distribution.probs == clean.distribution.probs
    assert result.faults.summary() == {
        "crash": 2 + 3,  # one each for its two frame-mates, three of its own
        "quarantine": 1,
        "fallback": 1,
    }
    assert (stats["workers_lost"], stats["jobs_local"]) == (3, 1)
    assert stats["jobs_requeued"] == 2 + 2


# -- (4) deadlines: a frame is overdue at the sum of its jobs' timeouts ------------


def test_a_silent_frame_is_overdue_at_the_sum_of_its_timeouts():
    timeout = 0.25
    execution = ExecutionConfig(
        failure_policy="retry", job_timeout=timeout, retry_backoff=0.0
    )
    circuit = rotated_chain(0.3)
    clean = SuperSim().run(circuit)
    outcome = {}
    with RecordedFleet(n_workers=0, max_inflight_per_worker=8) as fleet:
        # a worker that swallows its frame and never answers
        zombie = hand_rolled_worker(fleet.address, "zombie")
        wait_for_workers(fleet.address, 1)

        def run_client():
            with fleet.client(execution=execution) as client:
                outcome["result"] = client.run(circuit)

        client_thread = threading.Thread(target=run_client)
        client_thread.start()
        frame, sent_at = next_job_frame(zombie)
        held = frame_jids(frame)
        # the jobs written off come back alone, all at once, to this worker
        # (eight lanes: it stays the freer one when the zombie's lane returns)
        survivor = fleet.add_worker(Recorder(fleet.address), slots=8)
        client_thread.join(timeout=60)
        assert not client_thread.is_alive()
        zombie.close()
        arrivals = {
            jid: at - sent_at
            for at, message in survivor.received
            if message["type"] == "job"
            for jid in frame_jids(message)
        }
        redispatched = [frame_jids(f) for f in survivor.job_frames()]
    assert len(held) == 5 and sorted(redispatched) == [[jid] for jid in sorted(held)]
    # a frame runs serially and answers once: its jobs may take the sum of
    # their deadlines — 3 timeouts for the Clifford fragment's job, one per
    # variant, and one for each of the 4 others — and none of them is
    # written off before the reply is overdue
    overdue = (3 + 4) * timeout
    for jid in held:
        assert overdue - 0.05 <= arrivals[jid] < overdue + 2 * timeout
    result = outcome["result"]
    assert result.faults.summary() == {"timeout": len(held)}
    assert result.distribution.probs == clean.distribution.probs


def test_a_slow_healthy_frame_outlives_its_first_jobs_timeout():
    # every job takes half a variant's soft deadline, so the frame of five
    # takes 5 / 2 of them and answers only then: nothing is overdue, under
    # "raise" nothing raises, and the fault ledger is the local run's — empty
    timeout = 0.2
    chaos = ChaosSchedule(delay_rate=1.0, delay_seconds=timeout / 2)
    execution = ExecutionConfig(
        failure_policy="raise", job_timeout=timeout, chaos=chaos
    )
    circuit = rotated_chain(0.3)
    local = SuperSim(execution=execution).run(circuit)
    with RecordedFleet(n_workers=1) as fleet:
        with fleet.client(execution=execution) as client:
            remote = client.run(circuit)
            stats = client.stats()
        (reply,) = fleet.result_frames()
    assert len(reply["results"]) == 5 and reply["elapsed"] > 2 * timeout
    assert remote.faults.summary() == local.faults.summary() == {}
    assert (stats["jobs_requeued"], stats["frames_dispatched"]) == (0, 1)
    assert remote.distribution.probs == local.distribution.probs


# -- a reply that skips a job ---------------------------------------------------


def test_a_job_missing_from_its_frames_reply_is_redispatched():
    # no job_timeout: nothing but the reply itself can notice the gap
    execution = ExecutionConfig(failure_policy="retry", retry_backoff=0.0)
    circuit = rotated_chain(0.3)
    clean = SuperSim().run(circuit)
    frames = []
    with RecordedFleet(n_workers=0) as fleet:
        sloppy = hand_rolled_worker(fleet.address, "sloppy")
        wait_for_workers(fleet.address, 1)

        def serve():  # answers every frame, the first one without its last job
            try:
                while True:
                    try:
                        message = sloppy.recv()
                    except (ConnectionError, OSError):
                        return
                    if not message or message["type"] == "stop":
                        return
                    if message["type"] != "job":
                        continue
                    frames.append(frame_jids(message))
                    first = len(frames) == 1
                    jobs = message["jobs"][:-1] if first else message["jobs"]
                    sloppy.send({
                        "type": "job_result",
                        "frame": message["frame"],
                        "results": [
                            {"jid": jid, "faults": [], "value": _execute_job(job)}
                            for jid, job in jobs
                        ],
                    })
            finally:
                sloppy.close()

        server = threading.Thread(target=serve)
        server.start()
        with fleet.client(execution=execution) as client:
            result = client.run(circuit)
            stats = client.stats()
    server.join(timeout=15)  # the shutdown told it to stop
    assert not server.is_alive()
    assert len(frames[0]) == 5 and frames[1:] == [frames[0][-1:]]
    assert result.faults.summary() == {"crash": 1}
    assert (stats["jobs_requeued"], stats["jobs_pending"]) == (1, 0)
    assert result.distribution.probs == clean.distribution.probs


# -- (5) the splitter ----------------------------------------------------------------


@given(
    n=st.integers(0, 400),
    workers=st.integers(0, 6),
    slots=st.integers(1, 8),
    max_inflight=st.integers(1, 8),
    cap=st.sampled_from([1, 3, _MAX_FRAME_JOBS]),
)
def test_split_frames_partitions_in_order(n, workers, slots, max_inflight, cap):
    lanes = workers * min(slots, max_inflight)
    jids = list(range(n))
    frames = _split_frames(jids, lanes, cap)
    # dealt round-robin: every jid once, each frame in batch order
    assert sorted(jid for frame in frames for jid in frame) == jids
    assert all(frame == sorted(frame) for frame in frames)
    assert all(0 < len(frame) <= cap for frame in frames)
    assert len(frames) <= max(lanes, 1, -(-n // cap))
    if frames:  # even: a batch is not finished before its longest frame
        assert max(map(len, frames)) - min(map(len, frames)) <= 1


# -- an unencodable frame -----------------------------------------------------------


def test_an_unencodable_frame_fails_its_request_and_nothing_else():
    sampling = SamplingConfig(shots=200, seed=8)
    with RecordedFleet(n_workers=1) as fleet:
        run_batch = fleet.coordinator._run_batch

        async def poisoned(ctx, jobs):
            if ctx.tenant == "poisoned":
                jobs[0].chaos = threading.Lock()  # cannot be pickled
            return await run_batch(ctx, jobs)

        fleet.coordinator._run_batch = poisoned
        failure = []

        def run_poisoned():
            with fleet.client(sampling=sampling, tenant="poisoned") as client:
                try:
                    client.run(rotated_chain(0.3))
                except Exception as exc:
                    failure.append(exc)

        thread = threading.Thread(target=run_poisoned)
        thread.start()
        thread.join(timeout=15)
        assert not thread.is_alive(), "the poisoned request hung"
        assert isinstance(failure[0], ServiceError)
        assert "could not be encoded" in str(failure[0])
        assert "lock" in str(failure[0])  # names the cause
        # the dispatch loop survived: the lane is free, the next request runs
        with fleet.client(sampling=sampling) as client:
            remote = client.run(rotated_chain(0.3))
            stats = client.stats()
        assert stats["jobs_pending"] == 0 and stats["queue_depth"] == 0
        assert [w["inflight"] for w in stats["workers"].values()] == [0]
    local = SuperSim(sampling=sampling).run(rotated_chain(0.3))
    assert remote.distribution.probs == local.distribution.probs


# -- protocol version ------------------------------------------------------------------


def test_worker_refuses_a_coordinator_of_another_version():
    # a hand-rolled coordinator still welcoming with version 1
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(0.5)
    address = "127.0.0.1:%d" % server.getsockname()[1]
    hellos = []
    done = threading.Event()

    def serve():
        while not done.is_set():
            try:
                conn, _peer = server.accept()
            except OSError:
                continue
            peer = TcpTransport(conn)
            hellos.append(peer.recv())
            peer.send({"type": "welcome", "version": 1, "heartbeat": None})
            peer.close()

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        with pytest.raises(ConnectionError) as info:
            run_worker(address, slots=1, name="new", reconnect_backoff=0.01)
        time.sleep(0.3)  # a reconnect loop would have come back by now
    finally:
        done.set()
        thread.join(timeout=10)
        server.close()
    assert PROTOCOL_VERSION == 2
    assert "version 1" in str(info.value) and "version 2" in str(info.value)
    assert [hello["name"] for hello in hellos] == ["new"]
