"""Resilience suite: the service survives process death and network faults.

PR 8 proved the single-host engine fault-tolerant and the service suite
proved distribution exact; this suite proves the *service* machinery
survives what distribution adds — coordinator death (durable journal
recovery with bit-identical re-execution), silently dead workers
(heartbeat liveness), dropped connections (reconnecting client/worker
with idempotent resends that never double-charge admission), corrupt
peers (frame errors isolated per connection), and graceful drain.
Network faults are injected deterministically through
:class:`~repro.testing.ChaosTransport`, so every scenario here is a
seeded, reproducible schedule — and the engine's headline invariant
holds throughout: the numbers never move, only the fault ledger does.
"""

import os
import pickle
import socket
import sqlite3
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import (
    ExecutionConfig,
    ReconstructionConfig,
    SamplingConfig,
    SuperSim,
)
from repro.errors import QuotaExceededError, ServiceError
from repro.service import Coordinator, CoordinatorJournal, ServiceClient
from repro.service.protocol import backoff_delay, connect
from repro.testing import ChaosSchedule, ChaosTransportFactory

from test_service import (
    SRC,
    Fleet,
    rotated_chain,
    spawn_workers,
    stop_workers,
    wait_for_workers,
    wide_chain,
)


# -- plumbing ----------------------------------------------------------------


def free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def spawn_coordinator(port: int, journal=None, extra=()) -> subprocess.Popen:
    """A coordinator subprocess (the thing we can really SIGKILL)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    args = [
        sys.executable,
        "-m",
        "repro.service.coordinator",
        "--port",
        str(port),
        "--heartbeat-interval",
        "0.5",
    ]
    if journal is not None:
        args += ["--journal-db", str(journal)]
    args += list(extra)
    proc = subprocess.Popen(args, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    assert "listening" in line, f"coordinator failed to start: {line!r}"
    return proc


def wait_for_coordinator(address: str, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with ServiceClient(address, reconnect=False):
                return
        except (ConnectionError, OSError):
            time.sleep(0.05)
    raise AssertionError(f"no coordinator at {address} within {timeout}s")


def poll_until(client: ServiceClient, ticket: str, timeout: float = 120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        result = client.poll(ticket)
        if result is not None:
            return result
        time.sleep(0.05)
    raise AssertionError(f"ticket {ticket} never completed within {timeout}s")


# -- unit: journal, backoff --------------------------------------------------


def test_journal_roundtrip_quota_and_ttl(tmp_path):
    path = tmp_path / "journal.db"
    journal = CoordinatorJournal(path)
    journal.record_request("t-1", "submit", "alice", {"type": "submit", "n": 1},
                           idempotency="k1")
    journal.record_request("t-2", "run", "bob", {"type": "run"})
    journal.record_reply("t-1", {"type": "result", "value": (1, 2)})
    journal.abandon("t-2")
    journal.save_quota({"alice": {"tokens": 3.5, "admitted": 2, "rejected": 1,
                                  "spent": 7.0}})
    journal.flush()
    journal.close()

    # durability: a fresh handle (the restarted coordinator) sees it all
    reopened = CoordinatorJournal(path)
    entries = {t: (kind, tenant, idem, state, msg, reply)
               for t, kind, tenant, idem, state, msg, reply
               in reopened.entries()}
    assert entries["t-1"][2] == "k1"
    assert entries["t-1"][3] == "done"
    assert entries["t-1"][4] == {"type": "submit", "n": 1}
    assert entries["t-1"][5] == {"type": "result", "value": (1, 2)}
    assert entries["t-2"][3] == "abandoned"
    assert reopened.load_quota()["alice"]["tokens"] == 3.5
    assert reopened.stats()["done"] == 1

    # acknowledge deletes; expire only touches finished entries
    reopened.acknowledge("t-1")
    assert [row[0] for row in reopened.entries()] == ["t-2"]
    reopened.record_request("t-3", "submit", "alice", {"type": "submit"})
    removed = reopened.expire(ttl=0.0, now=time.time() + 60)
    assert removed == 1  # t-2 (abandoned); t-3 is pending and immortal
    assert reopened.stats()["pending"] == 1
    reopened.close()


def test_a_file_that_is_not_sqlite_is_refused_typed(tmp_path):
    path = tmp_path / "journal.db"
    path.write_bytes(b"not a journal, not a database\n" * 64)
    with pytest.raises(ServiceError, match="journal.db") as raised:
        CoordinatorJournal(path)
    assert isinstance(raised.value.__cause__, sqlite3.DatabaseError)
    with pytest.raises(ServiceError, match="journal.db"):
        Coordinator(journal=path)


def undecodable_journal(path: Path) -> None:
    """A journal holding one pending submit whose pickled request is junk."""
    journal = CoordinatorJournal(path)
    journal.record_request("t-bad", "submit", "alice", {"type": "submit"})
    journal.close()
    raw = sqlite3.connect(path)
    raw.execute("UPDATE requests SET request = ? WHERE ticket = 't-bad'",
                (b"\x00junk",))
    raw.commit()
    raw.close()


def test_an_undecodable_row_is_refused_typed(tmp_path):
    path = tmp_path / "journal.db"
    undecodable_journal(path)
    journal = CoordinatorJournal(path)
    with pytest.raises(ServiceError, match="t-bad") as raised:
        journal.entries()
    assert isinstance(raised.value.__cause__, pickle.UnpicklingError)
    journal.close()


def test_a_coordinator_that_cannot_adopt_its_journal_refuses_to_start(tmp_path):
    """Recovery fails after the socket is bound: the caller gets the typed
    error within the start wait, never an address of a dead loop."""
    path = tmp_path / "journal.db"
    undecodable_journal(path)
    coordinator = Coordinator(journal=path, heartbeat_interval=None)
    began = time.monotonic()
    with pytest.raises(ServiceError, match="t-bad"):
        coordinator.start_in_thread()
    assert time.monotonic() - began < 30
    assert coordinator.address is None
    coordinator._thread.join(timeout=10)
    assert not coordinator._thread.is_alive()


def test_backoff_delay_is_jittered_and_capped():
    import random

    rng = random.Random(7)
    delays = [backoff_delay(n, base=0.5, cap=4.0, rng=rng) for n in range(1, 8)]
    for n, delay in enumerate(delays, start=1):
        ceiling = min(4.0, 0.5 * 2 ** (n - 1))
        assert ceiling * 0.5 <= delay <= ceiling
    assert max(delays) <= 4.0


def test_admission_snapshot_restore_is_conservative():
    from repro.service.admission import AdmissionController

    clock = [0.0]
    ctl = AdmissionController(rate=1.0, capacity=10.0, clock=lambda: clock[0])
    assert ctl.admit("a", 4.0)[0]
    snapshot = ctl.snapshot()
    assert snapshot["a"]["tokens"] == pytest.approx(6.0)

    clock[0] += 100.0  # "downtime" between snapshot and restore
    fresh = AdmissionController(rate=1.0, capacity=10.0,
                                clock=lambda: clock[0])
    fresh.restore(snapshot)
    # no refill credited for the downtime: the restart minted nothing
    assert fresh.admit("a", 6.5)[1] > 0  # rejected: only 6.0 tokens held
    assert fresh.admit("a", 5.0)[0]


# -- ticket lifecycle: kept until acknowledged or TTL ------------------------


def test_ticket_survives_repeated_polls_until_acknowledged():
    with Fleet(n_workers=0) as fleet:
        with fleet.client(sampling=SamplingConfig(shots=150, seed=3)) as client:
            ticket = client.submit(rotated_chain(0.4))

            def raw_poll():
                with client._lock:
                    return client._exchange({"type": "poll", "ticket": ticket})

            deadline = time.monotonic() + 60
            while raw_poll()["type"] == "pending":
                assert time.monotonic() < deadline
                time.sleep(0.05)
            # a dropped poll reply means the client re-polls: the result
            # must still be there (the old code popped it on first poll)
            replay = raw_poll()
            assert replay["type"] == "result"
            # the acknowledging poll delivers the same result, then frees it
            result = client.poll(ticket)
            assert (replay["result"].distribution.probs
                    == result.distribution.probs)
            gone = raw_poll()
            assert gone["type"] == "error"
            assert "unknown ticket" in gone["error"]
            assert client.stats()["acks"] >= 1


def test_unclaimed_tickets_are_garbage_collected():
    coordinator = Coordinator(ticket_ttl=0.3)
    with coordinator:
        with ServiceClient(
            coordinator.address, sampling=SamplingConfig(shots=100, seed=4)
        ) as client:
            ticket = client.submit(rotated_chain(0.5))
            deadline = time.monotonic() + 30
            while (coordinator.counters["expired_tickets"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            # never polled, never acknowledged: the TTL sweep reclaimed it
            assert coordinator.counters["expired_tickets"] >= 1
            assert coordinator.requests.get(ticket) is None
            with pytest.raises(Exception, match="unknown ticket"):
                client.poll(ticket)


# -- journal recovery: coordinator kill + restart ----------------------------


def test_coordinator_restart_recovers_tickets_bit_identically(tmp_path):
    port = free_port()
    address = f"127.0.0.1:{port}"
    journal = tmp_path / "coordinator.db"
    # first attempts stall long enough for the kill to land mid-execution
    slow = ExecutionConfig(
        failure_policy="retry",
        chaos=ChaosSchedule(seed=11, delay_rate=1.0, delay_seconds=1.0,
                            fail_attempts=1),
    )
    sampling = SamplingConfig(shots=400, seed=23)
    reconstruction = ReconstructionConfig(qubit_limit=16, top_k=16)

    first = spawn_coordinator(port, journal=journal)
    try:
        wait_for_coordinator(address)
        exact_client = ServiceClient(address, sampling=sampling,
                                     execution=slow)
        wide_client = ServiceClient(address, execution=slow,
                                    reconstruction=reconstruction)
        exact_ticket = exact_client.submit(rotated_chain(0.37))
        wide_ticket = wide_client.submit(wide_chain(61))
        # SIGKILL mid-execution: both tickets are journaled but pending
        first.kill()
        first.wait(timeout=10)

        second = spawn_coordinator(port, journal=journal)
        try:
            # the reconnecting clients poll the successor; it re-executes
            # the journaled requests and serves bit-identical results
            exact_remote = poll_until(exact_client, exact_ticket)
            wide_remote = poll_until(wide_client, wide_ticket)
            assert exact_client.reconnects >= 1

            exact_local = SuperSim(sampling=sampling).run(rotated_chain(0.37))
            wide_local = SuperSim(reconstruction=reconstruction).run(
                wide_chain(61)
            )
            assert (exact_remote.distribution.probs
                    == exact_local.distribution.probs)
            assert (wide_remote.distribution.probs
                    == wide_local.distribution.probs)
            assert wide_remote.stats.mode == "recursive"

            stats = exact_client.stats()
            assert stats["recovered_tickets"] == 2
            assert stats["faults"].get("recovery", 0) == 2
            # both replies were delivered and acknowledged: journal clean
            assert stats["journal"]["pending"] == 0
        finally:
            exact_client.close()
            wide_client.close()
            second.kill()
            second.wait(timeout=10)
    finally:
        if first.poll() is None:  # pragma: no cover - assertion failures
            first.kill()
            first.wait(timeout=10)


def test_restart_restores_quota_without_minting_tokens(tmp_path):
    port = free_port()
    address = f"127.0.0.1:{port}"
    journal = tmp_path / "quota.db"
    quota = ["--quota-rate", "1e-6", "--quota-capacity", "1e-9"]
    sampling = SamplingConfig(shots=100, seed=1)

    first = spawn_coordinator(port, journal=journal, extra=quota)
    try:
        wait_for_coordinator(address)
        with ServiceClient(address, sampling=sampling) as client:
            client.run(rotated_chain(0.2))  # burst: drives the bucket to debt
        first.kill()
        first.wait(timeout=10)

        second = spawn_coordinator(port, journal=journal, extra=quota)
        try:
            # without the journal a restart would refill the burst; with it
            # the debt survives and the follow-up is still rejected
            with ServiceClient(address, sampling=sampling) as client:
                with pytest.raises(QuotaExceededError):
                    client.run(rotated_chain(0.3))
        finally:
            second.kill()
            second.wait(timeout=10)
    finally:
        if first.poll() is None:  # pragma: no cover - assertion failures
            first.kill()
            first.wait(timeout=10)


def test_paid_key_survives_a_second_restart():
    # a keyed run was admitted, then its coordinator died mid-run
    sampling = SamplingConfig(shots=100, seed=1)
    message = {"type": "run", "circuit": rotated_chain(0.2),
               "sampling": sampling, "idempotency": "k-paid"}
    journal = CoordinatorJournal(":memory:")
    journal.record_request("t-dead", "run", "default", message,
                           idempotency="k-paid")
    # the first successor abandons the row and stops before the retry comes
    with Coordinator(journal=journal):
        pass
    assert journal.stats()["abandoned"] == 1
    # the second still knows the key is paid: a quota that admits nothing
    # (a spent bucket, restored) does not price the retry again
    journal.save_quota({"default": {"tokens": -1.0, "admitted": 1,
                                    "rejected": 0, "spent": 1.0}})
    with Coordinator(journal=journal, quota_rate=1e-6,
                     quota_capacity=1e-9) as coordinator:
        with ServiceClient(coordinator.address, reconnect=False) as client:
            with client._lock:
                reply = client._exchange(message)
            assert reply["type"] == "result"
            local = SuperSim(sampling=sampling).run(rotated_chain(0.2))
            assert reply["result"].distribution.probs == local.distribution.probs
            stats = client.stats()
    assert stats["idempotent_hits"] == 1
    bucket = stats["admission"]["tenants"]["default"]
    assert (bucket["admitted"], bucket["rejected"]) == (1, 0)
    journal.close()


# -- heartbeat liveness ------------------------------------------------------


def test_heartbeat_declares_zombie_worker_dead_and_requeues():
    sampling = SamplingConfig(shots=250, seed=13)
    circuit = rotated_chain(0.44)
    local = SuperSim(sampling=sampling).run(circuit)
    coordinator = Coordinator(heartbeat_interval=0.1, heartbeat_misses=3)
    with coordinator:
        # a zombie: registers with four slots, swallows jobs and pings,
        # never answers — the TCP connection stays up the whole time
        zombie = connect(coordinator.address)
        zombie.send({"type": "hello", "role": "worker", "name": "zombie",
                     "slots": 4, "pid": 0})
        assert zombie.recv()["type"] == "welcome"
        try:
            with ServiceClient(
                coordinator.address,
                sampling=sampling,
                execution=ExecutionConfig(failure_policy="retry"),
            ) as client:
                deadline = time.monotonic() + 10
                while (not coordinator._workers
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                result = client.run(circuit)
                stats = client.stats()
            # the numbers never move; the ledger shows the whole story:
            # jobs stuck on the zombie were charged a crash and requeued,
            # and with no live workers left they completed locally
            assert result.distribution.probs == local.distribution.probs
            assert result.faults.crashes >= 1
            assert stats["heartbeat_deaths"] >= 1
            assert stats["faults"].get("heartbeat_miss", 0) >= 1
            assert stats["jobs_requeued"] >= 1 or stats["jobs_local"] >= 1
        finally:
            zombie.close()


# -- reconnect + idempotency -------------------------------------------------


def test_submit_retry_after_dropped_reply_is_idempotent():
    sampling = SamplingConfig(shots=300, seed=7)
    circuit = rotated_chain(0.66)
    local = SuperSim(sampling=sampling).run(circuit)
    coordinator = Coordinator(quota_rate=1000.0, quota_capacity=100000.0)
    with coordinator:
        # ops 0-2 run clean (hello, welcome, submit-send); op 3 — the
        # submitted-reply recv — drops the connection: the classic lost
        # reply after the server already accepted the request
        factory = ChaosTransportFactory(
            ChaosSchedule(seed=1, crash_rate=1.0, fail_attempts=1),
            connect_factory=lambda: connect(coordinator.address),
            skip=3,
            max_faults=1,
        )
        with ServiceClient(
            coordinator.address, sampling=sampling, transport_factory=factory
        ) as client:
            ticket = client.submit(circuit)
            result = poll_until(client, ticket)
            stats = client.stats()
        assert factory.faults_injected == 1
        assert client.reconnects == 1
        assert result.distribution.probs == local.distribution.probs
        # the resent submit was recognised: one ticket, one execution,
        # one admission charge — nothing doubled
        assert stats["idempotent_hits"] >= 1
        assert stats["requests"] == 1
        bucket = stats["admission"]["tenants"]["default"]
        assert bucket["admitted"] == 1
        assert stats["admission"]["admitted"] == 1


def test_chaos_transport_runs_identical_to_fault_free():
    sampling = SamplingConfig(shots=300, seed=5)
    grid = [0.1, 0.25, 0.4]
    circuit = rotated_chain(0.52)
    local_run = SuperSim(sampling=sampling).run(circuit)
    local_points = list(SuperSim(sampling=sampling).sweep(rotated_chain, grid))
    coordinator = Coordinator()
    with coordinator:
        factory = ChaosTransportFactory(
            ChaosSchedule(seed=3, crash_rate=0.25, fail_attempts=1),
            connect_factory=lambda: connect(coordinator.address),
            skip=2,  # let the first handshake through
            max_faults=3,
        )
        with ServiceClient(
            coordinator.address, sampling=sampling, transport_factory=factory
        ) as client:
            remote_run = client.run(circuit)
            remote_points = list(client.sweep(rotated_chain, grid))
        assert factory.faults_injected >= 1  # the chaos really fired
        assert remote_run.distribution.probs == local_run.distribution.probs
        assert [p.params for p in remote_points] == grid
        for local_point, remote_point in zip(local_points, remote_points):
            assert (remote_point.result.distribution.probs
                    == local_point.result.distribution.probs)


def test_resent_sweep_streams_again_while_the_first_is_in_flight():
    # a client that reconnects mid-stream resends its sweep under the same
    # key while the first copy is still running: the answer is the whole
    # stream again (never a lookup by key), and admission is charged once
    slow = ExecutionConfig(
        failure_policy="retry",
        chaos=ChaosSchedule(seed=2, delay_rate=1.0, delay_seconds=0.3,
                            fail_attempts=1),
    )
    message = {"type": "sweep",
               "circuits": [rotated_chain(0.2), rotated_chain(0.5)],
               "sampling": SamplingConfig(shots=100, seed=1),
               "execution": slow, "idempotency": "k-sweep"}
    coordinator = Coordinator(quota_rate=1000.0, quota_capacity=100000.0)
    with coordinator:
        peers = []
        for _ in range(2):
            peer = connect(coordinator.address)
            peer.send({"type": "hello", "role": "client"})
            assert peer.recv()["type"] == "welcome"
            peer.send(message)
            peers.append(peer)
            time.sleep(0.15)
        for peer in peers:
            kinds = [peer.recv()["type"] for _ in range(3)]
            assert kinds == ["sweep_point", "sweep_point", "sweep_done"]
            peer.close()
        assert coordinator.admission.stats()["admitted"] == 1
        assert coordinator.counters["idempotent_hits"] == 1


# -- peer-level frame errors are non-fatal -----------------------------------


def test_malformed_frames_disconnect_only_that_peer():
    coordinator = Coordinator()
    with coordinator:
        # peer 1: garbage before the handshake (unknown frame tag)
        raw = socket.create_connection(
            ("127.0.0.1", int(coordinator.address.rsplit(":", 1)[1]))
        )
        raw.sendall(struct.pack(">BI", 9, 4) + b"junk")
        assert raw.recv(1024) == b""  # that peer is disconnected...
        raw.close()

        # peer 2: a valid handshake, then an oversize frame header
        evil = connect(coordinator.address)
        evil.send({"type": "hello", "role": "client"})
        assert evil.recv()["type"] == "welcome"
        evil._sock.sendall(struct.pack(">BI", 1, (1 << 30) + 1))
        assert evil.recv() is None  # ...and so is this one
        evil.close()

        deadline = time.monotonic() + 10
        while (coordinator.counters["peer_errors"] < 2
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert coordinator.counters["peer_errors"] >= 2
        assert coordinator.faults.count("peer_error") >= 2

        # ...but the coordinator never went down: a well-behaved client
        # connects and runs as if nothing happened
        with ServiceClient(
            coordinator.address, sampling=SamplingConfig(shots=100, seed=2)
        ) as client:
            result = client.run(rotated_chain(0.3))
            assert result.distribution.probs
            assert client.stats()["faults"].get("peer_error", 0) >= 2


# -- worker auto-reconnect ---------------------------------------------------


def test_worker_reconnects_after_coordinator_restart():
    port = free_port()
    address = f"127.0.0.1:{port}"
    first = spawn_coordinator(port)
    workers = []
    second = None
    try:
        wait_for_coordinator(address)
        workers = spawn_workers(address, 1)
        wait_for_workers(address, 1)
        first.kill()
        first.wait(timeout=10)

        second = spawn_coordinator(port)
        # the orphaned worker rejoins by itself (jittered backoff)
        wait_for_workers(address, 1, timeout=30)
        sampling = SamplingConfig(shots=200, seed=9)
        with ServiceClient(address, sampling=sampling) as client:
            remote = client.run(rotated_chain(0.7))
            stats = client.stats()
        local = SuperSim(sampling=sampling).run(rotated_chain(0.7))
        assert remote.distribution.probs == local.distribution.probs
        assert stats["jobs_completed"] >= 1
        # the rejoined worker really served the jobs (no local fallback)
        assert stats["jobs_local"] == 0
        # SIGTERM = graceful drain: the worker is told to stop and obeys
        second.terminate()
        second.wait(timeout=30)
        deadline = time.monotonic() + 15
        while (any(w.poll() is None for w in workers)
               and time.monotonic() < deadline):
            time.sleep(0.05)
    finally:
        for proc in (first, second):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        stop_workers(workers)
    # the worker exited via the coordinator's stop, not a kill
    assert all(w.returncode == 0 for w in workers)


# -- graceful drain ----------------------------------------------------------


def test_drain_rejects_new_work_but_finishes_inflight():
    slow = ExecutionConfig(
        failure_policy="retry",
        chaos=ChaosSchedule(seed=2, delay_rate=1.0, delay_seconds=0.5,
                            fail_attempts=1),
    )
    sampling = SamplingConfig(shots=150, seed=6)
    coordinator = Coordinator()
    with coordinator:
        with ServiceClient(
            coordinator.address, sampling=sampling, execution=slow
        ) as client:
            ticket = client.submit(rotated_chain(0.35))
            drained: list = []
            drainer = threading.Thread(
                target=lambda: drained.append(coordinator.drain(timeout=60))
            )
            drainer.start()
            deadline = time.monotonic() + 10
            while not coordinator._draining and time.monotonic() < deadline:
                time.sleep(0.01)
            # during the drain: new work bounces with a retryable reason...
            with ServiceClient(
                coordinator.address, sampling=sampling, reconnect=False
            ) as latecomer:
                with pytest.raises(QuotaExceededError, match="draining"):
                    latecomer.run(rotated_chain(0.9))
            drainer.join(timeout=60)
            assert not drainer.is_alive()
            # ...but accepted work finished and stays collectable
            result = poll_until(client, ticket)
            assert result.distribution.probs
            stats = client.stats()
            assert stats["draining"] is True
            assert stats["jobs_pending"] == 0


# -- shutdown leaks ----------------------------------------------------------


def test_shutdown_leaves_no_leaked_processes_or_threads():
    import multiprocessing

    before = {p.pid for p in multiprocessing.active_children()}
    coordinator = Coordinator()
    with coordinator:
        with ServiceClient(
            coordinator.address, sampling=SamplingConfig(shots=150, seed=8)
        ) as client:
            points = list(client.sweep(rotated_chain, [0.2, 0.6]))
            assert len(points) == 2
    # the bounded joins in _shutdown_async really reaped everything
    leaked = {
        p.pid for p in multiprocessing.active_children()
    } - before
    assert not leaked
    assert all(not t.is_alive() for t in coordinator._executor._threads)


# -- acceptance: sweep survives restart + chaos-killed worker ----------------


def test_sweep_survives_coordinator_restart_and_chaos_worker(tmp_path):
    # the Clifford fragment's job crashes its worker at every point's first
    # attempt, the first point's too: a worker dies before the restart
    chaos = ChaosSchedule(seed=3, crash_rate=0.2, fail_attempts=1)
    execution = ExecutionConfig(failure_policy="retry", chaos=chaos)
    sampling = SamplingConfig(shots=400, seed=3)
    grid = [0.3, 0.45, 0.6]
    local_points = list(
        SuperSim(sampling=sampling, execution=ExecutionConfig(
            failure_policy="retry", chaos=chaos
        )).sweep(rotated_chain, grid)
    )

    port = free_port()
    address = f"127.0.0.1:{port}"
    journal = tmp_path / "acceptance.db"
    first = spawn_coordinator(port, journal=journal)
    workers = []
    second = None
    try:
        wait_for_coordinator(address)
        workers = spawn_workers(address, 2)
        wait_for_workers(address, 2)
        client = ServiceClient(address, sampling=sampling,
                               execution=execution)
        try:
            stream = client.sweep(rotated_chain, grid)
            points = [next(stream)]
            # kill the coordinator mid-sweep; its successor adopts the
            # journal and the surviving workers rejoin it
            first.kill()
            first.wait(timeout=10)
            second = spawn_coordinator(port, journal=journal)
            points.extend(stream)

            assert client.reconnects >= 1
            assert [p.params for p in points] == grid
            for local_point, remote_point in zip(local_points, points):
                assert (remote_point.result.distribution.probs
                        == local_point.result.distribution.probs)

            # the chaos schedule really killed a worker along the way
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if 17 in [w.poll() for w in workers]:
                    break
                time.sleep(0.1)
            assert 17 in [w.poll() for w in workers]

            with ServiceClient(address) as probe:
                stats = probe.stats()
            assert stats["journal"]["pending"] == 0
        finally:
            client.close()
    finally:
        for proc in (first, second):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        stop_workers(workers)
