"""The asyncio coordinator: admission, dispatch, shared cache, fold-back.

One coordinator process owns the service: it accepts client requests and
worker registrations on a single listening socket (peers declare a role
in their hello), and runs the *control plane* of distributed execution
while the engine's own pipeline stays intact end to end:

1. **Admission.**  Every ``run`` / ``sweep`` is priced with the engine's
   zero-simulation dry run (``ExecutionPlan.estimate()`` — calibrated
   cost units) and offered to the per-tenant token buckets of
   :class:`~repro.service.admission.AdmissionController`.  A rejection
   is a 429-style reply carrying a ``retry_after`` hint and the quote
   itself; the client raises
   :class:`~repro.errors.QuotaExceededError`.
2. **Dispatch.**  An admitted request executes the normal
   ``plan → evaluate → reconstruct`` pipeline on a request thread, with
   one override: the evaluator's deduplicated variant jobs are handed to
   this coordinator (``FragmentEvaluator.evaluate_all(job_runner=...)``)
   instead of the local job loop.  A batch travels in *frames*: it is dealt
   evenly over the fleet's *lanes* (:func:`_split_frames`; a worker has
   ``min(worker slots, max_inflight_per_worker)`` lanes) and each frame
   is one ``job`` message out and one ``job_result`` message back — one
   pickle, so what the jobs share is serialised once.  Frames enter one
   priority queue (lower ``priority`` first, FIFO within a level) and
   flow to whichever worker has a free lane; a worker never holds more
   frames than it has lanes, which is the back-pressure that keeps one
   wide request from burying the fleet.
3. **Fault mapping.**  Frames are transport only: every job in one *is*
   a :class:`~repro.core.lifecycle.JobLifecycle` — the same failure
   policy local runs obey — with its own future, and the coordinator
   only reports what it observed and carries out the answer
   (:meth:`Coordinator._apply`).  A worker disconnect is
   ``on_crash`` for each unreported job of the frames it held (so is a
   reply that skips a job), an overdue frame ``on_timeout`` for each of
   its jobs — a frame runs serially and answers once, so it is overdue
   when the *sum* of its jobs' soft deadlines has passed, the one moment
   a coordinator can observe; first result wins, late duplicates are
   dropped — a job whose worker spent its retry budget ``on_error``
   while its frame-mates' values are delivered from the same reply; a
   returned delay becomes a backoff before the job is requeued — as a
   frame of one, so a poison job is alone by its second attempt — and the
   degrade-mode fallback the lifecycle may accept is execution on the
   coordinator's own CPU.  With no live workers at all the coordinator
   *is* the fleet and runs jobs locally, recording "fallback".  All of
   it lands in the request's ``SuperSimResult.faults`` — the same ledger
   local runs use.
4. **Shared cache.**  Every request's engine is pointed at the
   coordinator's one :class:`~repro.backends.cache.VariantCache`, so
   concurrent sweeps from different clients deduplicate simulation work.

5. **Resilience.**  What an accepted request is owed — executed once,
   charged once, its reply kept until acknowledged or expired, across
   reconnects and (with ``--journal-db``) restarts — is
   :mod:`repro.service.requests`; the coordinator accepts, executes and
   finishes requests through that ledger and saves quota levels beside
   it.  Its own share: heartbeat ping/pong detects dead workers even on
   half-open sockets and requeues their jobs through the crash taxonomy;
   a peer sending garbage frames is disconnected alone (``peer_error``
   fault) instead of tearing down the loop; and ``drain()`` / SIGTERM
   stops admitting, finishes in-flight work and flushes the journal.

Determinism survives distribution because job seeds derive from content
fingerprints before dispatch: *where* a job runs, how often it was
retried, and in what order results return never change a single bit of
the output.  That same invariant is what makes journal-replay recovery
exact: a re-executed ticket produces the bit-identical result the dead
coordinator would have returned.

``python -m repro.service.coordinator [--port P] [--quota-rate R] ...``
runs a standalone coordinator; tests and notebooks use
:meth:`Coordinator.start_in_thread`.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import dataclasses
import heapq
import itertools
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.backends.cache import resolve_cache
from repro.core.lifecycle import FaultPolicy, JobLifecycle
from repro.errors import FaultReport, ReproError, ServiceError
from repro.service.admission import AdmissionController
from repro.service.journal import CoordinatorJournal
from repro.service.protocol import (
    PROTOCOL_VERSION,
    encode_frame,
    read_message,
    write_frame,
    write_message,
)
from repro.service.requests import Request, RequestLedger

__all__ = ["Coordinator", "main"]

#: most jobs one frame carries.  A frame costs a fixed wire round trip and
#: pickle preamble whatever it holds, so frames should be long; but a lost
#: worker charges a crash (and a redispatch alone) to every job of the frame
#: it held, and a hung one is noticed only when the whole frame is overdue.
_MAX_FRAME_JOBS = 64


def _split_frames(jobs: list, lanes: int, cap: int) -> list[list]:
    """Deal a batch into frames of near-equal length: one per lane, more
    only where a frame would exceed ``cap`` jobs.  Dealt round-robin, not
    sliced: a batch lists its jobs fragment by fragment and the jobs of a
    fragment cost alike, so every frame gets its share of the heavy ones."""
    if not jobs:
        return []
    count = max(min(max(1, lanes), len(jobs)), -(-len(jobs) // cap))
    return [jobs[index::count] for index in range(count)]


class _WorkerHandle:
    """Coordinator-side state for one connected worker."""

    __slots__ = (
        "wid",
        "name",
        "slots",
        "writer",
        "wlock",
        "inflight",
        "peak_inflight",
        "completed",
        "alive",
        "last_seen",
    )

    def __init__(self, wid: int, name: str, slots: int, writer, now: float):
        self.wid = wid
        self.name = name
        self.slots = max(1, int(slots))
        self.writer = writer
        # job frames and heartbeat pings share the stream: serialise writes
        self.wlock = asyncio.Lock()
        # the frames this worker holds, one per lane in use: fid -> frame
        self.inflight: dict[int, _Frame] = {}
        self.peak_inflight = 0
        self.completed = 0
        self.alive = True
        self.last_seen = now


class _PendingJob(JobLifecycle):
    """One variant job in the coordinator's queue or in flight: its
    failure lifecycle plus the dispatch bookkeeping around it."""

    __slots__ = ("jid", "ctx", "future")

    def __init__(self, jid: int, job, ctx, future):
        super().__init__(job, ctx.policy, [])
        self.jid = jid
        self.ctx = ctx
        self.future = future


class _Frame:
    """Jobs in flight to one worker lane as one message.  While it sits in
    its worker's ``inflight`` it answers for every job it carries.

    ``deadline`` is when the reply is overdue: a frame runs serially and
    answers once, so the one moment the coordinator can hold against the
    jobs' soft deadlines is their sum (``None`` when a job has none — the
    reply is then due at no knowable time)."""

    __slots__ = ("jobs", "deadline")

    def __init__(self, jobs: list[_PendingJob], now: float):
        self.jobs = jobs
        timeouts = [pending.job.timeout for pending in jobs]
        self.deadline = None if None in timeouts else now + sum(timeouts)


class _RequestContext:
    """Everything one admitted request carries through execution."""

    __slots__ = ("tenant", "priority", "execution", "policy")

    def __init__(self, tenant: str, priority: int, execution):
        self.tenant = tenant
        self.priority = int(priority)
        self.execution = execution
        self.policy = FaultPolicy.of(execution)


class Coordinator:
    """The service control plane.  See the module docstring for the model.

    ``cache`` accepts anything :func:`~repro.backends.cache.resolve_cache`
    does — ``True`` (default: a fresh in-memory LRU), an existing
    :class:`~repro.backends.cache.VariantCache`, or ``False`` to disable
    sharing.
    ``quota_rate`` / ``quota_capacity`` enable admission control
    (cost units per second / burst); ``None`` admits everything.

    ``journal`` accepts a path (or an existing
    :class:`~repro.service.journal.CoordinatorJournal`) to make accepted
    work durable: a coordinator restarted on the same journal recovers
    pending tickets, completed-but-unacknowledged replies, idempotency
    keys and per-tenant quota levels.  ``heartbeat_interval`` /
    ``heartbeat_misses`` configure proactive worker liveness (``None``
    disables pings and falls back to TCP disconnect detection);
    ``ticket_ttl`` bounds how long completed tickets and idempotency
    keys are retained awaiting a client acknowledgement.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        quota_rate: float | None = None,
        quota_capacity: float | None = None,
        max_inflight_per_worker: int = 4,
        cache=True,
        clock=time.monotonic,
        request_threads: int = 8,
        journal=None,
        ticket_ttl: float = 600.0,
        heartbeat_interval: float | None = 5.0,
        heartbeat_misses: int = 3,
    ):
        self.host = host
        self.port = port
        self.cache = resolve_cache(cache)
        self.admission = AdmissionController(
            quota_rate, quota_capacity, clock=clock
        )
        self.max_inflight_per_worker = max(1, int(max_inflight_per_worker))
        self._owns_journal = bool(journal) and not isinstance(
            journal, CoordinatorJournal
        )
        self.journal = (
            CoordinatorJournal(journal) if self._owns_journal else journal or None
        )
        self.requests = RequestLedger(self.journal)
        self.ticket_ttl = float(ticket_ttl)
        self.heartbeat_interval = (
            float(heartbeat_interval) if heartbeat_interval else None
        )
        self.heartbeat_misses = max(1, int(heartbeat_misses))
        self.faults = FaultReport()  # coordinator-level ledger (peer faults)
        self.address: str | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._server = None
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, request_threads), thread_name_prefix="svc-req"
        )
        self._workers: dict[int, _WorkerHandle] = {}
        self._jobs: dict[int, _PendingJob] = {}
        # frames awaiting a lane: (priority, seq, jobs)
        self._queue: list[tuple[int, int, list[_PendingJob]]] = []
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        self._kick: asyncio.Event | None = None
        self._stopping: asyncio.Event | None = None
        self._draining = False
        self._active_requests = 0
        self._tasks: set[asyncio.Task] = set()
        self._thread: threading.Thread | None = None
        self.counters = {
            "requests": 0,
            "completed": 0,
            "errors": 0,
            "rejected": 0,
            "frames_dispatched": 0,
            "jobs_dispatched": 0,
            "jobs_completed": 0,
            "jobs_local": 0,
            "jobs_requeued": 0,
            "workers_lost": 0,
            "peer_errors": 0,
            "heartbeat_deaths": 0,
            "recovered_tickets": 0,
            "acks": 0,
            "idempotent_hits": 0,
            "expired_tickets": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> str:
        """Bind the listening socket; returns the bound ``host:port``."""
        self.loop = asyncio.get_running_loop()
        self._kick = asyncio.Event()
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self._spawn(self._dispatch_loop())
        self._spawn(self._deadline_loop())
        if self.heartbeat_interval is not None:
            self._spawn(self._heartbeat_loop())
        if self.ticket_ttl > 0:
            self._spawn(self._gc_loop())
        try:
            self._recover()
        except Exception:
            # a journal that cannot be adopted leaves no half-started
            # coordinator behind, and no address to connect to
            await self._shutdown_async()
            raise
        bound = self._server.sockets[0].getsockname()
        self.address = f"{bound[0]}:{bound[1]}"
        return self.address

    def _recover(self) -> None:
        """Adopt the journal of a dead predecessor (same ``--journal-db``):
        quota levels first, so nothing recovered is charged a second time,
        then the ledger's requests; submits it left pending re-execute."""
        if self.journal is None:
            return
        self.admission.restore(self.journal.load_quota())
        for request, message in self.requests.restore(time.monotonic()):
            self.counters["recovered_tickets"] += 1
            self.faults.record(
                "recovery",
                detail=(
                    f"re-executing journaled ticket {request.ticket} "
                    f"(tenant {request.tenant})"
                ),
            )
            self._spawn(self._complete(request, message))

    async def serve_forever(self) -> None:
        await self._stopping.wait()
        await self._shutdown_async()

    async def _shutdown_async(self) -> None:
        self._stopping.set()
        for handle in list(self._workers.values()):
            try:
                await write_message(handle.writer, {"type": "stop"})
                handle.writer.close()
            except (ConnectionError, OSError, RuntimeError):
                pass
        for pending in list(self._jobs.values()):
            if not pending.future.done():
                pending.future.set_exception(
                    ServiceError("coordinator shut down with jobs pending")
                )
        self._jobs.clear()
        self._queue.clear()
        for task in list(self._tasks):
            task.cancel()
        self._server.close()
        await self._server.wait_closed()
        self._executor.shutdown(wait=False, cancel_futures=True)
        # bounded join of request threads so none is orphaned; joined
        # off-loop so pending run_coroutine_threadsafe
        # results can still flush back to the threads being joined
        threads = list(getattr(self._executor, "_threads", ()))
        if threads:
            def _join_all():
                deadline = time.monotonic() + 5.0
                for thread in threads:
                    thread.join(timeout=max(0.0, deadline - time.monotonic()))
            await self.loop.run_in_executor(None, _join_all)
        if self.journal is not None:
            self.journal.flush()
            if self._owns_journal:
                self.journal.close()

    def _spawn(self, coro) -> asyncio.Task:
        task = self.loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def start_in_thread(self) -> str:
        """Run the coordinator on a daemon thread; returns its address.

        The idiom for tests, notebooks and the demo: start, connect
        clients/workers, and :meth:`shutdown` when done.
        """
        started = threading.Event()
        failure: list[BaseException] = []

        def runner():
            async def body():
                await self.start()
                started.set()
                await self.serve_forever()

            try:
                asyncio.run(body())
            except BaseException as exc:
                failure.append(exc)  # recorded before the caller wakes
            finally:
                started.set()

        self._thread = threading.Thread(
            target=runner, name="svc-coordinator", daemon=True
        )
        self._thread.start()
        started.wait(timeout=30)
        if failure:
            raise failure[0]
        if self.address is None:
            raise ServiceError("coordinator failed to start within 30s")
        return self.address

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop a coordinator started with :meth:`start_in_thread`."""
        if self.loop is not None and self.loop.is_running():
            self.loop.call_soon_threadsafe(self._stopping.set)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    async def _drain_async(self, timeout: float = 30.0) -> None:
        """Graceful drain: stop admitting, finish in-flight, flush journal.

        New ``run`` / ``sweep`` / ``submit`` requests are rejected with
        ``reason="draining"`` (a retryable rejection — reconnecting
        clients back off and try the successor); requests and jobs
        already accepted run to completion (bounded by ``timeout``).
        """
        self._draining = True
        deadline = self.loop.time() + max(0.0, timeout)
        while self._active_requests > 0 or self._jobs or self._queue:
            if self.loop.time() >= deadline:
                break
            await asyncio.sleep(0.05)
        if self.journal is not None:
            self.journal.flush()

    def drain(self, timeout: float = 30.0) -> None:
        """Thread-safe :meth:`_drain_async` (pairs with ``shutdown``)."""
        if self.loop is None or not self.loop.is_running():
            return
        asyncio.run_coroutine_threadsafe(
            self._drain_async(timeout), self.loop
        ).result(timeout=timeout + 10.0)

    def __enter__(self) -> "Coordinator":
        self.start_in_thread()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- connection handling -------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        try:
            hello = await read_message(reader)
            if not hello or hello.get("type") != "hello":
                writer.close()
                return
            await write_message(writer, {
                "type": "welcome",
                "version": PROTOCOL_VERSION,
                "heartbeat": self.heartbeat_interval,
                "heartbeat_misses": self.heartbeat_misses,
            })
            if hello.get("role") == "worker":
                await self._worker_loop(hello, reader, writer)
            else:
                await self._client_loop(hello, reader, writer)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        except Exception as exc:
            # a corrupt/oversize/garbage frame from one peer must never
            # tear down the coordinator: disconnect that peer, keep serving
            self._peer_error(exc)
        finally:
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop tearing down
                pass

    def _peer_error(self, exc: BaseException) -> None:
        self.counters["peer_errors"] += 1
        self.faults.record(
            "peer_error",
            detail=f"{type(exc).__name__}: {exc}; peer disconnected",
        )

    # -- worker side ---------------------------------------------------------

    async def _worker_loop(self, hello, reader, writer) -> None:
        wid = next(self._ids)
        handle = _WorkerHandle(
            wid,
            name=str(hello.get("name", f"worker-{wid}")),
            slots=int(hello.get("slots", 1)),
            writer=writer,
            now=self.loop.time(),
        )
        self._workers[wid] = handle
        self._kick.set()
        try:
            while True:
                message = await read_message(reader)
                if message is None:
                    break
                handle.last_seen = self.loop.time()
                kind = message.get("type")
                if kind == "job_result":
                    self._on_frame_result(handle, message)
                # pong / worker_error need no bookkeeping beyond last_seen
        except (ConnectionError, OSError):
            pass
        finally:
            self._on_worker_lost(handle)

    def _lanes(self, handle: _WorkerHandle) -> int:
        return min(handle.slots, self.max_inflight_per_worker)

    def _on_frame_result(self, handle: _WorkerHandle, message: dict) -> None:
        # None: a frame already written off (overdue, or its worker declared
        # dead) answering late — its values still count, first result wins
        frame = handle.inflight.pop(message["frame"], None)
        self._kick.set()
        handle.completed += len(message["results"])
        reported = set()
        for result in message["results"]:
            reported.add(result["jid"])
            pending = self._jobs.get(result["jid"])
            if pending is None:
                continue  # done elsewhere first, or its batch abandoned
            if "exception" not in result:
                del self._jobs[pending.jid]
                pending.absorb(result["faults"])
                self.counters["jobs_completed"] += 1
                if not pending.future.done():
                    pending.future.set_result(result["value"])
            elif frame is not None:
                # the worker spent its whole retry budget: absorb the survived
                # attempts, then the final failure is the lifecycle's to decide
                pending.absorb(result["faults"])
                self._apply(
                    pending,
                    pending.on_error,
                    result["exception"],
                    self._fall_back_local,
                )
        if frame is not None:
            # a reply that skips a job it was sent leaves that job with nobody
            self._lose(
                [p for p in frame.jobs if p.jid not in reported],
                f"worker {handle.name} answered its frame without the job",
            )

    def _lose(self, jobs: list[_PendingJob], reason: str) -> None:
        """``on_crash`` for each job of a frame nobody will answer for."""
        for pending in jobs:
            if pending.jid in self._jobs:  # else done first, or abandoned
                self._apply(
                    pending, pending.on_crash, reason, self._fall_back_local
                )

    def _on_worker_lost(self, handle: _WorkerHandle) -> None:
        if not handle.alive:
            return
        handle.alive = False
        self._workers.pop(handle.wid, None)
        if self._stopping.is_set():
            return
        if handle.inflight:
            self.counters["workers_lost"] += 1
        for frame in handle.inflight.values():
            self._lose(frame.jobs, f"worker {handle.name} disconnected")
        handle.inflight.clear()
        self._kick.set()

    def _apply(self, pending: _PendingJob, decide, *args) -> None:
        """Carry out one lifecycle decision for a job no worker holds.

        ``decide(*args)`` is one of ``pending.on_*``.  A returned delay
        is the backoff before the job rejoins the queue; ``None`` means
        :meth:`_fall_back_local` took the job; a raised engine error
        fails the job's future (and with it the batch).
        """
        try:
            delay = decide(*args)
        except ReproError as exc:
            self._jobs.pop(pending.jid, None)
            if not pending.future.done():
                pending.future.set_exception(exc)
            return
        if delay is not None:
            self.loop.call_later(delay, self._requeue, pending)

    def _fall_back_local(self, pending: _PendingJob, reason: str) -> bool:
        """The service's degrade-mode fallback: the coordinator's own CPU."""
        pending.fell_back(f"re-running on coordinator after {reason}")
        self._spawn(self._run_local(pending))
        return True

    # -- dispatch ------------------------------------------------------------

    def _requeue(self, pending: _PendingJob) -> None:
        """Back in the queue after a failure, as a frame of one: whatever
        happens to the next attempt happens to this job alone."""
        # known prior failures feed the attempt counter, so a chaos
        # schedule bounded by fail_attempts converges on redispatch
        pending.job.attempt = pending.attempt
        self.counters["jobs_requeued"] += 1
        self._enqueue([pending])

    def _enqueue(self, jobs: list[_PendingJob]) -> None:
        heapq.heappush(self._queue, (jobs[0].ctx.priority, next(self._seq), jobs))
        self._kick.set()

    async def _dispatch_loop(self) -> None:
        while not self._stopping.is_set():
            await self._kick.wait()
            self._kick.clear()
            await self._pump()

    def _pick_worker(self) -> _WorkerHandle | None:
        best = None
        best_free = 0
        for handle in self._workers.values():
            free = self._lanes(handle) - len(handle.inflight)
            if free > best_free:
                best, best_free = handle, free
        return best

    async def _pump(self) -> None:
        while self._queue:
            handle = self._pick_worker()
            if handle is None and self._workers:
                return  # every lane of every worker taken: back-pressure
            _, _, jobs = heapq.heappop(self._queue)
            # skip jobs of an abandoned batch
            jobs = [p for p in jobs if p.jid in self._jobs]
            if not jobs:
                continue
            if handle is not None:
                await self._send_frame(handle, jobs)
                continue
            # degrade-to-local: no fleet, the coordinator is the fleet
            for pending in jobs:
                pending.fell_back("no live workers; executing on coordinator")
                self._spawn(self._run_local(pending))

    async def _send_frame(
        self, handle: _WorkerHandle, jobs: list[_PendingJob]
    ) -> None:
        fid = next(self._ids)
        try:
            # encoded before anything is marked in flight: a job that cannot
            # travel fails its own batch and nothing else
            wire = encode_frame({
                "type": "job",
                "frame": fid,
                "jobs": [(pending.jid, pending.job) for pending in jobs],
                "policy": jobs[0].policy,
            })
        except Exception as exc:
            error = ServiceError(
                f"job frame could not be encoded: {type(exc).__name__}: {exc}"
            )
            for pending in jobs:
                del self._jobs[pending.jid]
                if not pending.future.done():
                    pending.future.set_exception(error)
            return
        handle.inflight[fid] = _Frame(jobs, self.loop.time())
        handle.peak_inflight = max(handle.peak_inflight, len(handle.inflight))
        self.counters["frames_dispatched"] += 1
        self.counters["jobs_dispatched"] += len(jobs)
        try:
            async with handle.wlock:
                await write_frame(handle.writer, wire)
        except (ConnectionError, OSError):
            self._on_worker_lost(handle)

    async def _deadline_loop(self) -> None:
        """Soft-deadline monitor: write an overdue frame off — its lane
        returns, first result wins if the worker still answers — and ask
        the lifecycle of each job it carried."""
        while not self._stopping.is_set():
            await asyncio.sleep(0.05)
            now = self.loop.time()
            for handle in list(self._workers.values()):
                for fid, frame in list(handle.inflight.items()):
                    if frame.deadline is None or frame.deadline > now:
                        continue
                    del handle.inflight[fid]
                    self._kick.set()
                    for pending in frame.jobs:
                        if pending.jid in self._jobs:
                            self._apply(
                                pending, pending.on_timeout, self._fall_back_local
                            )

    # -- liveness & garbage collection ----------------------------------------

    async def _heartbeat_loop(self) -> None:
        """Proactive worker liveness: ping every interval, declare a worker
        dead after ``heartbeat_misses`` silent intervals (even when the TCP
        connection is still nominally up — half-open sockets, frozen
        processes) and requeue its in-flight jobs through the crash path."""
        interval = self.heartbeat_interval
        while not self._stopping.is_set():
            await asyncio.sleep(interval)
            now = self.loop.time()
            for handle in list(self._workers.values()):
                if now - handle.last_seen > interval * self.heartbeat_misses:
                    self.counters["heartbeat_deaths"] += 1
                    self.faults.record(
                        "heartbeat_miss",
                        detail=(
                            f"worker {handle.name} silent for "
                            f"{now - handle.last_seen:.2f}s "
                            f"(> {self.heartbeat_misses} x {interval:.2f}s); "
                            f"declared dead"
                        ),
                    )
                    try:
                        handle.writer.close()
                    except (RuntimeError, OSError):
                        pass
                    self._on_worker_lost(handle)
                    continue
                self._spawn(self._ping_worker(handle))

    async def _ping_worker(self, handle: _WorkerHandle) -> None:
        try:
            async with handle.wlock:
                await write_message(handle.writer, {"type": "ping"})
        except (ConnectionError, OSError, RuntimeError):
            self._on_worker_lost(handle)

    async def _gc_loop(self) -> None:
        """TTL sweep of unacknowledged replies and paid idempotency keys."""
        period = min(1.0, max(0.05, self.ticket_ttl / 4))
        while not self._stopping.is_set():
            await asyncio.sleep(period)
            self.counters["expired_tickets"] += self.requests.expire(
                time.monotonic(), self.ticket_ttl
            )

    # -- local (degraded) execution -----------------------------------------

    async def _run_local(self, pending: _PendingJob) -> None:
        """Run one job on a request thread, through the same retry loop a
        worker would apply; its outcome folds back into the lifecycle."""
        from repro.service.worker import _execute_with_retries

        self.counters["jobs_local"] += 1
        job = pending.job
        job.in_process = False  # a chaos crash must not kill the coordinator
        job.attempt = pending.attempt
        events: list = []
        failure = None
        try:
            value = await self.loop.run_in_executor(
                self._executor, _execute_with_retries, job, pending.policy, events
            )
        except Exception as exc:
            failure = exc.__cause__ or exc
        pending.absorb(events)
        if failure is not None:
            # the last resort failed too: no further fallback is offered
            self._apply(pending, pending.on_error, failure)
            return
        self._jobs.pop(pending.jid, None)
        self.counters["jobs_completed"] += 1
        if not pending.future.done():
            pending.future.set_result(value)

    # -- the job_runner bridge (request threads <-> event loop) --------------

    def _job_runner_for(self, ctx: _RequestContext):
        def runner(jobs, faults):
            if not jobs:
                return {}
            future = asyncio.run_coroutine_threadsafe(
                self._run_batch(ctx, list(jobs)), self.loop
            )
            results, events = future.result()
            faults.events.extend(events)
            return results

        return runner

    async def _run_batch(self, ctx: _RequestContext, jobs) -> tuple[dict, list]:
        pendings = [
            _PendingJob(next(self._ids), job, ctx, self.loop.create_future())
            for job in jobs
        ]
        self._jobs.update((pending.jid, pending) for pending in pendings)
        lanes = sum(self._lanes(handle) for handle in self._workers.values())
        for frame in _split_frames(pendings, lanes, _MAX_FRAME_JOBS):
            self._enqueue(frame)
        outcomes = await asyncio.gather(
            *[p.future for p in pendings], return_exceptions=True
        )
        failure = next(
            (o for o in outcomes if isinstance(o, BaseException)), None
        )
        if failure is not None:
            # abandon the rest of this batch: its queued jobs are skipped at
            # dispatch, in-flight results for dropped jids are ignored
            for pending in pendings:
                self._jobs.pop(pending.jid, None)
            raise failure
        events = [event for p in pendings for event in p.events]
        return (
            {p.job.key: value for p, value in zip(pendings, outcomes)},
            events,
        )

    # -- request execution (thread side) -------------------------------------

    def _build_sim(self, msg: dict, ctx: _RequestContext):
        from repro.core.supersim import SuperSim

        sim = SuperSim(
            cut=msg.get("cut"),
            sampling=msg.get("sampling"),
            execution=ctx.execution,
            reconstruction=msg.get("reconstruction"),
        )
        sim.variant_cache = self.cache
        sim._job_runner = self._job_runner_for(ctx)
        return sim

    def _make_ctx(self, msg: dict) -> _RequestContext:
        from repro.core.config import ExecutionConfig

        execution = msg.get("execution") or ExecutionConfig()
        return _RequestContext(
            tenant=str(msg.get("tenant", "default")),
            priority=int(msg.get("priority", 0)),
            execution=execution,
        )

    def _admit(self, ctx: _RequestContext, estimate, points: int = 1,
               key: str | None = None):
        # a client retry of an already-admitted request (idempotency key
        # seen before, possibly journaled by a dead predecessor) is not
        # charged a second time
        if self.requests.charged(key):
            self.counters["idempotent_hits"] += 1
            return None
        cost = estimate.total_cost * max(1, points)
        ok, retry_after = self.admission.admit(ctx.tenant, cost)
        if ok:
            self.requests.charge(key, time.monotonic())
            if self.journal is not None and self.admission.enabled:
                self.journal.save_quota(self.admission.snapshot())
            return None
        self.counters["rejected"] += 1
        return {
            "type": "rejected",
            "retry_after": retry_after,
            "estimate": estimate.to_dict(),
            "cost": cost,
        }

    @contextlib.contextmanager
    def _planned(self, msg: dict):
        """One request's ``(context, plan)``; its engine is released on
        exit."""
        ctx = self._make_ctx(msg)
        sim = self._build_sim(msg, ctx)
        try:
            yield ctx, sim.plan(
                msg["circuit"],
                keep_qubits=msg.get("keep_qubits"),
                cuts=msg.get("cuts"),
            )
        finally:
            sim.close()

    def _execute_run(self, msg: dict) -> dict:
        with self._planned(msg) as (ctx, plan):
            estimate = plan.estimate()
            rejection = self._admit(
                ctx, estimate, key=msg.get("idempotency")
            )
            if rejection is not None:
                return rejection
            result = plan.execute()
        self.counters["completed"] += 1
        return {
            "type": "result",
            "result": result,
            "estimate": estimate.to_dict(),
        }

    def _execute_estimate(self, msg: dict) -> dict:
        with self._planned(msg) as (_ctx, plan):
            return {"type": "estimate", "estimate": plan.estimate().to_dict()}

    def _execute_sweep(self, msg: dict, send) -> dict:
        """Streams the points and ``sweep_done`` through ``send``; returns
        the terminal reply — ``sweep_done``, or the unsent rejection."""
        ctx = self._make_ctx(msg)
        sim = self._build_sim(msg, ctx)
        try:
            circuits = msg["circuits"]
            params = msg.get("params") or list(range(len(circuits)))
            estimate = sim.plan(
                circuits[0], keep_qubits=msg.get("keep_qubits")
            ).estimate()
            rejection = self._admit(
                ctx, estimate, points=len(circuits),
                key=msg.get("idempotency"),
            )
            if rejection is not None:
                return rejection
            count = 0
            for point in sim.sweep(
                lambda i: circuits[i],
                range(len(circuits)),
                keep_qubits=msg.get("keep_qubits"),
                reuse_cuts=msg.get("reuse_cuts", True),
            ):
                point = dataclasses.replace(point, params=params[point.index])
                send({"type": "sweep_point", "point": point})
                count += 1
        finally:
            sim.close()
        self.counters["completed"] += 1
        done = {"type": "sweep_done", "count": count}
        send(done)
        return done

    # -- client side ---------------------------------------------------------

    async def _client_loop(self, hello, reader, writer) -> None:
        lock = asyncio.Lock()
        while True:
            message = await read_message(reader)
            if message is None:
                break
            kind = message.get("type")
            handler = getattr(self, f"_msg_{kind}", None)
            if handler is None:
                await self._send(writer, lock, {
                    "type": "error",
                    "error": f"unknown message type {kind!r}",
                })
                continue
            try:
                await handler(message, writer, lock)
            except (ConnectionError, OSError):
                raise
            except Exception as exc:
                self.counters["errors"] += 1
                await self._send(writer, lock, self._error_reply(exc))

    async def _send(self, writer, lock, message: dict) -> None:
        async with lock:
            await write_message(writer, message)

    @staticmethod
    def _error_reply(exc: BaseException) -> dict:
        return {
            "type": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "exception": exc,
        }

    async def _in_request_thread(self, fn, *args):
        """Run one request on the request pool, counted as active while it
        runs; an exception it raises comes back as an error reply."""
        self._active_requests += 1
        try:
            return await self.loop.run_in_executor(self._executor, fn, *args)
        except Exception as exc:
            self.counters["errors"] += 1
            return self._error_reply(exc)
        finally:
            self._active_requests -= 1

    def _thread_sender(self, writer, lock):
        """A sync callable request threads use to stream replies out."""

        def send(message: dict) -> None:
            asyncio.run_coroutine_threadsafe(
                self._send(writer, lock, message), self.loop
            ).result()

        return send

    async def _accept(self, kind, message, writer, lock) -> Request | None:
        """Take ``message`` into the ledger as a new ``kind`` request, or
        answer it here and return ``None``: a resent key gets what the
        first attempt got (also while draining), a draining coordinator
        admits nothing new."""
        existing = self.requests.lookup(message.get("idempotency"))
        if existing is not None:
            # a resend after a dropped reply: execute nothing, charge nothing
            self.counters["idempotent_hits"] += 1
            if kind == "submit":
                reply = {
                    "type": "submitted",
                    "ticket": existing.ticket,
                    "duplicate": True,
                }
            else:
                reply = existing.reply or await asyncio.shield(existing.waiter)
            await self._send(writer, lock, reply)
            return None
        if self._draining:
            self.counters["rejected"] += 1
            await self._send(writer, lock, {
                "type": "rejected", "reason": "draining", "retry_after": 1.0,
            })
            return None
        self.counters["requests"] += 1
        request = self.requests.accept(kind, message)
        request.waiter = self.loop.create_future()
        return request

    async def _complete(self, request: Request, message: dict, *send) -> dict:
        """Execute an accepted request on a request thread and finish it."""
        execute = (
            self._execute_sweep if request.kind == "sweep" else self._execute_run
        )
        reply = await self._in_request_thread(execute, message, *send)
        self.requests.finish(request, reply, time.monotonic())
        if request.waiter is not None:
            request.waiter.set_result(reply)
        return reply

    async def _msg_run(self, message, writer, lock) -> None:
        request = await self._accept("run", message, writer, lock)
        if request is not None:
            reply = await self._complete(request, message)
            await self._send(writer, lock, reply)

    async def _msg_estimate(self, message, writer, lock) -> None:
        reply = await self.loop.run_in_executor(
            self._executor, self._execute_estimate, message
        )
        await self._send(writer, lock, reply)

    async def _msg_sweep(self, message, writer, lock) -> None:
        request = await self._accept("sweep", message, writer, lock)
        if request is not None:
            reply = await self._complete(
                request, message, self._thread_sender(writer, lock)
            )
            if reply["type"] != "sweep_done":  # the stream sent that itself
                await self._send(writer, lock, reply)

    async def _msg_submit(self, message, writer, lock) -> None:
        request = await self._accept("submit", message, writer, lock)
        if request is not None:
            self._spawn(self._complete(request, message))
            await self._send(
                writer, lock, {"type": "submitted", "ticket": request.ticket}
            )

    async def _msg_poll(self, message, writer, lock) -> None:
        ticket = message.get("ticket")
        request = self.requests.get(ticket)
        if request is None:
            # kept until acknowledged or expired, so unknown really is
            # unknown — not a result an earlier dropped poll reply consumed
            reply = {"type": "error", "error": f"unknown ticket {ticket!r}"}
        else:
            reply = request.reply or {"type": "pending"}
        await self._send(writer, lock, dict(reply, ticket=ticket))

    async def _msg_ack(self, message, writer, lock) -> None:
        ticket = message.get("ticket")
        if self.requests.acknowledge(ticket):
            self.counters["acks"] += 1
        await self._send(writer, lock, {"type": "acked", "ticket": ticket})

    async def _msg_ping(self, message, writer, lock) -> None:
        await self._send(writer, lock, {"type": "pong"})

    async def _msg_drain(self, message, writer, lock) -> None:
        await self._drain_async(timeout=float(message.get("timeout", 30.0)))
        await self._send(writer, lock, {
            "type": "drained",
            "stats": self.stats(),
        })

    async def _msg_stats(self, message, writer, lock) -> None:
        await self._send(writer, lock, {"type": "stats", "stats": self.stats()})

    async def _msg_shutdown(self, message, writer, lock) -> None:
        await self._send(writer, lock, {"type": "bye"})
        self._stopping.set()

    async def _msg_cache_stats(self, message, writer, lock) -> None:
        stats = self.cache.stats() if self.cache is not None else {}
        await self._send(writer, lock, {"type": "cache_stats", "stats": stats})

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """A JSON-able snapshot of the whole service's state."""
        return {
            **self.counters,
            "queue_depth": len(self._queue),
            "jobs_pending": len(self._jobs),
            "tickets": len(self.requests),
            "draining": self._draining,
            "workers": {
                handle.name: {
                    "slots": handle.slots,
                    "inflight": len(handle.inflight),
                    "peak_inflight": handle.peak_inflight,
                    "completed": handle.completed,
                }
                for handle in self._workers.values()
            },
            "max_inflight_per_worker": self.max_inflight_per_worker,
            "heartbeat": {
                "interval": self.heartbeat_interval,
                "misses": self.heartbeat_misses,
            },
            "faults": self.faults.summary(),
            "admission": self.admission.stats(),
            "journal": (
                self.journal.stats() if self.journal is not None else None
            ),
            "cache": self.cache.stats() if self.cache is not None else None,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="repro execution-service coordinator",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument(
        "--quota-rate",
        type=float,
        default=None,
        help="per-tenant admission rate in cost units/second (default: off)",
    )
    parser.add_argument("--quota-capacity", type=float, default=None)
    parser.add_argument("--max-inflight-per-worker", type=int, default=4)
    parser.add_argument(
        "--journal-db",
        default=None,
        metavar="PATH",
        help=(
            "durable coordinator journal (SQLite WAL): accepted tickets, "
            "idempotency keys and quota levels survive a restart"
        ),
    )
    parser.add_argument(
        "--ticket-ttl",
        type=float,
        default=600.0,
        help="seconds completed tickets await acknowledgement before GC",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=5.0,
        help="worker liveness ping period in seconds (0 disables)",
    )
    parser.add_argument(
        "--heartbeat-misses",
        type=int,
        default=3,
        help="silent intervals before a worker is declared dead",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="SIGTERM grace: seconds to finish in-flight work before exit",
    )
    args = parser.parse_args(argv)

    coordinator = Coordinator(
        host=args.host,
        port=args.port,
        quota_rate=args.quota_rate,
        quota_capacity=args.quota_capacity,
        max_inflight_per_worker=args.max_inflight_per_worker,
        journal=args.journal_db,
        ticket_ttl=args.ticket_ttl,
        heartbeat_interval=args.heartbeat_interval or None,
        heartbeat_misses=args.heartbeat_misses,
    )

    async def serve():
        address = await coordinator.start()
        print(f"coordinator listening on {address}", flush=True)

        def on_sigterm():
            async def graceful():
                await coordinator._drain_async(timeout=args.drain_timeout)
                coordinator._stopping.set()

            coordinator._spawn(graceful())

        try:
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, on_sigterm
            )
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-POSIX loop: SIGTERM stays a hard kill
        await coordinator.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
