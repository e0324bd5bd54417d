"""The service worker: pull variant jobs, simulate, stream results back.

``python -m repro.service.worker --connect host:port [--slots N]``
joins a coordinator's fleet.  A worker is deliberately thin — it owns no
policy.  It announces a *slot count* (its lanes; the coordinator never
keeps more than that many of this worker's frames in flight), then
loops: receive a ``job`` frame — a list of ``(jid, job)`` pairs of
pickled engine :class:`~repro.core.evaluator._Job` objects and the
request's :class:`~repro.core.lifecycle.FaultPolicy` — run its jobs in
order through the same module-level ``_execute_job`` the local pools
use, and answer with one ``job_result`` frame carrying each job's value
— a :class:`~repro.core.evaluator.VariantData`, or a Clifford fragment
job's tuple of them — or the exception that ended it (shapes in :mod:`repro.service.protocol`, version 2; a welcome of
another version is refused and not retried).

A transient backend failure is cheapest to retry where the job already
is, so :func:`_execute_with_retries` drives a
:class:`~repro.core.lifecycle.JobLifecycle` under the ``retry_only()``
view of the :class:`~repro.core.lifecycle.FaultPolicy` shipped with the
frame — the same budget and backoff every runner applies — and the worker
reports the survived attempts as ``FaultEvent("retry")`` records
alongside each job's result.  Everything else — crash accounting, quarantine,
timeouts, degrade fallbacks — the coordinator decides (through the same
lifecycle class), because only it can see a worker die.

A worker outlives its coordinator: on connection loss it rejoins with
jittered exponential backoff (see :func:`run_worker`), answering the
coordinator's heartbeat pings and bounding its blocking reads by the
advertised heartbeat so a silently dead coordinator surfaces as a
reconnect, not a hang.  Only an explicit ``stop`` ends the worker.

Jobs run with ``in_process=True``: a chaos-schedule "crash" action is a
real ``os._exit`` that kills this whole process mid-frame, which is
exactly the failure the coordinator's crash accounting is tested
against.  Determinism is untouched by any of this: job seeds are derived
from content fingerprints before dispatch, so *which* worker runs a job
never changes its output.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

from repro.core.lifecycle import FaultPolicy, JobLifecycle
from repro.errors import ConnectionLostError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Transport,
    backoff_delay,
    connect,
)

__all__ = ["run_worker", "main"]


def _execute_with_retries(job, policy: FaultPolicy, events: list):
    """Run one job, retrying raised exceptions where the job already is.

    Survived attempts are appended to ``events`` as ``"retry"`` faults,
    one per failure, for the dispatcher to absorb.  Once
    ``policy.retry_only()`` is spent the lifecycle's
    :class:`~repro.errors.BackendExecutionError` propagates, chained to
    the backend's last exception.  A chaos-simulated crash is
    never caught here — with ``in_process=True`` it is an ``os._exit``
    and the process is already gone.
    """
    from repro.core.evaluator import _execute_job

    lifecycle = JobLifecycle(job, policy.retry_only(), events)
    while True:
        job.attempt = lifecycle.attempt
        try:
            return _execute_job(job)
        except Exception as exc:
            delay = lifecycle.on_error(exc)
            if delay:
                time.sleep(delay)


def _serve_session(transport: Transport, name: str, slots: int) -> str:
    """One connected session: handshake, then serve job frames until the
    connection ends.  Returns ``"stop"`` (coordinator said stop — do not
    reconnect) or ``"lost"`` (connection died — reconnect may retry)."""
    transport.send(
        {"type": "hello", "role": "worker", "name": name, "slots": slots, "pid": os.getpid()}
    )
    welcome = transport.recv()
    if not welcome or welcome.get("type") != "welcome":
        raise ConnectionError(f"coordinator refused worker handshake: {welcome!r}")
    if welcome.get("version") != PROTOCOL_VERSION:
        # not a ConnectionError a reconnect could cure: run_worker gives up
        raise ConnectionLostError(
            f"coordinator speaks protocol version {welcome.get('version')!r}, "
            f"this worker version {PROTOCOL_VERSION}"
        )
    heartbeat = welcome.get("heartbeat")
    if heartbeat:
        # a coordinator that heartbeats promises regular traffic: bound
        # our blocking reads so a silently dead coordinator (partition,
        # frozen process) surfaces as a timeout -> reconnect, not a hang
        misses = int(welcome.get("heartbeat_misses", 3) or 3)
        set_deadline = getattr(transport, "set_deadline", None)
        if set_deadline is not None:
            set_deadline(max(10.0, float(heartbeat) * misses * 4.0))

    pool = ThreadPoolExecutor(max_workers=slots, thread_name_prefix=name)
    stop = threading.Event()
    outcome = "lost"

    def handle(fid, jobs, policy):
        started = time.monotonic()
        results = []
        for jid, job in jobs:
            if stop.is_set():
                return
            job.in_process = True  # a chaos crash here is a real os._exit
            result = {"jid": jid, "faults": []}
            try:
                result["value"] = _execute_with_retries(job, policy, result["faults"])
            except Exception as exc:
                # the backend's own exception, for the coordinator's lifecycle
                result["exception"] = exc.__cause__ or exc
                result["traceback"] = traceback.format_exc()
            results.append(result)
        if stop.is_set():
            return
        transport.send(
            {
                "type": "job_result",
                "frame": fid,
                "results": results,
                "elapsed": time.monotonic() - started,
                "worker": name,
            }
        )

    try:
        while True:
            try:
                message = transport.recv()
            except (ConnectionError, OSError):
                break
            if message is None:
                break
            kind = message.get("type")
            if kind == "stop":
                outcome = "stop"
                break
            if kind == "ping":
                transport.send({"type": "pong", "worker": name})
                continue
            if kind == "job":
                pool.submit(
                    handle, message["frame"], message["jobs"], message["policy"]
                )
                continue
            # unknown message: protocol drift — say so rather than hang
            transport.send(
                {"type": "worker_error", "error": f"unknown message type {kind!r}"}
            )
    finally:
        stop.set()
        pool.shutdown(wait=False, cancel_futures=True)
        # bounded join so in-flight job threads (and any process-pool
        # children a backend spawned) are not orphaned past this session
        deadline = time.monotonic() + 5.0
        for thread in list(getattr(pool, "_threads", ())):
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        transport.close()
    return outcome


def run_worker(
    address,
    slots: int = 2,
    name: str | None = None,
    transport: Transport | None = None,
    *,
    reconnect: bool = True,
    reconnect_attempts: int = 10,
    reconnect_backoff: float = 0.5,
    reconnect_backoff_cap: float = 5.0,
) -> None:
    """Join the coordinator at ``address`` and serve jobs until told to stop.

    Blocks for the life of the fleet membership; returns when the
    coordinator sends ``stop``.  ``slots`` is the number of job frames this
    worker executes concurrently (a thread pool — the engine's backends
    release the GIL in their numpy kernels; CPU-bound fleets simply run
    more single-slot workers).

    When the connection dies any other way — coordinator restart,
    network fault — the worker reconnects with jittered exponential
    backoff (``reconnect_backoff`` doubling up to
    ``reconnect_backoff_cap``, at most ``reconnect_attempts``
    consecutive failed connection attempts before giving up with
    :class:`~repro.errors.ConnectionLostError`).  Passing an explicit
    ``transport`` serves exactly one session on it, no reconnection.
    """
    name = name or f"worker-{os.getpid()}"
    slots = max(1, int(slots))
    if transport is not None:
        _serve_session(transport, name, slots)
        return
    rng = random.Random()
    attempt = 0
    while True:
        try:
            session = connect(address)
        except (ConnectionError, OSError) as exc:
            attempt += 1
            if not reconnect or attempt > reconnect_attempts:
                raise ConnectionLostError(
                    f"could not reach coordinator at {address} after "
                    f"{attempt} attempts: {exc!r}"
                ) from exc
            time.sleep(
                backoff_delay(
                    attempt, reconnect_backoff, reconnect_backoff_cap, rng
                )
            )
            continue
        attempt = 0
        outcome = "lost"
        try:
            outcome = _serve_session(session, name, slots)
        except ConnectionLostError:
            # a version mismatch: the same coordinator would answer again
            session.close()
            raise
        except (ConnectionError, OSError):
            session.close()  # handshake raced a dying coordinator: retry below
        if outcome == "stop" or not reconnect:
            return
        attempt = 1
        time.sleep(
            backoff_delay(attempt, reconnect_backoff, reconnect_backoff_cap, rng)
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="repro execution-service worker",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address to join",
    )
    parser.add_argument(
        "--slots",
        type=int,
        default=2,
        help="job frames this worker executes concurrently (default: 2)",
    )
    parser.add_argument("--name", default=None, help="worker name in stats")
    parser.add_argument(
        "--no-reconnect",
        action="store_true",
        help="exit on connection loss instead of backing off and rejoining",
    )
    parser.add_argument(
        "--reconnect-attempts",
        type=int,
        default=10,
        help="consecutive failed connection attempts before giving up",
    )
    parser.add_argument(
        "--reconnect-backoff",
        type=float,
        default=0.5,
        help="initial reconnect backoff in seconds (doubles, jittered)",
    )
    parser.add_argument(
        "--reconnect-backoff-cap",
        type=float,
        default=5.0,
        help="upper bound on the reconnect backoff in seconds",
    )
    args = parser.parse_args(argv)
    run_worker(
        args.connect,
        slots=args.slots,
        name=args.name,
        reconnect=not args.no_reconnect,
        reconnect_attempts=args.reconnect_attempts,
        reconnect_backoff=args.reconnect_backoff,
        reconnect_backoff_cap=args.reconnect_backoff_cap,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
