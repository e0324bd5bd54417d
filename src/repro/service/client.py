"""ServiceClient: the SuperSim surface, executed by a remote coordinator.

A client holds one connection to a coordinator and mirrors the engine's
entry points — :meth:`run`, :meth:`sweep`, :meth:`estimate`, plus the
fire-and-forget pair :meth:`submit` / :meth:`poll` — so moving a
workload onto the service is a constructor swap:

.. code-block:: python

    sim = SuperSim(sampling=SamplingConfig(shots=1000, seed=7))
    local = sim.run(circuit)

    with ServiceClient(address, sampling=SamplingConfig(shots=1000, seed=7)) as svc:
        remote = svc.run(circuit)
    # remote.distribution == local.distribution, bit for bit

Configs are pickled to the coordinator, which rebuilds the identical
engine server-side; job seeds derive from content fingerprints, so the
distributed result is bit-for-bit the local one.  A sweep materialises
its circuits client-side (the factory may close over anything) and
streams :class:`~repro.core.plan.SweepResult` records back as each
point completes.

Admission rejections surface as
:class:`~repro.errors.QuotaExceededError` with the coordinator's
``retry_after`` hint and the cost quote it was priced with; remote
failures re-raise the original engine exception when it travelled back,
falling back to :class:`~repro.errors.ServiceError`.

A client is one request at a time (the protocol is request/response per
connection); open one client per thread for concurrency — the
coordinator multiplexes server-side, and the shared variant cache is what
makes concurrent clients cheaper together than apart.

The channel is self-healing: on a dropped connection the client
reconnects with jittered exponential backoff and resends the request
(:meth:`ServiceClient._replies`, the one reply loop).  Every mutating
request carries a client-generated idempotency key, which is what makes
the resend safe — see :mod:`repro.service.requests` for what the
coordinator owes a resent key.  Once the reconnect budget is spent,
:class:`~repro.errors.ConnectionLostError` surfaces.  Pass
``reconnect=False`` for fail-fast single-channel behaviour.
"""

from __future__ import annotations

import random
import threading
import time
import uuid

from repro.core.plan import CostEstimate
from repro.core.supersim import _call_factory
from repro.errors import ConnectionLostError, QuotaExceededError, ServiceError
from repro.service.protocol import backoff_delay, connect

__all__ = ["ServiceClient"]


class ServiceClient:
    """A connection to a coordinator, speaking the ``SuperSim`` surface.

    ``cut`` / ``sampling`` / ``execution`` / ``reconstruction`` are the
    same config objects ``SuperSim`` takes and define the engine the
    coordinator builds for this client's requests.  ``tenant`` names the
    admission-control bucket; ``priority`` orders this client's variant
    jobs in the shared queue (lower runs first).
    """

    def __init__(
        self,
        address,
        *,
        cut=None,
        sampling=None,
        execution=None,
        reconstruction=None,
        tenant: str = "default",
        priority: int = 0,
        connect_timeout: float = 10.0,
        reconnect: bool = True,
        max_reconnects: int = 10,
        reconnect_backoff: float = 0.25,
        reconnect_backoff_cap: float = 2.0,
        transport_factory=None,
    ):
        self.tenant = tenant
        self.priority = int(priority)
        self.cut = cut
        self.sampling = sampling
        self.execution = self._wire_safe_execution(execution)
        self.reconstruction = reconstruction
        self.address = address
        self._connect_timeout = connect_timeout
        self._transport_factory = transport_factory
        self._reconnect = bool(reconnect)
        self._max_reconnects = max(0, int(max_reconnects))
        self._reconnect_backoff = float(reconnect_backoff)
        self._reconnect_backoff_cap = float(reconnect_backoff_cap)
        self._rng = random.Random()
        self.reconnects = 0  # observable: how often the channel was rebuilt
        self._lock = threading.Lock()
        self._closed = False
        self._connect()

    def _connect(self) -> None:
        if self._transport_factory is not None:
            self._transport = self._transport_factory()
        else:
            self._transport = connect(
                self.address, timeout=self._connect_timeout
            )
        self._transport.send({"type": "hello", "role": "client"})
        welcome = self._transport.recv()
        if not welcome or welcome.get("type") != "welcome":
            raise ServiceError(
                f"coordinator refused client handshake: {welcome!r}"
            )

    def _reconnect_locked(self) -> None:
        """Rebuild the channel with jittered exponential backoff.

        Caller holds ``self._lock``.  Raises
        :class:`~repro.errors.ConnectionLostError` once the budget is
        spent — the caller's request is then genuinely undeliverable.
        """
        try:
            self._transport.close()
        except (OSError, RuntimeError):
            pass
        attempt = 0
        last_exc: BaseException | None = None
        while attempt < self._max_reconnects:
            attempt += 1
            time.sleep(
                backoff_delay(
                    attempt,
                    self._reconnect_backoff,
                    self._reconnect_backoff_cap,
                    self._rng,
                )
            )
            try:
                self._connect()
            except (ConnectionError, OSError, ServiceError) as exc:
                last_exc = exc
                continue
            self.reconnects += 1
            return
        raise ConnectionLostError(
            f"lost the coordinator at {self.address} and could not "
            f"reconnect within {self._max_reconnects} attempts"
        ) from last_exc

    @staticmethod
    def _wire_safe_execution(execution):
        """Strip config members that must not (or cannot) cross the wire.

        A cache *instance* is process-local state (and holds locks pickle
        refuses); the coordinator substitutes its shared cache regardless,
        so the spec collapses to a plain ``True``.
        """
        if execution is None:
            return None
        if execution.cache not in (True, False, None):
            execution = execution.replace(cache=True)
        return execution

    # -- plumbing ------------------------------------------------------------

    def _request_fields(self) -> dict:
        return {
            "cut": self.cut,
            "sampling": self.sampling,
            "execution": self.execution,
            "reconstruction": self.reconstruction,
            "tenant": self.tenant,
            "priority": self.priority,
        }

    def _raise_reply(self, reply: dict):
        kind = reply.get("type")
        if kind == "rejected":
            estimate = reply.get("estimate")
            reason = reply.get("reason")
            detail = (
                "coordinator is draining"
                if reason == "draining"
                else "coordinator admission control rejected the request "
                     f"(cost {reply.get('cost', 0.0):.3g})"
            )
            raise QuotaExceededError(
                detail,
                retry_after=reply.get("retry_after"),
                estimate=(
                    CostEstimate.from_dict(estimate)
                    if estimate is not None
                    else None
                ),
            )
        if kind == "error":
            cause = reply.get("exception")
            if isinstance(cause, BaseException):
                raise cause
            raise ServiceError(f"request failed remotely: {reply.get('error')}")
        raise ServiceError(f"unexpected reply {kind!r}")

    def _replies(self, message: dict):
        """Send ``message`` and yield the coordinator's replies to it, for
        as long as the caller (who holds the lock) keeps asking.

        A lost connection is rebuilt and the message resent — safe because
        every mutating request carries an idempotency key.  A ``draining``
        rejection is not yielded: the message is resent after a back-off,
        against the coordinator's successor once it takes over the address.
        """
        drain_retries = 0
        while True:
            try:
                self._transport.send(message)
                while True:
                    reply = self._transport.recv()
                    if reply is None:
                        raise ConnectionLostError("coordinator closed the connection")
                    if (
                        reply.get("type") == "rejected"
                        and reply.get("reason") == "draining"
                        and self._reconnect
                        and drain_retries < self._max_reconnects
                    ):
                        drain_retries += 1
                        time.sleep(
                            backoff_delay(
                                drain_retries,
                                max(self._reconnect_backoff,
                                    float(reply.get("retry_after") or 0.0)),
                                self._reconnect_backoff_cap,
                                self._rng,
                            )
                        )
                        break  # resend
                    yield reply
            except (ConnectionError, OSError):
                if not self._reconnect or self._closed:
                    raise
                self._reconnect_locked()

    def _exchange(self, message: dict) -> dict:
        """The first reply to ``message``.  Caller holds the lock."""
        return next(self._replies(message))

    def _roundtrip(self, message: dict, expect: str) -> dict:
        with self._lock:
            reply = self._exchange(message)
        if reply.get("type") != expect:
            self._raise_reply(reply)
        return reply

    # -- the SuperSim surface ------------------------------------------------

    def run(self, circuit, keep_qubits=None, cuts=None):
        """Remote ``SuperSim.run``: returns the ``SuperSimResult``.

        Bit-for-bit identical to a local run under the same configs;
        distributed faults the service survived (worker crashes,
        redispatches, degrade-to-local) are in ``result.faults``.
        """
        reply = self._roundtrip(
            {
                "type": "run",
                "circuit": circuit,
                "keep_qubits": keep_qubits,
                "cuts": cuts,
                "idempotency": uuid.uuid4().hex,
                **self._request_fields(),
            },
            expect="result",
        )
        return reply["result"]

    def probabilities(self, circuit):
        return self.run(circuit).distribution

    def estimate(self, circuit, keep_qubits=None, cuts=None) -> CostEstimate:
        """The coordinator's cost quote for a circuit — no admission charge."""
        reply = self._roundtrip(
            {
                "type": "estimate",
                "circuit": circuit,
                "keep_qubits": keep_qubits,
                "cuts": cuts,
                **self._request_fields(),
            },
            expect="estimate",
        )
        return CostEstimate.from_dict(reply["estimate"])

    def sweep(
        self,
        circuit_factory,
        param_grid,
        keep_qubits=None,
        reuse_cuts: bool = True,
    ):
        """Remote ``SuperSim.sweep``: yields ``SweepResult`` per point.

        Circuits are materialised client-side (the factory may close over
        local state) and executed server-side with the sweep's sharing
        semantics — adopted cuts, the service-wide variant cache, one
        engine across all points.
        """
        params = list(param_grid)
        circuits = [_call_factory(circuit_factory, p) for p in params]
        if not circuits:
            return
        message = {
            "type": "sweep",
            "circuits": circuits,
            "params": params,
            "keep_qubits": keep_qubits,
            "reuse_cuts": reuse_cuts,
            "idempotency": uuid.uuid4().hex,
            **self._request_fields(),
        }
        # on a mid-stream connection loss the whole sweep is resent (the
        # idempotency key stops a second quota charge; already-computed
        # points replay as server-side cache hits) and points already
        # yielded are deduplicated by index
        seen: set[int] = set()
        with self._lock:
            for reply in self._replies(message):
                kind = reply.get("type")
                if kind == "sweep_point":
                    point = reply["point"]
                    if point.index not in seen:
                        seen.add(point.index)
                        yield point
                elif kind == "sweep_done":
                    return
                else:
                    self._raise_reply(reply)

    def submit(self, circuit, keep_qubits=None, cuts=None) -> str:
        """Fire-and-forget ``run``: returns a ticket for :meth:`poll`.

        The request carries a client-generated idempotency key, so a
        resend after a dropped reply returns the *same* ticket — the
        submit neither executes twice nor is charged twice.
        """
        reply = self._roundtrip(
            {
                "type": "submit",
                "circuit": circuit,
                "keep_qubits": keep_qubits,
                "cuts": cuts,
                "idempotency": uuid.uuid4().hex,
                **self._request_fields(),
            },
            expect="submitted",
        )
        return reply["ticket"]

    def poll(self, ticket: str):
        """The submitted run's result, or ``None`` while still executing.

        Raises exactly what :meth:`run` would have once the request has
        failed or been rejected.  A delivered terminal reply is
        acknowledged back to the coordinator (best-effort) so it can
        drop the retained result; an unacknowledged ticket stays
        pollable until the coordinator's TTL expires it.
        """
        with self._lock:
            reply = self._exchange({"type": "poll", "ticket": ticket})
        kind = reply.get("type")
        if kind == "pending":
            return None
        self._ack(ticket)
        if kind == "result":
            return reply["result"]
        self._raise_reply(reply)

    def _ack(self, ticket: str) -> None:
        try:
            with self._lock:
                self._exchange({"type": "ack", "ticket": ticket})
        except (ConnectionError, OSError, ServiceError):
            pass  # best-effort: the TTL sweep covers a lost acknowledgement

    # -- service introspection ----------------------------------------------

    def stats(self) -> dict:
        """The coordinator's full stats snapshot (workers, queue, cache)."""
        return self._roundtrip({"type": "stats"}, expect="stats")["stats"]

    def cache_stats(self) -> dict:
        return self._roundtrip({"type": "cache_stats"}, expect="cache_stats")[
            "stats"
        ]

    def ping(self) -> bool:
        """Liveness probe: True iff the coordinator answered a ping."""
        try:
            reply = self._roundtrip({"type": "ping"}, expect="pong")
        except (ConnectionError, OSError, ServiceError):
            return False
        return reply.get("type") == "pong"

    def drain_coordinator(self, timeout: float = 30.0) -> dict:
        """Gracefully drain the coordinator: stop admitting, finish
        in-flight work, flush the journal.  Returns its final stats."""
        reply = self._roundtrip(
            {"type": "drain", "timeout": timeout}, expect="drained"
        )
        return reply["stats"]

    def shutdown_coordinator(self) -> None:
        """Ask the coordinator to stop (tests, demos, ops scripts)."""
        self._roundtrip({"type": "shutdown"}, expect="bye")

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._transport.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ServiceClient(tenant={self.tenant!r}, "
            f"transport={self._transport!r})"
        )
