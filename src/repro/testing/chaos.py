"""Deterministic chaos injection for the fault-tolerant execution engine.

Fault-tolerance code that is only exercised by real hardware failures is
untested code.  This module injects failures *deterministically* — from a
seeded schedule keyed by content fingerprints, never from wall-clock or
shared mutable state — so chaos runs are reproducible and the engine's
headline invariant (seeded results bit-for-bit identical at any
parallelism) can be asserted *under* injected faults, not just without
them.

Two injection points:

* **Scheduler-level** (transient faults): pass a :class:`ChaosSchedule`
  as ``ExecutionConfig(chaos=...)`` and the engine consults it before
  every job attempt.  The schedule maps ``(variant fingerprint,
  attempt)`` to an action — raise an :class:`InjectedFault`, sleep (to
  trip the soft-timeout path), or crash the worker (a *real*
  ``os._exit`` inside process-pool workers, so ``BrokenProcessPool``
  healing is exercised for real; a :class:`SimulatedWorkerCrash`
  exception under threads / serial execution).  Because injections stop
  after ``fail_attempts`` attempts, a retrying engine always converges —
  and, since per-variant seeds are fingerprint-derived, converges on
  bit-identical results.

* **Backend-level** (persistent faults): :class:`ChaosBackend` wraps a
  real backend and fails *every* call on scheduled circuits — attempt
  count never rescues it — which is what drives the
  ``failure_policy="degrade"`` fallback path (e.g. a dying ``mps``
  backend falling back to ``statevector``).

* **Transport-level** (network faults): :class:`ChaosTransport` wraps a
  service :class:`~repro.service.protocol.Transport` and injects drops,
  delays, partitions and truncated frames from the same seeded schedule,
  keyed by a deterministic per-operation sequence shared across
  reconnects by its :class:`ChaosTransportFactory`.  This is what drives
  the service-resilience paths — client/worker reconnect, idempotent
  resends, peer-level frame-error isolation — under reproducible faults.

Everything here is picklable, so schedules travel into process-pool
workers unchanged (the transport wrapper, which holds a live socket, is
the one deliberate exception).
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass

from repro.backends.base import Backend
from repro.backends.cache import circuit_fingerprint, fragment_fingerprint


class InjectedFault(RuntimeError):
    """A failure raised on purpose by a chaos schedule."""


class SimulatedWorkerCrash(RuntimeError):
    """A worker crash simulated where a real one is impossible.

    Raised by chaos injection under thread pools and serial execution
    (where ``os._exit`` would kill the interpreter, not a worker); the
    scheduler routes it through the same crash-handling path a
    ``BrokenProcessPool`` takes.
    """


@dataclass(frozen=True)
class ChaosSchedule:
    """A seeded, content-addressed fault schedule.

    Each variant fingerprint is hashed (with ``seed``) to one uniform
    draw in ``[0, 1)``; the draw lands in the (disjoint) ``crash`` /
    ``exception`` / ``delay`` rate bands or in the no-fault remainder.
    The same job therefore receives the same fault on every host, in
    every pool, on every run — and a job never flips between fault
    kinds.

    ``fail_attempts`` bounds injection per job: attempts at or beyond it
    run clean, so a retrying engine converges (set it no higher than the
    engine's retry budget).  ``only_backends`` restricts injection to
    jobs routed to the named backends.
    """

    seed: int = 0
    exception_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.25
    crash_rate: float = 0.0
    fail_attempts: int = 1
    only_backends: tuple[str, ...] | None = None

    def __post_init__(self):
        total = self.exception_rate + self.delay_rate + self.crash_rate
        for name in ("exception_rate", "delay_rate", "crash_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if total > 1.0 + 1e-12:
            raise ValueError(
                f"fault rates must sum to at most 1, got {total}"
            )
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")
        if self.fail_attempts < 0:
            raise ValueError("fail_attempts must be non-negative")
        if self.only_backends is not None:
            object.__setattr__(
                self, "only_backends", tuple(str(b) for b in self.only_backends)
            )

    def draw(self, fingerprint: str) -> float:
        """The deterministic uniform draw in ``[0, 1)`` for a fingerprint."""
        digest = hashlib.sha256(
            f"{self.seed}|{fingerprint}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def action_for(
        self,
        fingerprint: str,
        attempt: int = 0,
        backend: str | None = None,
    ) -> tuple | None:
        """The fault to inject for one job attempt, or ``None``.

        Returns ``("crash",)``, ``("raise", message)`` or
        ``("delay", seconds)``.
        """
        if attempt >= self.fail_attempts:
            return None
        if self.only_backends is not None and backend not in self.only_backends:
            return None
        u = self.draw(fingerprint)
        if u < self.crash_rate:
            return ("crash",)
        if u < self.crash_rate + self.exception_rate:
            return (
                "raise",
                f"injected fault (seed={self.seed}, attempt={attempt}, "
                f"fp={fingerprint[:12]})",
            )
        if u < self.crash_rate + self.exception_rate + self.delay_rate:
            return ("delay", self.delay_seconds)
        return None

    def faulted_fingerprints(self, fingerprints) -> list[str]:
        """The subset of ``fingerprints`` this schedule faults on attempt 0.

        Exact fault accounting for tests: with ``fail_attempts >= 1``,
        every returned fingerprint produces exactly one first-attempt
        fault event in a retrying run.
        """
        return [fp for fp in fingerprints if self.action_for(fp, 0) is not None]


def perform_action(action: tuple, in_process_worker: bool = False) -> None:
    """Carry out one scheduled fault (called inside the worker).

    ``in_process_worker`` selects a *real* crash (``os._exit``) for the
    crash action — only safe inside a process-pool worker, where dying
    breaks the pool instead of the interpreter.
    """
    kind = action[0]
    if kind == "delay":
        time.sleep(action[1])
        return
    if kind == "raise":
        raise InjectedFault(action[1])
    if kind == "crash":
        if in_process_worker:
            os._exit(17)  # a genuine worker death: the pool breaks
        raise SimulatedWorkerCrash(
            "simulated worker crash (thread/serial execution)"
        )
    raise ValueError(f"unknown chaos action {action!r}")


class ChaosBackend(Backend):
    """A backend wrapper that persistently fails on scheduled circuits.

    Every entry point (``probabilities``, ``sample``,
    ``affine_distribution``, ``pauli_map``, ``sample_noisy_bits``)
    consults the schedule with the circuit's (or the fragment's) content
    fingerprint at attempt 0 — so, unlike the scheduler-level injection,
    retries never rescue a scheduled circuit.
    This models a backend that is *down*, not flaky, and is the driver
    for ``failure_policy="degrade"`` backend-fallback tests.

    The wrapper advertises the inner backend's name and capabilities, so
    routing, forcing and fault attribution all behave as if the real
    backend were failing.
    """

    def __init__(self, inner: Backend, schedule: ChaosSchedule):
        self.inner = inner
        self.schedule = schedule
        self.name = inner.name
        self.capabilities = inner.capabilities

    def _maybe_fail(self, fingerprint: str) -> None:
        action = self.schedule.action_for(fingerprint, 0, backend=self.name)
        if action is not None:
            perform_action(action, in_process_worker=False)

    def probabilities(self, circuit):
        self._maybe_fail(circuit_fingerprint(circuit))
        return self.inner.probabilities(circuit)

    def sample(self, circuit, shots, rng=None):
        self._maybe_fail(circuit_fingerprint(circuit))
        return self.inner.sample(circuit, shots, rng)

    def affine_distribution(self, circuit):
        self._maybe_fail(circuit_fingerprint(circuit))
        return self.inner.affine_distribution(circuit)

    def pauli_map(self, body, inputs, outputs):
        self._maybe_fail(fragment_fingerprint(body, inputs, outputs))
        return self.inner.pauli_map(body, inputs, outputs)

    def sample_noisy_bits(self, circuit, noise, shots, rng=None):
        self._maybe_fail(circuit_fingerprint(circuit))
        return self.inner.sample_noisy_bits(circuit, noise, shots, rng)

    def can_handle(self, features, exact=True, noisy=False) -> bool:
        return self.inner.can_handle(features, exact=exact, noisy=noisy)

    def estimate_cost(self, features, mode: str = "exact") -> float:
        return self.inner.estimate_cost(features, mode)

    def cache_token(self) -> tuple:
        # never share cache entries with the unwrapped backend
        return ("chaos", self.schedule.seed, self.inner.cache_token())

    def __repr__(self) -> str:
        return f"<ChaosBackend around {self.inner!r}>"


class ChaosTransportFactory:
    """Deterministic network-fault injection for the execution service.

    The factory owns the state that must span *connections*: one
    monotone operation counter (every ``send``/``recv`` on any transport
    it built draws the next sequence number), a fault budget, and an
    optional clean prefix.  Because a service exchange is a
    deterministic sequence of operations, hashing ``label|direction|seq``
    through the :class:`ChaosSchedule` faults the same operations on
    every run — a seeded chaos test is exactly reproducible.

    * ``skip`` — the first ``skip`` operations run clean, which places a
      fault precisely ("drop the reply to the submit, not the
      handshake").
    * ``max_faults`` — once this many faults have fired, every later
      operation passes through, so retrying peers always converge
      (``None`` = unbounded).

    Use :meth:`wrap` around an existing transport, or call the factory
    with no arguments (``connect_factory`` supplies the inner transport)
    — the call form is what ``ServiceClient(transport_factory=...)``
    expects, and keeps injecting across the client's reconnects.
    """

    def __init__(
        self,
        schedule: ChaosSchedule,
        connect_factory=None,
        label: str = "chaos",
        max_faults: int | None = None,
        skip: int = 0,
    ):
        self.schedule = schedule
        self.connect_factory = connect_factory
        self.label = str(label)
        self.max_faults = max_faults
        self.skip = max(0, int(skip))
        self.faults_injected = 0
        self.operations = 0
        self._lock = threading.Lock()

    def decide(self, direction: str) -> tuple | None:
        """The fault (if any) for the next operation in ``direction``."""
        with self._lock:
            seq = self.operations
            self.operations += 1
            if seq < self.skip:
                return None
            if (
                self.max_faults is not None
                and self.faults_injected >= self.max_faults
            ):
                return None
            action = self.schedule.action_for(
                f"{self.label}|{direction}|{seq}", 0
            )
            if action is not None:
                self.faults_injected += 1
            return action

    def wrap(self, inner) -> "ChaosTransport":
        return ChaosTransport(inner, self)

    def __call__(self) -> "ChaosTransport":
        if self.connect_factory is None:
            raise ValueError(
                "ChaosTransportFactory needs connect_factory to build "
                "transports itself"
            )
        return self.wrap(self.connect_factory())


class ChaosTransport:
    """A :class:`~repro.service.protocol.Transport` wrapper injecting
    seeded network faults (build via :class:`ChaosTransportFactory`).

    The schedule's bands map onto network failure modes:

    * ``crash`` — partition/drop: the connection closes *before* the
      operation; a scheduled ``send`` never reaches the peer and a
      scheduled ``recv`` loses the in-flight reply (the dropped-reply
      idempotency scenario).
    * ``exception`` — a truncated frame: half the encoded frame hits the
      wire, then a hard close, so the peer observes a mid-frame
      disconnect (the coordinator's peer-error isolation path).
    * ``delay`` — the operation completes after ``delay_seconds``.
    """

    def __init__(self, inner, control: ChaosTransportFactory):
        self._inner = inner
        self._control = control

    def send(self, message: dict) -> None:
        action = self._control.decide("send")
        if action is None:
            return self._inner.send(message)
        kind = action[0]
        if kind == "delay":
            time.sleep(action[1])
            return self._inner.send(message)
        if kind == "raise":
            # truncated frame: leak half the bytes, then die mid-frame
            from repro.service.protocol import encode_frame

            frame = encode_frame(message)
            sock = getattr(self._inner, "_sock", None)
            if sock is not None:
                try:
                    sock.sendall(frame[: max(1, len(frame) // 2)])
                except OSError:
                    pass
            self._inner.close()
            raise ConnectionError("chaos: frame truncated mid-send")
        self._inner.close()
        raise ConnectionError("chaos: connection dropped before send")

    def recv(self) -> dict | None:
        action = self._control.decide("recv")
        if action is None:
            return self._inner.recv()
        if action[0] == "delay":
            time.sleep(action[1])
            return self._inner.recv()
        # raise & crash both mean the same thing on the read side: the
        # in-flight reply is lost and the connection is gone
        self._inner.close()
        raise ConnectionError("chaos: connection dropped before receive")

    def set_deadline(self, seconds: float | None) -> None:
        set_deadline = getattr(self._inner, "set_deadline", None)
        if set_deadline is not None:
            set_deadline(seconds)

    def close(self) -> None:
        self._inner.close()

    def __repr__(self) -> str:
        return (
            f"<ChaosTransport around {self._inner!r} "
            f"({self._control.faults_injected} faults injected)>"
        )
