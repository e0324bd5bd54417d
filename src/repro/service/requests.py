"""The request ledger: what the coordinator owes a client, stated once.

The contract.  An accepted ``run`` / ``submit`` / ``sweep`` is journaled
*before* it executes, executes once, is charged to its tenant's quota
once, and keeps its terminal reply until the client acknowledges it or a
TTL passes — across reconnects (the client resends under the same
idempotency key) and across coordinator restarts (the successor adopts
the journal, :meth:`RequestLedger.restore`).  What each kind keeps:

* ``submit`` — its ticket, and whatever it ended with (result, error or
  quota rejection), for the client's ``poll``; a resend of its key gets
  the same ticket back.  After a restart a submit still ``pending`` is
  handed back for re-execution (fingerprint-derived job seeds make the
  re-run bit-identical).
* ``run`` with a key — its result or error, served to a resend of the
  key; while it runs, a resend finds the attempt in flight and waits for
  it (``waiter``).  Without a key nothing is kept: the reply went down
  the connection that asked.
* ``sweep`` — nothing, and it is **never found by its key**: a client
  that reconnects mid-stream resends the sweep while the first may still
  be running, and the answer is to stream it again (the shared cache
  replays finished points).  The key only marks admission as paid.

A quota rejection is never kept under its key — a later resend is a
fresh admission attempt — and a key whose admission was paid stays paid
for the TTL, also for requests a dead coordinator left ``pending`` or
``abandoned``: their client's resend must not be priced twice.

The ledger is pure policy — no sockets, no event loop, and time is an
argument — so the rules are checked without a service
(``tests/test_request_ledger.py``).  It alone writes request rows to the
:class:`~repro.service.journal.CoordinatorJournal`; with no journal it
keeps the same promises for one process's lifetime.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass

__all__ = ["Request", "RequestLedger"]


@dataclass(eq=False)
class Request:
    """One accepted request.  ``reply`` is ``None`` until it finishes;
    ``waiter`` is the coordinator's to use (its future for the attempt)."""

    ticket: str
    kind: str  # "run" | "submit" | "sweep"
    tenant: str
    key: str | None
    reply: dict | None = None
    finished_at: float | None = None
    waiter: object = None

    def stale(self, now: float, ttl: float) -> bool:
        return self.finished_at is not None and now - self.finished_at > ttl


def _rejected(reply) -> bool:
    return isinstance(reply, dict) and reply.get("type") == "rejected"


class RequestLedger:
    """Accepted requests by ticket and by idempotency key, written
    through to ``journal`` (``None``: memory only)."""

    def __init__(self, journal=None):
        self.journal = journal
        self._tickets: dict[str, Request] = {}  # submits awaiting poll/ack
        self._keys: dict[str, Request] = {}  # keyed runs and submits
        self._paid: dict[str, float] = {}  # key -> when admission was paid

    def __len__(self) -> int:
        """Submit tickets held."""
        return len(self._tickets)

    def _place(self, request: Request) -> None:
        if request.kind == "submit":
            self._tickets[request.ticket] = request
        if (
            request.key is not None
            and request.kind != "sweep"
            and not _rejected(request.reply)
        ):
            self._keys[request.key] = request

    def _unlink(self, request: Request) -> None:
        if self._keys.get(request.key) is request:
            del self._keys[request.key]

    def accept(self, kind: str, message: dict) -> Request:
        """Journal a new request and return its record."""
        request = Request(
            # uuid-based so tickets from a dead coordinator can never
            # collide with its successor's (a counter restarts at 1)
            ticket=f"t-{uuid.uuid4().hex[:12]}",
            kind=kind,
            tenant=str(message.get("tenant", "default")),
            key=message.get("idempotency"),
        )
        self._place(request)
        if self.journal is not None:
            self.journal.record_request(
                request.ticket,
                kind,
                request.tenant,
                # a sweep is client-driven (a resend carries the circuits
                # again), so only its admission is journaled
                None if kind == "sweep" else message,
                idempotency=request.key,
            )
        return request

    def lookup(self, key: str | None) -> Request | None:
        """The run or submit accepted under ``key``, in flight or kept."""
        return self._keys.get(key)

    def get(self, ticket: str) -> Request | None:
        """The submit holding ``ticket``."""
        return self._tickets.get(ticket)

    def charged(self, key: str | None) -> bool:
        return key in self._paid

    def charge(self, key: str | None, now: float) -> None:
        if key is not None:
            self._paid[key] = now

    def finish(self, request: Request, reply: dict, now: float) -> None:
        """Record a request's terminal reply and keep what its kind keeps."""
        request.reply, request.finished_at = reply, now
        if _rejected(reply):
            self._unlink(request)
        if self.journal is None:
            return
        if request.kind == "submit" or self._keys.get(request.key) is request:
            # findable in memory, so durable with its reply
            self.journal.record_reply(request.ticket, reply)
        elif _rejected(reply):
            self.journal.acknowledge(request.ticket)
        elif request.kind == "sweep" and reply.get("type") == "error":
            self.journal.abandon(request.ticket)
        else:
            self.journal.record_reply(request.ticket, None)

    def acknowledge(self, ticket: str) -> bool:
        """The client has the reply: drop it.  True if it was held."""
        request = self._tickets.pop(ticket, None)
        if request is not None:
            self._unlink(request)
        if self.journal is not None:
            self.journal.acknowledge(ticket)
        return request is not None

    def expire(self, now: float, ttl: float) -> int:
        """Drop replies and paid keys older than ``ttl``; returns how many
        unclaimed submit tickets went."""
        unclaimed = [r for r in self._tickets.values() if r.stale(now, ttl)]
        for request in unclaimed:
            self.acknowledge(request.ticket)
        for request in list(self._keys.values()):
            if request.stale(now, ttl):
                self._unlink(request)
        for key, paid_at in list(self._paid.items()):
            if now - paid_at > ttl:
                del self._paid[key]
        if self.journal is not None:
            self.journal.expire(ttl)
        return len(unclaimed)

    def restore(self, now: float) -> list[tuple[Request, dict]]:
        """Adopt a dead predecessor's journal; returns the ``(request,
        message)`` pairs of the pending submits the caller must re-execute.

        Pending ``run`` / ``sweep`` rows are abandoned — their reply
        channel died with the old process and the client resends them —
        but their keys, like every unrejected row's, stay paid.
        """
        resume = []
        if self.journal is None:
            return resume
        for ticket, kind, tenant, key, state, message, reply in (
            self.journal.entries()
        ):
            if key is not None and not _rejected(reply):
                self._paid[key] = now
            request = Request(ticket, kind, tenant, key, reply)
            if state == "done" and reply is not None:
                request.finished_at = now
                self._place(request)
            elif state == "pending":
                if kind == "submit" and message is not None:
                    self._place(request)
                    resume.append((request, message))
                else:
                    self.journal.abandon(ticket)
        return resume
