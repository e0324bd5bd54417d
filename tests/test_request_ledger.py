"""The request contract, checked without a service.

:mod:`repro.service.requests` is pure — no sockets, no event loop, time
is an argument — so what a client is owed (accepted once, executed once,
charged once, kept until acknowledged or expired, across restarts) is
checked here against a ``:memory:`` journal: first as a table of what
each kind of request retains, then as a hypothesis state machine that
plays the coordinator's part (accept, admit, finish, acknowledge, sweep
the TTL, die and restart) against the ledger and the admission
controller on one injected clock.
"""

import types

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.service import journal as journal_module
from repro.service.admission import AdmissionController
from repro.service.journal import CoordinatorJournal
from repro.service.requests import RequestLedger

TTL = 10.0


class Clock:
    """The injected clock; also stands in for the journal's ``time``."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    time = __call__


@pytest.fixture
def clock(monkeypatch):
    clock = Clock()
    monkeypatch.setattr(journal_module, "time", clock)
    return clock


def rows(journal) -> dict:
    """ticket -> (state, reply) of every journaled request."""
    return {row[0]: (row[4], row[6]) for row in journal.entries()}


# -- (i) the retention rule, as a table ---------------------------------------

RESULT = {"type": "result", "value": 7}
DONE = {"type": "sweep_done", "count": 2}
ERROR = {"type": "error", "error": "boom"}
REJECTED = {"type": "rejected", "retry_after": 1.0}

# (kind, keyed, reply) -> (found by ticket, found by key, journal row);
# the row is (state, reply kept?) or None when the request left no trace
RETENTION = [
    ("run", False, RESULT, False, False, ("done", False)),
    ("run", False, ERROR, False, False, ("done", False)),
    ("run", False, REJECTED, False, False, None),
    ("run", True, RESULT, False, True, ("done", True)),
    ("run", True, ERROR, False, True, ("done", True)),
    ("run", True, REJECTED, False, False, None),
    ("submit", False, RESULT, True, False, ("done", True)),
    ("submit", False, ERROR, True, False, ("done", True)),
    ("submit", False, REJECTED, True, False, ("done", True)),
    ("submit", True, RESULT, True, True, ("done", True)),
    ("submit", True, ERROR, True, True, ("done", True)),
    ("submit", True, REJECTED, True, False, ("done", True)),
    ("sweep", False, DONE, False, False, ("done", False)),
    ("sweep", False, ERROR, False, False, ("abandoned", False)),
    ("sweep", False, REJECTED, False, False, None),
    ("sweep", True, DONE, False, False, ("done", False)),
    ("sweep", True, ERROR, False, False, ("abandoned", False)),
    ("sweep", True, REJECTED, False, False, None),
]


@pytest.mark.parametrize(
    "kind, keyed, reply, by_ticket, by_key, row", RETENTION
)
def test_what_each_kind_retains(clock, kind, keyed, reply, by_ticket, by_key, row):
    journal = CoordinatorJournal(":memory:")
    ledger = RequestLedger(journal)
    key = "k" if keyed else None
    message = {"type": kind, "tenant": "alice", "idempotency": key, "n": 1}

    request = ledger.accept(kind, message)
    # journaled before it executes; a sweep without its payload
    assert rows(journal) == {request.ticket: ("pending", None)}
    journaled = journal.entries()[0]
    assert journaled[1:4] == (kind, "alice", key)
    assert journaled[5] == (None if kind == "sweep" else message)
    # in flight: a keyed run or submit is found by its key, a sweep never
    assert (ledger.lookup(key) is request) == (keyed and kind != "sweep")
    assert (ledger.get(request.ticket) is request) == (kind == "submit")

    paid = reply is not REJECTED  # what Coordinator._admit does
    if paid:
        ledger.charge(key, clock())
    ledger.finish(request, reply, clock())

    def check(by_ticket, by_key, row, charged):
        found = ledger.get(request.ticket)
        assert (found is request) == by_ticket
        assert (ledger.lookup(key) is request) == by_key
        if by_ticket or by_key:
            assert request.reply is reply
        assert ledger.charged(key) == charged
        expected = {}
        if row is not None:
            expected[request.ticket] = (row[0], reply if row[1] else None)
        assert rows(journal) == expected

    check(by_ticket, by_key, row, keyed and paid)

    # a fresh ledger on the same journal agrees (before any ack or expiry)
    successor = RequestLedger(journal)
    assert successor.restore(clock()) == []
    held = successor.get(request.ticket)
    assert (held is not None) == by_ticket
    assert (successor.lookup(key) is not None) == by_key
    for found in (held, successor.lookup(key)):
        assert found is None or (found.ticket, found.reply) == (
            request.ticket, reply
        )
    assert successor.charged(key) == (keyed and paid)

    if kind == "submit":
        # acknowledged: gone from the ticket table, its key and the journal
        clock.now += 1.0
        assert ledger.acknowledge(request.ticket) is True
        check(False, False, None, keyed and paid)
        assert ledger.acknowledge(request.ticket) is False
    else:
        # within the TTL nothing moves; past it everything is gone
        clock.now += TTL
        assert ledger.expire(clock(), TTL) == 0
        check(by_ticket, by_key, row, keyed and paid)
    clock.now += TTL + 1.0
    assert ledger.expire(clock(), TTL) == 0
    check(False, False, None, False)


def test_unclaimed_submit_expires_and_is_counted(clock):
    journal = CoordinatorJournal(":memory:")
    ledger = RequestLedger(journal)
    running = ledger.accept("submit", {"idempotency": "k-running"})
    request = ledger.accept("submit", {"idempotency": "k"})
    ledger.finish(request, RESULT, clock())
    clock.now += TTL + 1.0
    assert ledger.expire(clock(), TTL) == 1
    assert ledger.get(request.ticket) is None and ledger.lookup("k") is None
    # a request still executing never expires, in memory or in the journal
    assert ledger.get(running.ticket) is running
    assert rows(journal) == {running.ticket: ("pending", None)}
    assert len(ledger) == 1


def test_ledger_without_a_journal_keeps_the_same_promises():
    ledger = RequestLedger()
    request = ledger.accept("run", {"idempotency": "k"})
    assert ledger.lookup("k") is request and request.tenant == "default"
    ledger.finish(request, RESULT, 0.0)
    assert ledger.lookup("k").reply is RESULT
    assert ledger.restore(0.0) == []
    assert ledger.expire(TTL + 1.0, TTL) == 0
    assert ledger.lookup("k") is None


# -- (ii) the coordinator's part, as a state machine ---------------------------

COST = 1.0
TENANTS = ("alice", "bob")


def is_rejection(reply) -> bool:
    return reply is not None and reply["type"] == "rejected"


class LedgerMachine(RuleBasedStateMachine):
    """Plays ``Coordinator._accept`` / ``_admit`` / ``_complete`` /
    ``_msg_ack`` / ``_gc_loop`` / ``_recover`` against the ledger.

    ``self.seen`` holds one record per request the ledger accepted, with
    what the *client* knows about it; every check compares the ledger to
    that, never to its own tables.
    """

    def __init__(self):
        super().__init__()
        self.clock = Clock()
        self._journal_time = journal_module.time
        journal_module.time = self.clock
        self.journal = CoordinatorJournal(":memory:")
        self.seen = []
        self.charges = {}  # key -> [time of each admission charge]
        self.admitted = dict.fromkeys(TENANTS, 0)
        self.serial = 0
        self.boot()

    def teardown(self):
        journal_module.time = self._journal_time
        self.journal.close()

    def boot(self):
        self.ledger = RequestLedger(self.journal)
        self.admission = AdmissionController(
            rate=0.2, capacity=2.0, clock=self.clock
        )
        self.admission.restore(self.journal.load_quota())
        return self.ledger.restore(self.clock())

    # -- what the client may expect of one request ------------------------

    def in_flight(self, rec) -> bool:
        return rec.reply is None and not rec.lost

    def kept(self, rec) -> bool:
        """Finished, and neither acknowledged nor past its TTL."""
        return (
            rec.reply is not None
            and not rec.lost
            and not rec.acked
            and self.clock() - rec.stamp <= TTL
        )

    def by_ticket(self, rec) -> bool:
        return (
            rec.kind == "submit"
            and not rec.acked
            and (self.in_flight(rec) or self.kept(rec))
        )

    def by_key(self, rec) -> bool:
        return (
            rec.key is not None
            and rec.kind != "sweep"
            and not rec.acked
            and not is_rejection(rec.reply)
            and (self.in_flight(rec) or self.kept(rec))
        )

    # -- rules ----------------------------------------------------------------

    def submit(self, kind, tenant, key):
        """``Coordinator._accept``: a known key is answered, not accepted."""
        existing = self.ledger.lookup(key)
        owners = [rec for rec in self.seen if rec.key == key and self.by_key(rec)]
        if existing is not None:
            # the same ticket / the retained reply, and never a sweep
            assert [rec.ticket for rec in owners] == [existing.ticket]
            assert existing.kind == kind != "sweep"
            assert existing.reply == owners[0].reply
            return
        assert not owners  # a key never maps to two live tickets
        message = {"type": kind, "tenant": tenant, "idempotency": key,
                   "n": self.serial}
        request = self.ledger.accept(kind, message)
        self.seen.append(types.SimpleNamespace(
            ticket=request.ticket, kind=kind, tenant=tenant, key=key,
            message=message, request=request, reply=None, stamp=None,
            acked=False, lost=False,
        ))

    @rule(kind=st.sampled_from(["run", "submit", "sweep"]),
          tenant=st.sampled_from(TENANTS), keyed=st.booleans())
    def accept_new(self, kind, tenant, keyed):
        self.serial += 1
        self.submit(kind, tenant, f"k{self.serial}" if keyed else None)

    def resendable(self):
        """A client resends only what it has not acknowledged."""
        acked = {rec.key for rec in self.seen if rec.acked}
        return [rec for rec in self.seen if rec.key and rec.key not in acked]

    @precondition(lambda self: self.resendable())
    @rule(data=st.data())
    def retry_same_key(self, data):
        rec = data.draw(st.sampled_from(self.resendable()))
        self.serial += 1
        self.submit(rec.kind, rec.tenant, rec.key)

    @precondition(lambda self: any(self.in_flight(r) for r in self.seen))
    @rule(data=st.data(), fails=st.booleans())
    def finish(self, data, fails):
        """``_admit`` then ``_complete``: price it unless its key is paid."""
        rec = data.draw(st.sampled_from(
            [r for r in self.seen if self.in_flight(r)]
        ))
        now = self.clock()
        reply = (
            {"type": "error", "error": f"boom {rec.ticket}"} if fails
            else {"type": "sweep_done", "count": 1} if rec.kind == "sweep"
            else {"type": "result", "value": rec.message["n"]}
        )
        if not self.ledger.charged(rec.key):
            ok, retry_after = self.admission.admit(rec.tenant, COST)
            if ok:
                self.ledger.charge(rec.key, now)
                self.journal.save_quota(self.admission.snapshot())
                self.admitted[rec.tenant] += 1
                if rec.key is not None:
                    # charged at most once until it expires
                    earlier = self.charges.setdefault(rec.key, [])
                    assert all(now - t > TTL for t in earlier)
                    earlier.append(now)
            else:
                reply = {"type": "rejected", "retry_after": retry_after}
        self.ledger.finish(rec.request, reply, now)
        rec.reply, rec.stamp = reply, now

    @precondition(lambda self: any(self.by_ticket(r) for r in self.seen))
    @rule(data=st.data())
    def acknowledge(self, data):
        rec = data.draw(st.sampled_from(
            [r for r in self.seen if self.by_ticket(r)]
        ))
        assert self.ledger.acknowledge(rec.ticket) is True
        rec.acked = True
        assert self.ledger.acknowledge(rec.ticket) is False

    @rule(dt=st.sampled_from([0.5, 3.0, TTL + 0.5]))
    def advance_clock_and_expire(self, dt):
        held = [rec for rec in self.seen if self.by_ticket(rec)]
        self.clock.now += dt
        expired = self.ledger.expire(self.clock(), TTL)
        assert expired == sum(not self.by_ticket(rec) for rec in held)

    @rule()
    def restart(self):
        """The coordinator dies; its successor adopts the journal."""
        before = {row[0]: row for row in self.journal.entries()}
        was = {
            rec.ticket: (self.by_ticket(rec), self.by_key(rec))
            for rec in self.seen
        }
        was_paid = {rec.key for rec in self.seen if self.ledger.charged(rec.key)}
        tokens = self.admission.snapshot()

        resumed = {request.ticket: (request, message)
                   for request, message in self.boot()}

        after = {row[0]: row for row in self.journal.entries()}
        assert after.keys() == before.keys()
        for ticket, (_, kind, _, key, state, _, reply) in before.items():
            # pending run / sweep rows are abandoned, their keys still paid
            orphan = state == "pending" and kind != "submit"
            assert after[ticket][4] == ("abandoned" if orphan else state)
            if key is not None and not is_rejection(reply):
                assert self.ledger.charged(key)
        # a paid key stays paid while a row carries it, and no longer
        journaled = {row[3] for row in before.values()}
        for key in {rec.key for rec in self.seen} - {None}:
            if key not in journaled:
                assert not self.ledger.charged(key)
            elif key in was_paid:
                assert self.ledger.charged(key)
        # exactly the un-acknowledged submits in flight are handed back,
        # with the message they were accepted with
        expected = [rec for rec in self.seen
                    if self.in_flight(rec) and rec.kind == "submit"
                    and not rec.acked]
        assert sorted(resumed) == sorted(rec.ticket for rec in expected)
        assert self.journal.stats()["pending"] == len(resumed)
        for rec in self.seen:
            if self.in_flight(rec):
                if rec.ticket in resumed:
                    rec.request, message = resumed[rec.ticket]
                    assert message == rec.message
                else:
                    rec.lost = True  # its process died; the client resends
            elif rec.ticket in before:
                rec.stamp = self.clock()  # a restart restarts the TTL
            else:
                rec.lost = True
            # what was journaled is found exactly as before the restart
            if rec.ticket in before and not rec.lost:
                assert (self.by_ticket(rec), self.by_key(rec)) == was[rec.ticket]
        # quota: a restart never mints tokens and forgets no admission
        for tenant, bucket in self.admission.snapshot().items():
            assert bucket["tokens"] <= tokens[tenant]["tokens"] + 1e-12
            assert bucket["admitted"] == self.admitted[tenant]

    # -- invariants -----------------------------------------------------------

    @invariant()
    def the_ledger_serves_what_the_client_is_owed(self):
        for rec in self.seen:
            held = self.ledger.get(rec.ticket)
            assert (held is not None) == self.by_ticket(rec)
            found = self.ledger.lookup(rec.key)
            mine = found is not None and found.ticket == rec.ticket
            # by_key covers: a rejection is never retained under its key,
            # a sweep is never returned by lookup, nothing is served past
            # its acknowledgement or its TTL
            assert mine == self.by_key(rec)
            for request in (held, found if mine else None):
                if request is not None:
                    assert request.reply == rec.reply  # served unchanged
        assert len(self.ledger) == sum(self.by_ticket(rec) for rec in self.seen)

    @invariant()
    def the_journal_and_the_buckets_agree(self):
        pending = [rec for rec in self.seen
                   if self.in_flight(rec) and not rec.acked]
        assert self.journal.stats()["pending"] == len(pending)
        buckets = self.admission.stats()["tenants"]
        for tenant, count in self.admitted.items():
            if count:
                assert buckets[tenant]["admitted"] == count
                assert buckets[tenant]["spent"] == pytest.approx(COST * count)


LedgerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestLedgerMachine = LedgerMachine.TestCase
