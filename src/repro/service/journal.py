"""The coordinator's durable journal: accepted work survives a restart.

A coordinator without a journal loses everything a process death can
lose: submitted tickets (the client polls a fresh coordinator and gets
"unknown ticket"), completed-but-unfetched results, and every tenant's
quota bucket level (a restart would hand every tenant a free full
burst).  :class:`CoordinatorJournal` is the storage for those — SQLite
in WAL mode — and nothing more:

* **Requests.**  One row per accepted request — its kind, tenant,
  idempotency key, pickled message and (optionally) pickled reply — in
  state ``pending``, ``done`` or ``abandoned``.  Which requests are
  written when, what each kind retains and how a restarted coordinator
  reads the rows back is the request ledger's business,
  :mod:`repro.service.requests`, the only caller of the request methods.
* **Quota.**  Per-tenant token-bucket levels, snapshotted by the
  coordinator on every admission.  Restoration is conservative: no
  refill is credited for the downtime, so a restart never mints tokens.

The journal is small and bounded: finished rows are dropped by the TTL
sweep (:meth:`expire`), and ``flush`` checkpoints the WAL for a clean
handoff on graceful drain.

All methods are thread-safe (the coordinator touches the journal from
its event loop and from request threads).  A file that is not a journal
and a row that does not decode raise :class:`~repro.errors.ServiceError`
naming the path or the ticket, so a coordinator refuses to start on
either rather than serve from half a journal.
"""

from __future__ import annotations

import pickle
import sqlite3
import threading
import time

from repro.errors import ServiceError

__all__ = ["CoordinatorJournal"]


class CoordinatorJournal:
    """SQLite-backed durable state for one coordinator.

    ``path`` may be ``":memory:"`` for tests that only need the API
    surface (an in-memory journal obviously does not survive a process
    death, but it does survive a :class:`Coordinator` object's death
    when the journal instance is handed to its successor).
    """

    def __init__(self, path):
        self.path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        try:
            self._create_schema()
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise ServiceError(
                f"{self.path} is not a coordinator journal: {exc}"
            ) from exc

    def _create_schema(self) -> None:
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS requests ("
            " ticket TEXT PRIMARY KEY,"
            " kind TEXT NOT NULL,"
            " tenant TEXT NOT NULL,"
            " idempotency TEXT,"
            " state TEXT NOT NULL,"
            " request BLOB,"
            " reply BLOB,"
            " created REAL NOT NULL,"
            " finished REAL)"
        )
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_requests_idem"
            " ON requests(idempotency)"
        )
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS quota ("
            " tenant TEXT PRIMARY KEY,"
            " tokens REAL NOT NULL,"
            " admitted INTEGER NOT NULL,"
            " rejected INTEGER NOT NULL,"
            " spent REAL NOT NULL,"
            " updated REAL NOT NULL)"
        )
        self._conn.commit()

    # -- requests ------------------------------------------------------------

    def record_request(
        self,
        ticket: str,
        kind: str,
        tenant: str,
        message: dict | None = None,
        idempotency: str | None = None,
    ) -> None:
        """Journal one accepted request *before* it executes."""
        blob = (
            pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
            if message is not None
            else None
        )
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO requests"
                " (ticket, kind, tenant, idempotency, state, request, reply,"
                "  created, finished)"
                " VALUES (?, ?, ?, ?, 'pending', ?, NULL, ?, NULL)",
                (ticket, kind, tenant, idempotency, blob, time.time()),
            )
            self._conn.commit()

    def record_reply(self, ticket: str, reply: dict | None = None) -> None:
        """Mark a request ``done``; retain the reply when one is given."""
        blob = (
            pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
            if reply is not None
            else None
        )
        with self._lock:
            self._conn.execute(
                "UPDATE requests SET state = 'done', reply = ?, finished = ?"
                " WHERE ticket = ?",
                (blob, time.time(), ticket),
            )
            self._conn.commit()

    def abandon(self, ticket: str) -> None:
        """Mark a pending request that will never get a reply; the row is
        kept (until TTL) for its idempotency key."""
        with self._lock:
            self._conn.execute(
                "UPDATE requests SET state = 'abandoned', finished = ?"
                " WHERE ticket = ? AND state = 'pending'",
                (time.time(), ticket),
            )
            self._conn.commit()

    def acknowledge(self, ticket: str) -> None:
        """The client confirmed receipt: the reply need not be durable."""
        with self._lock:
            self._conn.execute(
                "DELETE FROM requests WHERE ticket = ?", (ticket,)
            )
            self._conn.commit()

    def entries(self) -> list[tuple]:
        """Every journaled request, decoded:
        ``(ticket, kind, tenant, idempotency, state, message, reply)``.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT ticket, kind, tenant, idempotency, state, request,"
                " reply FROM requests ORDER BY created"
            ).fetchall()
        return [
            (
                ticket,
                kind,
                tenant,
                idempotency,
                state,
                _decode(request, ticket, "request"),
                _decode(reply, ticket, "reply"),
            )
            for ticket, kind, tenant, idempotency, state, request, reply in rows
        ]

    def expire(self, ttl: float, now: float | None = None) -> int:
        """Drop finished (done/abandoned) entries older than ``ttl`` seconds.

        Pending entries never expire here — they are either executing or
        awaiting recovery, and dropping them would lose accepted work.
        """
        cutoff = (now if now is not None else time.time()) - ttl
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM requests"
                " WHERE state != 'pending' AND finished IS NOT NULL"
                " AND finished < ?",
                (cutoff,),
            )
            self._conn.commit()
        return cursor.rowcount

    # -- quota ---------------------------------------------------------------

    def save_quota(self, snapshot: dict) -> None:
        """Persist per-tenant bucket levels (an admission-time snapshot)."""
        now = time.time()
        with self._lock:
            for tenant, bucket in snapshot.items():
                self._conn.execute(
                    "INSERT OR REPLACE INTO quota"
                    " (tenant, tokens, admitted, rejected, spent, updated)"
                    " VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        tenant,
                        float(bucket["tokens"]),
                        int(bucket.get("admitted", 0)),
                        int(bucket.get("rejected", 0)),
                        float(bucket.get("spent", 0.0)),
                        now,
                    ),
                )
            self._conn.commit()

    def load_quota(self) -> dict:
        """The last saved per-tenant bucket levels."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT tenant, tokens, admitted, rejected, spent FROM quota"
            ).fetchall()
        return {
            tenant: {
                "tokens": tokens,
                "admitted": admitted,
                "rejected": rejected,
                "spent": spent,
            }
            for tenant, tokens, admitted, rejected, spent in rows
        }

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        """Commit and checkpoint the WAL (graceful-drain handoff)."""
        with self._lock:
            self._conn.commit()
            try:
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except Exception:  # pragma: no cover - non-WAL fallback (":memory:")
                pass

    def stats(self) -> dict:
        with self._lock:
            by_state = dict(
                self._conn.execute(
                    "SELECT state, COUNT(*) FROM requests GROUP BY state"
                ).fetchall()
            )
            tenants = self._conn.execute(
                "SELECT COUNT(*) FROM quota"
            ).fetchone()[0]
        return {
            "path": self.path,
            "pending": by_state.get("pending", 0),
            "done": by_state.get("done", 0),
            "abandoned": by_state.get("abandoned", 0),
            "quota_tenants": tenants,
        }

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __repr__(self) -> str:
        return f"CoordinatorJournal({self.path!r})"


def _decode(blob, ticket: str, column: str):
    """One pickled column of a journal row, or ``None`` for SQL NULL."""
    if blob is None:
        return None
    try:
        return pickle.loads(blob)
    except Exception as exc:  # a payload's classes raise what they raise
        raise ServiceError(
            f"journaled {column} of ticket {ticket} does not decode: {exc!r}"
        ) from exc
