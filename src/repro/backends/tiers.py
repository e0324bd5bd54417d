"""Cache tiers: the content-addressed variant cache as a shared service.

The in-memory :class:`~repro.backends.cache.VariantCache` deduplicates
simulation work within one process.  The distributed execution service
(:mod:`repro.service`) promotes it to a *shared* tier so concurrent
sweeps from many clients share work — the cache keys are already content
hashes (variant fingerprint + backend token + evaluation mode), so any
key-value store is a valid tier.  This module defines the tier contract
and two implementations:

* :class:`CacheTier` — the structural protocol every tier satisfies
  (``get`` / ``put`` / ``stats`` / ``clear`` / ``__contains__`` /
  ``__len__``); the in-memory ``VariantCache`` already conforms;
* :class:`SQLiteCacheTier` — a file-backed store (pickled values keyed
  by a SHA-256 token of the cache key) that survives coordinator
  restarts and can be shared by processes on one host;
* :class:`TieredCache` — a small front/back composition (e.g. in-memory
  LRU in front of SQLite) with promote-on-hit.

Degraded results never reach any tier: the evaluator already excludes
them before ``put`` (their provenance no longer matches the key).
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from typing import Protocol, runtime_checkable

from repro.backends.cache import VariantCache

__all__ = [
    "CacheTier",
    "SQLiteCacheTier",
    "TieredCache",
    "cache_key_token",
]


@runtime_checkable
class CacheTier(Protocol):
    """What the engine requires of a variant-cache tier.

    ``get`` returns the cached value or ``None`` (counting a hit or
    miss); ``put`` stores unconditionally; ``stats`` reports at least
    ``hits`` / ``misses`` / ``entries``.  :class:`VariantCache`,
    :class:`SQLiteCacheTier` and :class:`TieredCache` all conform, so
    anywhere ``SuperSim`` or ``FragmentEvaluator`` accepts a cache
    instance, any tier works.
    """

    def get(self, key: tuple): ...

    def put(self, key: tuple, value) -> None: ...

    def stats(self) -> dict: ...

    def clear(self) -> None: ...

    def __contains__(self, key: tuple) -> bool: ...

    def __len__(self) -> int: ...


def cache_key_token(key: tuple) -> str:
    """A stable string token for a variant-cache key.

    Cache keys are nested tuples of primitives (content-hash strings,
    ints, ``None``, backend config tokens).  Their ``repr`` is stable
    across processes for those types, so a SHA-256 over it is a valid
    cross-process key — used where tuples cannot be (SQLite primary
    keys, wire messages).
    """
    return hashlib.sha256(repr(key).encode()).hexdigest()


class SQLiteCacheTier:
    """A file-backed cache tier: pickled variant results in SQLite.

    Durable across coordinator restarts and shareable between processes
    on one host (SQLite serialises writers itself; this class also locks
    around its own connection since sqlite3 objects are not thread-safe
    by default).  Eviction is LRU by last-access time once ``max_entries``
    is exceeded.

    ``path`` may be ``":memory:"`` for an ephemeral store (tests).

    Rows are pickles, so a file is only as good as the classes that wrote
    it: it is stamped with :attr:`SCHEMA_VERSION` (``PRAGMA user_version``)
    and a file carrying any other number is emptied at open — its rows
    read as misses and are never unpickled.
    """

    #: bump when a pickled result class changes layout.  0 is an unstamped
    #: file (``SampledVariantData`` pickled as a bool matrix); 1 holds shot
    #: words; 2 holds a Clifford fragment job's value as a ``PauliMap``
    #: (1 held a tuple of per-variant affine forms)
    SCHEMA_VERSION = 2

    def __init__(self, path, max_entries: int = 100_000):
        import sqlite3

        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.path = str(path)
        self.max_entries = int(max_entries)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS variants ("
            " token TEXT PRIMARY KEY,"
            " payload BLOB NOT NULL,"
            " nbytes INTEGER NOT NULL,"
            " last_used REAL NOT NULL)"
        )
        (stamp,) = self._conn.execute("PRAGMA user_version").fetchone()
        if stamp != self.SCHEMA_VERSION:
            self._conn.execute("DELETE FROM variants")
            self._conn.execute(f"PRAGMA user_version = {self.SCHEMA_VERSION}")
        self._conn.commit()
        self._clock = 0.0  # monotone access counter; no wall-clock reads
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _touch(self) -> float:
        self._clock += 1.0
        return self._clock

    def get(self, key: tuple):
        token = cache_key_token(key)
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM variants WHERE token = ?", (token,)
            ).fetchone()
            if row is None:
                self.misses += 1
                return None
            self._conn.execute(
                "UPDATE variants SET last_used = ? WHERE token = ?",
                (self._touch(), token),
            )
            self._conn.commit()
            self.hits += 1
        return pickle.loads(row[0])

    def put(self, key: tuple, value) -> None:
        token = cache_key_token(key)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO variants "
                "(token, payload, nbytes, last_used) VALUES (?, ?, ?, ?)",
                (token, payload, len(payload), self._touch()),
            )
            excess = (
                self._conn.execute("SELECT COUNT(*) FROM variants").fetchone()[0]
                - self.max_entries
            )
            if excess > 0:
                self._conn.execute(
                    "DELETE FROM variants WHERE token IN ("
                    " SELECT token FROM variants ORDER BY last_used LIMIT ?)",
                    (excess,),
                )
                self.evictions += excess
            self._conn.commit()

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM variants WHERE token = ?",
                (cache_key_token(key),),
            ).fetchone()
        return row is not None

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute(
                "SELECT COUNT(*) FROM variants"
            ).fetchone()[0]

    def clear(self) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM variants")
            self._conn.commit()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict:
        with self._lock:
            entries, nbytes = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(nbytes), 0) FROM variants"
            ).fetchone()
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": entries,
                "evictions": self.evictions,
                "bytes": nbytes,
            }

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __repr__(self) -> str:
        return f"SQLiteCacheTier({self.path!r}, {len(self)} entries)"


class TieredCache:
    """A front/back tier composition with promote-on-hit.

    ``get`` consults the fast front tier (typically the in-memory LRU),
    falling back to the backing tier and promoting hits forward; ``put``
    writes through to both.  The coordinator uses this to put a bounded
    in-memory LRU in front of a durable SQLite store.
    """

    def __init__(self, front=None, back=None):
        self.front = front if front is not None else VariantCache()
        self.back = back

    def get(self, key: tuple):
        value = self.front.get(key)
        if value is not None or self.back is None:
            return value
        value = self.back.get(key)
        if value is not None:
            self.front.put(key, value)
        return value

    def put(self, key: tuple, value) -> None:
        self.front.put(key, value)
        if self.back is not None:
            self.back.put(key, value)

    def __contains__(self, key: tuple) -> bool:
        if key in self.front:
            return True
        return self.back is not None and key in self.back

    def __len__(self) -> int:
        # front entries are a subset of back entries under write-through,
        # but the tiers may have been populated independently: report the
        # larger tier rather than double-counting
        if self.back is None:
            return len(self.front)
        return max(len(self.front), len(self.back))

    def clear(self) -> None:
        self.front.clear()
        if self.back is not None:
            self.back.clear()

    def stats(self) -> dict:
        stats = {"front": self.front.stats()}
        if self.back is not None:
            stats["back"] = self.back.stats()
        front = stats["front"]
        # roll up the headline counters so TieredCache.stats() still
        # satisfies the CacheTier contract's flat hits/misses/entries
        stats["hits"] = front.get("hits", 0) + (
            stats.get("back", {}).get("hits", 0)
        )
        stats["misses"] = (
            stats.get("back", {}).get("misses", 0)
            if self.back is not None
            else front.get("misses", 0)
        )
        stats["entries"] = len(self)
        return stats

    def close(self) -> None:
        for tier in (self.front, self.back):
            close = getattr(tier, "close", None)
            if close is not None:
                close()

    def __repr__(self) -> str:
        return f"TieredCache(front={self.front!r}, back={self.back!r})"

