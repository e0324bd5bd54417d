"""Content-addressed variant cache.

Parameter sweeps (VQE/QAOA coordinate descent) and QEC trial loops change a
few rotation angles between calls while most fragments — in particular all
the wide Clifford ones — stay byte-identical.  The :class:`VariantCache`
memoises variant results across ``run()`` calls keyed by a structural
*fingerprint* of the variant circuit plus the evaluation mode, so repeated
evaluation of an identical variant is a dictionary lookup instead of a
simulation.

The fingerprint is content-addressed (SHA-256 over gate names, exact
parameter bytes, wire indices and measured qubits), so two circuits built
independently but identical gate-for-gate share an entry.  Its byte
stream is read off the circuit's op table, never by walking
``Operation``s, so a fragment body born from the cutter's table is
fingerprinted without its op list being built; the bytes are what packing
op by op gives, and seeds derive from them.
Eviction is LRU with a bounded entry count; hit/miss counters feed the
engine's stats.
"""

from __future__ import annotations

import hashlib
import struct
import sys
import threading
from collections import OrderedDict

from repro.circuits.circuit import Circuit, OpTable


def approx_result_bytes(value) -> int:
    """A cheap size estimate of a cached result, in bytes.

    Sums the ``nbytes`` of every numpy array reachable through instance
    attributes, tuples and lists (``SampledVariantData.words``, shots
    packed 64 to a word; ``DenseVariantData.distribution.keys/probs``; a
    Clifford fragment's ``PauliMap`` images, ...)
    plus ``sys.getsizeof`` of the objects themselves.  Deliberately
    approximate — it feeds the cache's ``bytes`` gauge, not an allocator
    — and never serialises the value to measure it.
    """
    total = 0
    seen: set[int] = set()
    stack = [value]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        nbytes = getattr(obj, "nbytes", None)
        if isinstance(nbytes, int):
            total += nbytes
            continue
        try:
            total += sys.getsizeof(obj)
        except TypeError:  # pragma: no cover - exotic objects
            pass
        attrs = getattr(obj, "__dict__", None)
        if attrs:
            stack.extend(attrs.values())
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
    return total


def _op_bytes(table: OpTable) -> bytes:
    """The fingerprint's byte stream for an op table: per op its gate's
    name and exact parameter bytes, then its wires as ``<q`` words and
    ``;``.

    Read off the table's columns, never from ``Operation``s: each distinct
    gate object's head is packed once, so ``ZPow(0.0)`` and ``ZPow(-0.0)``
    keep their own bytes, and the wire column is packed once and sliced
    per op.
    """
    heads = [gate.name.encode() + gate.param_bytes for gate in table.gates]
    wires = table.wires.tolist()
    packed = struct.pack(f"<{len(wires)}q", *wires)
    bounds = table.offsets.tolist()
    ops = [
        heads[g] + packed[8 * a : 8 * b]
        for g, a, b in zip(table.gate_index.tolist(), bounds, bounds[1:])
    ]
    return b";".join(ops) + b";" if ops else b""


def circuit_fingerprint(circuit: Circuit) -> str:
    """A content hash of a circuit's exact structure.

    Covers width, every operation (gate name, float parameters at full
    precision, wires) and the measured-qubit set — everything that affects
    simulation output.
    """
    h = hashlib.sha256()
    h.update(struct.pack("<q", circuit.n_qubits))
    h.update(_op_bytes(circuit.table))
    h.update(b"|m")
    measured = circuit.measured_qubits
    h.update(struct.pack(f"<{len(measured)}q", *measured))
    return h.hexdigest()


def fragment_fingerprint(body: Circuit, inputs, outputs) -> str:
    """A content hash of a whole fragment's variants: the ``body`` with
    every preparation of the ``inputs`` wires and every measurement basis
    of the ``outputs`` wires, all wires measured.

    Covers the width, every body operation and both wire lists in order;
    a domain tag keeps it apart from every :func:`circuit_fingerprint`.
    """
    h = hashlib.sha256(b"fragment|")
    h.update(struct.pack("<q", body.n_qubits))
    h.update(_op_bytes(body.table))
    for tag, wires in ((b"|i", inputs), (b"|o", outputs)):
        h.update(tag)
        h.update(struct.pack(f"<{len(wires)}q", *wires))
    return h.hexdigest()


def noise_fingerprint(noise) -> tuple | None:
    """A content-based key component for a noise model.

    Keys a :class:`repro.stabilizer.NoiseModel` by its channels' terms, so
    two models with equal noise share cache entries and — crucially — a
    *recycled object address* never aliases a different model (``id()`` is
    unsafe across garbage collection).  Models with a custom ``locations``
    override (or unknown shapes) fall back to a unique token, disabling
    cross-run caching for them rather than risking stale hits.
    """
    if noise is None:
        return None

    def channel_key(channel):
        if channel is None:
            return None
        return (channel.num_qubits, tuple(sorted(channel.terms)))

    def opaque_token() -> tuple:
        # unknown noise shape: a fresh token per call still allows in-run
        # deduplication but never matches a previous run's entries
        return ("opaque-noise", id(noise), object())

    if "locations" in (getattr(noise, "__dict__", None) or {}):
        # an instance-level `locations` override changes where channels
        # apply in ways the channel terms cannot capture: keep it opaque
        return opaque_token()
    try:
        return (
            "noise",
            channel_key(noise.after_gate_1q),
            channel_key(noise.after_gate_2q),
            channel_key(noise.before_measure),
        )
    except (AttributeError, TypeError):
        return opaque_token()


def resolve_cache(spec) -> "VariantCache | None":
    """Coerce a cache spec to an instance or ``None``.

    ``True`` builds a fresh private :class:`VariantCache`, ``False`` /
    ``None`` disables caching, and an existing instance passes through —
    the one rule shared by ``SuperSim`` and ``FragmentEvaluator``.
    """
    if spec is True:
        return VariantCache()
    if spec is False or spec is None:
        return None
    return spec


class VariantCache:
    """A bounded LRU mapping (fingerprint, mode) -> variant result.

    Thread-safe: the distributed service shares one instance across
    concurrent client requests executing on different threads, so every
    mutation happens under a lock.  ``stats()`` reports the LRU's
    lifetime ``evictions`` and an approximate ``bytes`` gauge of the
    live entries (see :func:`approx_result_bytes`) alongside the
    hit/miss/entry counters.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._data: OrderedDict[tuple, object] = OrderedDict()
        self._sizes: dict[tuple, int] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._bytes = 0

    def get(self, key: tuple):
        """The cached value, or ``None`` (counts a hit/miss)."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: tuple, value) -> None:
        size = approx_result_bytes(value)
        with self._lock:
            if key in self._data:
                self._bytes -= self._sizes.get(key, 0)
            self._data[key] = value
            self._sizes[key] = size
            self._bytes += size
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                evicted, _ = self._data.popitem(last=False)
                self._bytes -= self._sizes.pop(evicted, 0)
                self.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: tuple) -> bool:
        return key in self._data

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._sizes.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self._bytes = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._data),
                "evictions": self.evictions,
                "bytes": self._bytes,
            }

    def __repr__(self) -> str:
        return (
            f"VariantCache({len(self._data)}/{self.maxsize} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )
