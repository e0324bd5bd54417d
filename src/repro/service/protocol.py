"""The service wire protocol: framed JSON/pickle messages over a Transport.

Every message is one Python dict with a string ``"type"``.  On the wire a
message is a *frame*:

.. code-block:: text

    +-----+----------------+----------------------+
    | tag | uint32 length  |  payload (length B)  |
    +-----+----------------+----------------------+

``tag`` selects the codec — ``1`` for UTF-8 JSON (control messages:
hellos, stats, acknowledgements), ``2`` for pickle (anything carrying
engine objects: jobs, variant results, configs, circuits, exceptions).
The sender picks JSON whenever the message survives a JSON round-trip
unchanged, so the cheap messages stay language-agnostic and inspectable
on the wire while the data plane keeps full Python fidelity.  Length is
big-endian and capped (:data:`MAX_FRAME_BYTES`) so a corrupt or
malicious peer cannot make the receiver allocate unbounded memory.

Transports come in two flavours sharing the same frame format:

* :class:`TcpTransport` — a blocking socket wrapper for the synchronous
  sides (client, worker).  ``send`` and ``recv`` each take their own
  lock, so one thread may stream results out while another reads
  commands.
* :func:`read_message` / :func:`write_message` — asyncio-stream helpers
  for the coordinator's event loop.

The coordinator's welcome carries :data:`PROTOCOL_VERSION`; a worker
refuses a welcome of another version.  Version 2 moves variant jobs in
*frames*, one message per worker lane in each direction:

.. code-block:: text

    coordinator -> worker   {"type": "job", "frame": fid,
                             "jobs": [(jid, job), ...], "policy": policy}
    worker -> coordinator   {"type": "job_result", "frame": fid,
                             "results": [{"jid", "value" | "exception",
                                          "faults"}, ...]}

A frame is one pickle, so what its jobs share — backend, features, chaos
schedule, body ops — is serialised once by the pickle memo; a one-job
frame is the same message.

Pickle implies trust in the peer — see the package docstring; the
coordinator binds localhost by default.
"""

from __future__ import annotations

import json
import pickle
import random
import socket
import struct
import threading
from typing import Protocol, runtime_checkable

__all__ = [
    "Transport",
    "TcpTransport",
    "connect",
    "parse_address",
    "format_address",
    "encode_frame",
    "decode_payload",
    "read_message",
    "write_frame",
    "write_message",
    "backoff_delay",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
]

_TAG_JSON = 1
_TAG_PICKLE = 2
_HEADER = struct.Struct(">BI")

#: what the welcome announces; bumped whenever a message changes shape
PROTOCOL_VERSION = 2

#: refuse frames larger than this (a wide sampled sweep point stays far
#: below it; anything bigger is a protocol error, not a workload)
MAX_FRAME_BYTES = 1 << 30


def encode_frame(message: dict) -> bytes:
    """One wire frame for ``message`` (header + payload)."""
    payload = None
    try:
        text = json.dumps(message)
        # only take the JSON path when decoding returns the same object:
        # tuples, bytes, numpy scalars etc. must fall through to pickle
        if json.loads(text) == message:
            payload = text.encode()
            tag = _TAG_JSON
    except (TypeError, ValueError):
        pass
    if payload is None:
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        tag = _TAG_PICKLE
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(
            f"message of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame cap"
        )
    return _HEADER.pack(tag, len(payload)) + payload


def decode_payload(tag: int, payload: bytes) -> dict:
    """Decode one frame's payload back into its message dict."""
    if tag == _TAG_JSON:
        message = json.loads(payload.decode())
    elif tag == _TAG_PICKLE:
        message = pickle.loads(payload)
    else:
        raise ValueError(f"unknown frame tag {tag}")
    if not isinstance(message, dict):
        raise ValueError(f"expected a message dict, got {type(message).__name__}")
    return message


def parse_address(address) -> tuple[str, int]:
    """``"host:port"`` / ``(host, port)`` -> ``(host, port)``."""
    if isinstance(address, str):
        host, _, port = address.rpartition(":")
        if not host or not port:
            raise ValueError(f"expected 'host:port', got {address!r}")
        return host, int(port)
    host, port = address
    return str(host), int(port)


def format_address(address) -> str:
    host, port = parse_address(address)
    return f"{host}:{port}"


@runtime_checkable
class Transport(Protocol):
    """A bidirectional message channel: what every service peer holds.

    ``send`` writes one message dict; ``recv`` blocks for the next one,
    returning ``None`` on orderly EOF (peer closed); ``close`` tears the
    channel down.  The TCP implementation below is the only one shipped,
    but everything above the framing — client, worker — types against
    this protocol, so an in-process loopback or a TLS wrapper slot in
    without touching them.
    """

    def send(self, message: dict) -> None: ...

    def recv(self) -> dict | None: ...

    def close(self) -> None: ...


class TcpTransport:
    """Blocking socket transport for the synchronous service peers.

    Thread-safe for one reader plus any number of writers: ``send`` is
    serialised by a write lock (one frame hits the wire atomically) and
    ``recv`` by a read lock.  ``recv`` returns ``None`` when the peer
    closed the connection cleanly between frames; a close *mid*-frame
    raises ``ConnectionError`` — the distinction lets the coordinator
    tell a finished worker from a crashed one.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - not every family supports it
            pass

    def send(self, message: dict) -> None:
        frame = encode_frame(message)
        with self._send_lock:
            self._sock.sendall(frame)

    def _read_exact(self, n: int) -> bytes | None:
        chunks = []
        remaining = n
        while remaining:
            chunk = self._sock.recv(min(remaining, 1 << 20))
            if not chunk:
                if remaining == n and not chunks:
                    return None  # clean EOF on a frame boundary
                raise ConnectionError("peer closed the connection mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> dict | None:
        with self._recv_lock:
            header = self._read_exact(_HEADER.size)
            if header is None:
                return None
            tag, length = _HEADER.unpack(header)
            if length > MAX_FRAME_BYTES:
                raise ValueError(f"frame of {length} bytes exceeds the cap")
            payload = self._read_exact(length) if length else b""
            if payload is None:
                raise ConnectionError("peer closed the connection mid-frame")
        return decode_payload(tag, payload)

    def set_deadline(self, seconds: float | None) -> None:
        """Bound every blocking socket operation (``None`` = forever).

        With a deadline set, a silently dead peer (half-open socket,
        frozen process, network partition) surfaces as ``socket.timeout``
        — an ``OSError`` the reconnect loops already handle — instead of
        a hang.  The worker derives its deadline from the coordinator's
        advertised heartbeat interval.
        """
        self._sock.settimeout(seconds)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __repr__(self) -> str:
        try:
            peer = self._sock.getpeername()
            return f"TcpTransport(peer={peer[0]}:{peer[1]})"
        except OSError:
            return "TcpTransport(closed)"


def backoff_delay(
    attempt: int,
    base: float = 0.5,
    cap: float = 5.0,
    rng: random.Random | None = None,
) -> float:
    """Jittered exponential backoff for reconnect loops.

    Attempt 1, 2, 3, ... maps to ``min(cap, base * 2**(attempt-1))``
    scaled by a uniform jitter in [0.5, 1.0) — the jitter is what keeps
    a fleet of workers orphaned by one coordinator death from stampeding
    its successor in lockstep.
    """
    delay = min(float(cap), float(base) * (2.0 ** max(0, attempt - 1)))
    draw = rng.random() if rng is not None else random.random()
    return delay * (0.5 + 0.5 * draw)


def connect(address, timeout: float | None = 10.0) -> TcpTransport:
    """Open a transport to a coordinator at ``"host:port"`` / ``(host, port)``.

    ``timeout`` bounds connection establishment only; the established
    transport blocks indefinitely (results legitimately take a while).
    """
    host, port = parse_address(address)
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return TcpTransport(sock)


# -- asyncio side (coordinator) ---------------------------------------------


async def read_message(reader) -> dict | None:
    """Read one frame from an ``asyncio.StreamReader`` (``None`` on EOF)."""
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ConnectionError("peer closed the connection mid-frame") from exc
    tag, length = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds the cap")
    try:
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError("peer closed the connection mid-frame") from exc
    return decode_payload(tag, payload)


async def write_frame(writer, frame: bytes) -> None:
    """Write one encoded frame to an ``asyncio.StreamWriter`` and drain."""
    writer.write(frame)
    await writer.drain()


async def write_message(writer, message: dict) -> None:
    """Encode ``message`` and write it as one frame."""
    await write_frame(writer, encode_frame(message))
