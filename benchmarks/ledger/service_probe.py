"""Service-side probes of the traced run: a recording ``Transport`` and
micro-measurements of the wire codec and the journal on recorded traffic.

Everything here calls public API only — ``protocol.connect`` /
``encode_frame`` / ``decode_payload``, ``CoordinatorJournal`` — from the
outside; the service itself is not modified.
"""

from __future__ import annotations

import os
import statistics
import struct
import time
import uuid
from dataclasses import dataclass

from repro.service.journal import CoordinatorJournal
from repro.service.protocol import connect, decode_payload, encode_frame

from benchmarks.ledger.spans import Tracer

#: the wire header documented in repro.service.protocol: tag byte + uint32 length
_HEADER = struct.Struct(">BI")
_TAG_PICKLE = 2


@dataclass
class Frame:
    direction: str  # "send" | "recv"
    kind: str
    start: float
    end: float
    message: dict


class RecordingTransport:
    """A ``Transport`` that forwards to a TCP one and remembers every frame.

    Given the run's tracer it also records ``client.send`` / ``client.wait``
    spans, which nest under the op span of the thread that is waiting.
    """

    def __init__(self, address, tracer=None):
        self.inner = connect(address)
        self.tracer = tracer or Tracer()  # a fresh tracer records nothing
        self.frames: list[Frame] = []

    def send(self, message: dict) -> None:
        with self.tracer.span("client.send"):
            start = time.perf_counter()
            self.inner.send(message)
            end = time.perf_counter()
        self.frames.append(Frame("send", str(message.get("type")), start, end, message))

    def recv(self):
        with self.tracer.span("client.wait"):
            start = time.perf_counter()
            message = self.inner.recv()
            end = time.perf_counter()
        if message is not None:
            self.frames.append(
                Frame("recv", str(message.get("type")), start, end, message)
            )
        return message

    def set_deadline(self, seconds) -> None:
        self.inner.set_deadline(seconds)

    def close(self) -> None:
        self.inner.close()


def codec_costs(frames: list[Frame], sample: int = 200) -> dict:
    """Encode/decode cost and size of recorded frames, by re-running the
    public codec on an evenly strided sample of them."""
    if not frames:
        return {"encode_s": 0.0, "decode_s": 0.0, "pickle_share": 0.0, "bytes": 0.0}
    stride = max(1, len(frames) // sample)
    encode_s, decode_s, sizes, pickled = [], [], [], 0
    for frame in frames[::stride]:
        start = time.perf_counter()
        wire = encode_frame(frame.message)
        encode_s.append(time.perf_counter() - start)
        tag, length = _HEADER.unpack(wire[: _HEADER.size])
        start = time.perf_counter()
        decode_payload(tag, wire[_HEADER.size : _HEADER.size + length])
        decode_s.append(time.perf_counter() - start)
        sizes.append(len(wire))
        pickled += tag == _TAG_PICKLE
    return {
        "encode_s": statistics.median(encode_s),
        "decode_s": statistics.median(decode_s),
        "pickle_share": pickled / len(sizes),
        "bytes": statistics.fmean(sizes),
    }


def journal_costs(directory: str, tenant: str, requests: int = 40) -> dict:
    """What journaling one sweep request costs, on a fresh WAL journal.

    Mirrors the coordinator's calls for a sweep: the request is recorded
    without its payload (a retry resends the circuits), then marked done.
    """
    path = os.path.join(directory, "probe-journal.db")
    journal = CoordinatorJournal(path)
    request_s, reply_s = [], []
    try:
        for _ in range(requests):
            ticket = f"t-{uuid.uuid4().hex[:12]}"
            start = time.perf_counter()
            journal.record_request(
                ticket, "sweep", tenant, None, idempotency=uuid.uuid4().hex
            )
            request_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            journal.record_reply(ticket, None)
            reply_s.append(time.perf_counter() - start)
        journal.flush()
        size = sum(
            os.path.getsize(path + suffix)
            for suffix in ("", "-wal")
            if os.path.exists(path + suffix)
        )
    finally:
        journal.close()
    return {
        "record_request_s": statistics.median(request_s),
        "record_reply_s": statistics.median(reply_s),
        "bytes_per_request": size / requests,
    }


def worker_summary(frames: list[Frame]) -> dict:
    """Run time per job, busy share and wire bytes per job of one
    single-slot worker, from its recorded frames.  With one slot the
    coordinator sends the next job only after a result, so a job runs
    from the end of its ``job`` frame to the start of its result frame."""
    runs = []
    received = None
    for frame in frames:
        if frame.direction == "recv" and frame.kind == "job":
            received = frame.end
        elif frame.kind in ("job_result", "job_error") and received is not None:
            runs.append(frame.start - received)
            received = None
    job_frames = [f for f in frames if f.kind in ("job", "job_result", "job_error")]
    window = job_frames[-1].end - job_frames[0].end if len(job_frames) > 1 else 0.0
    codec = codec_costs(job_frames)
    return {
        "jobs": len(runs),
        "run_s": sum(runs),
        "window_s": window,
        "wire_bytes": codec["bytes"] * len(job_frames),
    }
