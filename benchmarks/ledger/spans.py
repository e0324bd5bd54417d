"""Spans recorded from outside the program.

The traced run wraps the public functions at each layer boundary (see
``layers.py``) so that every call records a span: name, start, end, the
span that caused it (the enclosing span on the same thread) and the id of
the op it belongs to.  Spans stay in memory and are written as JSON lines
when the run ends.  Nothing under ``src/`` knows about this module.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    thread: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; records nothing until ``enabled`` is set, so one
    code path serves the untraced and the traced part of a run."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None, **attrs):
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        with self._lock:
            record = Span(
                id=len(self.spans),
                name=name,
                parent=parent.id if parent else None,
                op=op,
                thread=threading.current_thread().name,
                start=time.perf_counter(),
                attrs=attrs,
            )
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name, on_return=None) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``name`` is the span name, or a callable taking the call's
        positional arguments (a method's ``self`` first) and returning it.
        ``on_return(span, args, result)`` may copy counts off the call's
        arguments or result into ``span.attrs``.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            label = name(*args) if callable(name) else name
            with self.span(label) as record:
                result = original(*args, **kwargs)
                if on_return is not None:
                    on_return(record, args, result)
                return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its child spans cover.

        Children run on their parent's thread, one after the other, so
        their durations never overlap and a plain sum is exact.
        """
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write_jsonl(self, path: Path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "parent": s.parent,
                            "op": s.op,
                            "thread": s.thread,
                            "start": s.start - origin,
                            "end": s.end - origin,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )


def check_nesting(rows: list[dict]) -> list[str]:
    """Problems in a trace file: every span's parent must exist and
    contain it.  Returns human-readable violations (empty = well formed)."""
    by_id = {row["id"]: row for row in rows}
    problems = []
    for row in rows:
        if row["end"] < row["start"]:
            problems.append(f"span {row['id']} ({row['name']}) ends before it starts")
        if row["parent"] is None:
            continue
        parent = by_id.get(row["parent"])
        if parent is None:
            problems.append(f"span {row['id']} ({row['name']}) has no parent row")
        elif not (parent["start"] <= row["start"] and row["end"] <= parent["end"]):
            problems.append(
                f"span {row['id']} ({row['name']}) is not inside its parent "
                f"{parent['id']} ({parent['name']})"
            )
    return problems
