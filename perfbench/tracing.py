"""In-memory spans recorded around the benchmark's calls into each layer.

A :class:`Tracer` keeps every span in a list and writes them out as JSON
when the run ends.  Spans nest per thread: a span opened while another
is open on the same thread becomes its child.  A disabled tracer records
nothing and costs one attribute test per call, so the untimed and timed
code paths are the same code.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Records ``{id, name, start, end, parent, qid}`` spans in memory."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of the innermost open span on this thread."""
        stack = self._stack() if self.enabled else ()
        return stack[-1] if stack else None

    def add(self, name: str, start: float, end: float, qid,
            parent: int | None = None, **attrs) -> int | None:
        """Record a finished span; *parent* defaults to the open span."""
        if not self.enabled:
            return None
        span_id = next(self._ids)
        record = {
            "id": span_id, "name": name, "start": start, "end": end,
            "parent": self.current() if parent is None else parent,
            "qid": qid,
        }
        record.update(attrs)
        with self._lock:
            self.spans.append(record)
        return span_id

    @contextmanager
    def span(self, name: str, qid, **attrs):
        """Time the enclosed block as one span (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "qid": qid,
            }
            record.update(attrs)
            with self._lock:
                self.spans.append(record)

    def write(self, path: str, header: dict) -> None:
        """Dump the header and every span as one JSON document."""
        with open(path, "w") as handle:
            json.dump({"header": header, "spans": self.spans}, handle)


def _covered(intervals: list) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list) -> dict:
    """``{span id: self seconds}``: duration minus child coverage."""
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [
            (max(start, child["start"]), min(end, child["end"]))
            for child in children.get(span["id"], ())
        ]
        clipped = [(lo, hi) for lo, hi in clipped if hi > lo]
        out[span["id"]] = (end - start) - _covered(clipped)
    return out


def self_time_by_name(spans: list) -> dict:
    """``{span name: [self seconds of each span with that name]}``."""
    own = self_times(spans)
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(own[span["id"]])
    return by_name
