"""Span recording from outside the program.

The traced pass wraps public functions of each ``repro`` layer (no
tracing code lives inside ``src/repro``).  Every call of a wrapped
function becomes a span: name, start, end, parent span and request id.
A request is a root span the benchmark opens around one serving call
(``service.search`` / ``service.ingest``) or around set-up; calls made
outside any root (the correctness oracle, the warm-up) are not
recorded.

Spans stay in memory; :meth:`SpanRecorder.dump` writes them out at the
end of a run.  :func:`self_times` turns them into per-layer self time:
a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator

#: Name of the synthetic span from ``executor.submit`` on the client
#: thread to the first wrapped call on the worker thread.
QUEUE_WAIT = "service.queue_wait"


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    thread: int


class SpanRecorder:
    """Thread-aware in-memory span store for one benchmark process.

    One client thread drives requests, so there is at most one open
    root at a time; a wrapped call on another thread with an empty
    local stack (a service worker) is parented to that root.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Span | None = None
        self._submitted_at: float | None = None

    @property
    def active(self) -> bool:
        """Is a request (or set-up) root open?"""
        return self._root is not None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def root(self, name: str) -> Iterator[Span]:
        """Open a request: every wrapped call until exit is its child."""
        span = Span(next(self._ids), name, time.perf_counter(), 0.0, None,
                    0, threading.get_ident())
        span.request = span.span_id
        self._root = span
        self._submitted_at = None
        stack = self._stack()
        stack.append(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self._root = None
            self.spans.append(span)

    def note_submit(self) -> None:
        """The client handed the open request to the executor."""
        if self._root is not None:
            self._submitted_at = time.perf_counter()

    def call(self, name: str, fn: Callable[..., Any], args: tuple,
             kwargs: dict) -> Any:
        root = self._root
        if root is None:
            return fn(*args, **kwargs)
        stack = self._stack()
        start = time.perf_counter()
        if stack:
            parent = stack[-1]
        else:
            parent = root.span_id
            submitted = self._submitted_at
            if submitted is not None:
                # First wrapped call on the worker: the request waited
                # in the executor queue until now.
                self._submitted_at = None
                self.spans.append(Span(next(self._ids), QUEUE_WAIT,
                                       submitted, start, parent,
                                       root.span_id, threading.get_ident()))
        span_id = next(self._ids)
        stack.append(span_id)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent,
                                   root.span_id, threading.get_ident()))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time (seconds) of every span: its duration minus the union
    of its children's intervals clipped to it."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()),
                            key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.span_id] = max(0.0, (span.end - span.start) - covered)
    return result


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self time (seconds) per span name."""
    totals: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for span in spans:
        totals[span.name] += own[span.span_id]
    return dict(totals)


def outermost_counts(spans: list[Span]) -> dict[str, int]:
    """Calls per span name, not counting calls nested in a span of the
    same name (a retrieve call and the session steps it drives count
    once)."""
    by_id = {span.span_id: span for span in spans}
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None or parent.name != span.name:
            counts[span.name] += 1
    return dict(counts)


_MISSING = object()


class Patches:
    """Replace public functions with span-recording wrappers, and put
    the originals back on :meth:`remove`."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` (a class, module or instance) until
        :meth:`remove`."""
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrap(self, owner: Any, attr: str,
             name: str | Callable[[tuple, dict], str],
             after: Callable[[tuple, Any], None] | None = None) -> None:
        """Trace ``owner.attr``; *name* may depend on the call's
        arguments, and *after* sees each recorded call's arguments and
        result."""
        original = getattr(owner, attr)
        recorder = self.recorder
        name_of = name if callable(name) else (lambda _a, _k, n=name: n)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            result = recorder.call(name_of(args, kwargs), original, args,
                                   kwargs)
            if after is not None and recorder.active:
                after(args, result)
            return result

        self.replace(owner, attr, traced)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
