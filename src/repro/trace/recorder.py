"""The span recorder: the one place spans are kept.

Every timing the system reports is a view of a recorder's events:
``CompileResult.timings``, the ``--profile`` tables and the
``*_phase_seconds`` metrics are per-name sums of them
(:func:`repro.trace.analyze.span_totals`), ``--trace-out`` writes them
as Chrome trace JSON, and the serve daemon's ``GET /trace`` hands out
a bounded recorder's snapshot::

    recorder = SpanRecorder()
    with recorder.span("parse", file="top.vhd"):
        tree = grammar.parse(tokens)
    recorder.write("trace.json")   # chrome://tracing / Perfetto opens it

A ``span`` opens a child of the ambient
:class:`~repro.trace.context.SpanContext` (or starts a fresh trace when
none is active) and makes itself ambient for its body, so nested spans
-- including ones recorded by fork workers that received the pickled
context -- form one connected tree.  Events are plain dicts built by
:func:`~repro.trace.context.make_span`, picklable across the fork
boundary.  Timestamps are epoch microseconds, so events recorded in
different processes share a clock; durations use
``time.perf_counter()``.

:data:`NULL_RECORDER` is the shared disabled recorder: its ``span`` is
a bare ``nullcontext`` and it keeps nothing, so call sites need no
``if tracing`` test.
"""

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext

from .context import SpanContext, current_context, make_span, use


class SpanRecorder:
    """A thread-safe store of span event dicts.

    With ``capacity`` the recorder is a ring: it keeps the newest
    ``capacity`` events and counts the rest in ``dropped``, so a
    long-lived daemon answers ``GET /trace`` in O(capacity) memory.
    """

    enabled = True

    def __init__(self, capacity=None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.dropped = 0
        self._events = deque(maxlen=capacity)
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name, cat="phase", **args):
        """Record one complete event around the ``with`` body (also
        when it raises).  Yields the span's :class:`SpanContext`."""
        parent = current_context()
        ctx = parent.child() if parent is not None else SpanContext()
        ts_us = time.time() * 1e6
        t0 = time.perf_counter()
        try:
            with use(ctx):
                yield ctx
        finally:
            self.add(make_span(name, ctx, ts_us,
                               (time.perf_counter() - t0) * 1e6,
                               cat=cat, **args))

    def add(self, event):
        """Keep one event (made by :func:`make_span`)."""
        with self._lock:
            self._append(event)

    def add_events(self, events):
        """Keep copies of events recorded elsewhere (a fork worker, a
        build report)."""
        with self._lock:
            for event in events:
                self._append(dict(event))

    def _append(self, event):
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    def events(self, trace_id=None):
        """A snapshot list, optionally filtered to one trace."""
        with self._lock:
            snapshot = list(self._events)
        if trace_id is None:
            return snapshot
        return [ev for ev in snapshot if ev.get("trace_id") == trace_id]

    def __len__(self):
        with self._lock:
            return len(self._events)

    def clear(self):
        with self._lock:
            self._events.clear()
            self.dropped = 0

    def write(self, path):
        """Write the events as Chrome trace JSON to ``path``."""
        return write_chrome(path, self.events())


class _DisabledRecorder(SpanRecorder):
    """The recorder that records nothing (see :data:`NULL_RECORDER`)."""

    enabled = False

    def span(self, name, cat="phase", **args):
        return nullcontext()

    def add(self, event):
        pass

    def add_events(self, events):
        pass


#: The shared disabled recorder.
NULL_RECORDER = _DisabledRecorder()


def write_chrome(path, events):
    """Write ``events`` as a timestamp-sorted Chrome trace JSON object
    to ``path`` (atomic rename; parent directories are created)."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    doc = {
        "traceEvents": sorted(events, key=lambda e: e.get("ts", 0.0)),
        "displayTimeUnit": "ms",
    }
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w") as f:
        json.dump(doc, f, sort_keys=True)
    os.replace(tmp, path)
    return path
