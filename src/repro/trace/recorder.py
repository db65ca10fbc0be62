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
context -- form one connected tree.  Timestamps are epoch
microseconds, so events recorded in different processes share a clock;
durations use ``time.perf_counter()``.

Spans are stored as packed records and turned into event dicts only
when read.  A record is one flat tuple: an interned *shape* (the
event's keys in order with the values all its spans share -- name,
category, phase, pid, thread -- and the keys of its ``args`` dict)
followed by the values that vary.  ``span`` and
:meth:`SpanRecorder.add_span` pack the record straight from the span's
fields; ``add`` and ``add_events`` pack any dict (a fork worker's
events, a build report) into the same form, and
:meth:`SpanRecorder.events` rebuilds dicts equal to the ones
:func:`~repro.trace.context.make_span` would have made, key order
included.  A full 16,384-span ring of kernel and compile spans holds
3.7 MB this way, 226 traced bytes per span; a dict per span held
13.3 MB, 809 bytes per span.

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
from itertools import islice

from .context import SpanContext, current_context, thread_index, use


class _Shape:
    """What the records of one kind of event share.  ``template`` is
    the event with its keys in order and the values every such record
    shares (a span's name, category, phase, pid and thread); ``slots``
    names the keys whose values each record holds after the shape, and
    ``args`` the keys of the values after those, which form the event's
    trailing ``args`` dict (None: no flattened ``args``).  ``trace_at``
    is the record index of the ``trace_id`` value, 0 when there is
    none."""

    __slots__ = ("template", "slots", "args", "trace_at")

    def __init__(self, template, slots, args):
        self.template = template
        self.slots = slots
        self.args = args
        self.trace_at = (slots.index("trace_id") + 1
                         if "trace_id" in slots else 0)

    def event(self, record):
        """The event dict ``record`` stands for."""
        event = self.template.copy()
        event.update(zip(self.slots, islice(record, 1, None)))
        if self.args is not None:
            event["args"] = dict(
                zip(self.args, islice(record, len(self.slots) + 1, None)))
        return event


#: Shapes of packed dicts by (keys, args keys).  Only all-``str`` key
#: sets are interned: a key that is equal to one of another type (``1``
#: and ``True``) must not come back as the other.
_DICT_SHAPES = {}

#: Shapes of spans packed from their fields, by (name, cat, tid, ids,
#: args keys), where ``ids`` counts the context ids the span carries:
#: 0 (no context), 2 (a root) or 3 (a child).
_SPAN_SHAPES = {}

#: The keys of each ``ids`` count whose values a span record holds.
_SPAN_SLOTS = {0: ("ts", "dur"),
               2: ("ts", "dur", "trace_id", "span_id"),
               3: ("ts", "dur", "trace_id", "span_id", "parent_id")}

# A forked child records under its own pid.
os.register_at_fork(after_in_child=_SPAN_SHAPES.clear)


def _dict_shape(keys, args):
    shape = _DICT_SHAPES.get((keys, args))
    if shape is None:
        shape = _Shape(dict.fromkeys(keys), keys, args)
        if all(type(key) is str for key in keys + (args or ())):
            shape = _DICT_SHAPES.setdefault((keys, args), shape)
    return shape


def _span_shape(key):
    name, cat, tid, ids, args = key
    slots = _SPAN_SLOTS[ids]
    template = {"name": name, "cat": cat, "ph": "X", "ts": None,
                "dur": None, "pid": os.getpid(), "tid": tid}
    template.update(dict.fromkeys(slots[2:]))
    return _SPAN_SHAPES.setdefault(key, _Shape(template, slots, args))


def _pack_span(name, cat, ts_us, dur_us, ctx, args):
    """The record of ``make_span(name, ctx, ts_us, dur_us, cat,
    **args)``, built from the fields."""
    arg_keys = tuple(args) if args else None
    tid = thread_index()
    if ctx is None:
        key = (name, cat, tid, 0, arg_keys)
        return (_SPAN_SHAPES.get(key) or _span_shape(key), ts_us, dur_us,
                *args.values())
    if ctx.parent_id:
        key = (name, cat, tid, 3, arg_keys)
        return (_SPAN_SHAPES.get(key) or _span_shape(key), ts_us, dur_us,
                ctx.trace_id, ctx.span_id, ctx.parent_id, *args.values())
    key = (name, cat, tid, 2, arg_keys)
    return (_SPAN_SHAPES.get(key) or _span_shape(key), ts_us, dur_us,
            ctx.trace_id, ctx.span_id, *args.values())


def _pack(event):
    """The record of any event dict; a trailing ``args`` dict is
    flattened into the record."""
    keys = tuple(event)
    if keys and keys[-1] == "args" and type(event["args"]) is dict:
        args = event["args"]
        return (_dict_shape(keys[:-1], tuple(args)),
                *islice(event.values(), len(keys) - 1), *args.values())
    return (_dict_shape(keys, None), *event.values())


def _event(record):
    return record[0].event(record)


class SpanRecorder:
    """A thread-safe store of spans, read back as event dicts.

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
        self._records = deque(maxlen=capacity)
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name, cat="phase", at_close=None, **args):
        """Record one complete event around the ``with`` body (also
        when it raises).  Yields the span's :class:`SpanContext`.
        ``at_close``, when given, is called as the span closes and
        returns the args known only then (what the body counted)."""
        parent = current_context()
        ctx = parent.child() if parent is not None else SpanContext()
        ts_us = time.time() * 1e6
        t0 = time.perf_counter()
        try:
            with use(ctx):
                yield ctx
        finally:
            dur_us = (time.perf_counter() - t0) * 1e6
            if at_close is not None:
                args.update(at_close())
            self.add_span(name, ctx, ts_us, dur_us, cat=cat, **args)

    def add_span(self, name, ctx, ts_us, dur_us, cat="span", **args):
        """Keep the span ``make_span`` would build from these arguments
        (a request, a queue wait, a sampled kernel timestep: spans whose
        bounds are measured elsewhere), without building its dict."""
        self._keep(_pack_span(name, cat, ts_us, dur_us, ctx, args))

    def add(self, event):
        """Keep one event dict."""
        self._keep(_pack(event))

    def add_events(self, events):
        """Keep events recorded elsewhere (a fork worker, a build
        report).  The copy is shallow: later changes to an event's
        keys or to its flattened ``args`` dict do not reach the store,
        but nested values are kept by reference."""
        for event in events:
            self._keep(_pack(event))

    def _keep(self, record):
        with self._lock:
            if len(self._records) == self.capacity:
                self.dropped += 1
            self._records.append(record)

    def events(self, trace_id=None, since=0):
        """A snapshot list of fresh event dicts, oldest first:
        optionally only one trace's, and only those after the oldest
        ``since`` kept (a ``len()`` read before recording them)."""
        with self._lock:
            if since > 0:
                records = list(islice(reversed(self._records),
                                      max(0, len(self._records) - since)))
                records.reverse()
            else:
                records = list(self._records)
        if trace_id is not None:
            # trace_at 0 reads the shape itself, which equals no id.
            records = [record for record in records
                       if record[record[0].trace_at] == trace_id]
        return [_event(record) for record in records]

    def __len__(self):
        with self._lock:
            return len(self._records)

    def clear(self):
        with self._lock:
            self._records.clear()
            self.dropped = 0

    def write(self, path):
        """Write the events as Chrome trace JSON to ``path``."""
        return write_chrome(path, self.events())


class _DisabledRecorder(SpanRecorder):
    """The recorder that records nothing (see :data:`NULL_RECORDER`)."""

    enabled = False

    def span(self, name, cat="phase", **args):
        return nullcontext()

    def add_span(self, name, ctx, ts_us, dur_us, cat="span", **args):
        pass

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
