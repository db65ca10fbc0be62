"""Span contexts: causal identity for trace events across processes.

A *span context* is the (``trace_id``, ``span_id``, ``parent_id``)
triple that turns the flat Chrome-trace events of
:mod:`repro.trace.recorder` into one connected tree per request:

- ``trace_id`` — 32 lowercase hex chars shared by every span of one
  logical operation (an HTTP request, a CLI build);
- ``span_id`` — 16 hex chars naming this span;
- ``parent_id`` — the ``span_id`` of the causing span (absent on the
  root).

Propagation follows the W3C Trace Context ``traceparent`` header
(``00-<trace_id>-<span_id>-<flags>``): the serve layer accepts and
emits it on HTTP, and :class:`~repro.build.pool.ForkPool` pickles the
ambient context to fork workers so their spans re-parent into the
submitting job.  In-process the ambient context rides a
:class:`contextvars.ContextVar`, so nested ``SpanRecorder.span`` calls (and
asyncio tasks) build correct parent chains without any API threading.

Everything here is stdlib-only and import-cycle-free: the recorder,
the fork pool, the kernel, and the serve app all import *this* module,
never each other.
"""

import contextvars
import os
import threading
from contextlib import contextmanager

#: The ambient span context of the current thread / asyncio task.
_CURRENT = contextvars.ContextVar("repro_trace_context", default=None)

_HEX = set("0123456789abcdef")


def new_trace_id():
    """A fresh 128-bit trace id (32 lowercase hex chars)."""
    return os.urandom(16).hex()


def new_span_id():
    """A fresh 64-bit span id (16 lowercase hex chars)."""
    return os.urandom(8).hex()


def _is_hex(text, length):
    return len(text) == length and set(text) <= _HEX


class SpanContext:
    """One span's causal identity (immutable by convention)."""

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(self, trace_id=None, span_id=None, parent_id=None):
        self.trace_id = trace_id or new_trace_id()
        self.span_id = span_id or new_span_id()
        self.parent_id = parent_id

    def child(self):
        """A fresh span in the same trace, parented to this one."""
        return SpanContext(self.trace_id, new_span_id(), self.span_id)

    # -- W3C traceparent ---------------------------------------------------

    def to_traceparent(self):
        """This context as a ``traceparent`` header value."""
        return "00-%s-%s-01" % (self.trace_id, self.span_id)

    @classmethod
    def from_traceparent(cls, header):
        """Parse a ``traceparent`` header; None when malformed.

        The returned context names the *remote* span (its ``span_id``
        is the header's parent-id field); callers normally continue
        with ``.child()``.  Malformed input — wrong field count, bad
        hex, all-zero ids, the forbidden ``ff`` version — is ignored,
        never raised: a bad header must not fail a request.
        """
        if not isinstance(header, str):
            return None
        parts = header.strip().split("-")
        if len(parts) < 4:
            return None
        version, trace_id, span_id, flags = parts[:4]
        if not _is_hex(version, 2) or version == "ff":
            return None
        if version == "00" and len(parts) != 4:
            return None
        if not _is_hex(trace_id, 32) or trace_id == "0" * 32:
            return None
        if not _is_hex(span_id, 16) or span_id == "0" * 16:
            return None
        if not _is_hex(flags, 2):
            return None
        return cls(trace_id, span_id)

    # -- pickling across the fork boundary ---------------------------------

    def to_dict(self):
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id}

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict) or "trace_id" not in data:
            return None
        return cls(data["trace_id"], data.get("span_id"),
                   data.get("parent_id"))

    def __repr__(self):
        return "<SpanContext %s/%s<-%s>" % (
            self.trace_id[:8], self.span_id, self.parent_id)


# -- the ambient context -----------------------------------------------------


def current_context():
    """The ambient :class:`SpanContext`, or None."""
    return _CURRENT.get()


def activate(ctx):
    """Set the ambient context; returns the token for :func:`restore`."""
    return _CURRENT.set(ctx)


def restore(token):
    _CURRENT.reset(token)


@contextmanager
def use(ctx):
    """``with use(ctx): ...`` — scoped ambient context (no-op on
    None, so call sites need no conditional)."""
    if ctx is None:
        yield None
        return
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)


# -- event construction ------------------------------------------------------

#: get_ident() values are recycled machine addresses; truncating them
#: (the old ``& 0xFFFF``) collides.  Map each thread to a small stable
#: index instead — first thread seen is 1, and so on.
_THREAD_INDEX = {}
_THREAD_LOCK = threading.Lock()


def thread_index():
    """A stable small integer for the calling thread (process-wide)."""
    ident = threading.get_ident()
    index = _THREAD_INDEX.get(ident)
    if index is None:
        with _THREAD_LOCK:
            index = _THREAD_INDEX.setdefault(
                ident, len(_THREAD_INDEX) + 1)
    return index


def stamp(event, ctx):
    """Write ``ctx``'s identity onto a trace event dict (in place)."""
    if ctx is None:
        return event
    event["trace_id"] = ctx.trace_id
    event["span_id"] = ctx.span_id
    if ctx.parent_id:
        event["parent_id"] = ctx.parent_id
    return event


def make_span(name, ctx, ts_us, dur_us, cat="span", **args):
    """A complete ("X") event carrying ``ctx``'s identity.

    The only builder of span event dicts: :meth:`SpanRecorder.span
    <repro.trace.recorder.SpanRecorder.span>` calls it when its body
    ends, and spans whose bounds are measured elsewhere (a request, a
    queue wait, a sampled kernel timestep) call it directly.
    """
    event = {
        "name": name,
        "cat": cat,
        "ph": "X",
        "ts": ts_us,
        "dur": dur_us,
        "pid": os.getpid(),
        "tid": thread_index(),
    }
    stamp(event, ctx)
    if args:
        event["args"] = dict(args)
    return event
