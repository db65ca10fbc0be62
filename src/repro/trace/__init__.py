"""End-to-end causal tracing: span contexts, propagation, recording.

``repro.trace`` records every phase span of the system and stitches
the per-process events into one connected span tree per request —
serve HTTP request → job queue wait → fork-worker compile → kernel
delta cycles.  See :mod:`repro.trace.context` for the model,
:mod:`repro.trace.recorder` for the one span recorder, and
:mod:`repro.trace.analyze` (imported lazily) for per-name totals and
offline tree/rollup analysis.
"""

from .context import (
    SpanContext,
    activate,
    current_context,
    make_span,
    new_span_id,
    new_trace_id,
    restore,
    stamp,
    thread_index,
    use,
)
from .recorder import NULL_RECORDER, SpanRecorder, write_chrome

__all__ = [
    "NULL_RECORDER",
    "SpanContext",
    "SpanRecorder",
    "activate",
    "current_context",
    "make_span",
    "new_span_id",
    "new_trace_id",
    "restore",
    "stamp",
    "thread_index",
    "use",
    "write_chrome",
]
