"""Span-context unit tests: ids, traceparent, ambient propagation."""

import threading

import pytest

from repro.trace import (
    SpanContext,
    activate,
    current_context,
    make_span,
    restore,
    stamp,
    thread_index,
    use,
)
from repro.trace.recorder import SpanRecorder


class TestSpanContext:
    def test_fresh_context_ids(self):
        ctx = SpanContext()
        assert len(ctx.trace_id) == 32
        assert len(ctx.span_id) == 16
        assert ctx.parent_id is None
        int(ctx.trace_id, 16)  # valid hex
        int(ctx.span_id, 16)

    def test_child_shares_trace_and_parents(self):
        root = SpanContext()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_dict_round_trip(self):
        ctx = SpanContext().child()
        again = SpanContext.from_dict(ctx.to_dict())
        assert (again.trace_id, again.span_id, again.parent_id) == \
            (ctx.trace_id, ctx.span_id, ctx.parent_id)

    def test_from_dict_garbage(self):
        assert SpanContext.from_dict(None) is None
        assert SpanContext.from_dict("nope") is None
        assert SpanContext.from_dict({}) is None


class TestTraceparent:
    def test_round_trip(self):
        ctx = SpanContext()
        header = ctx.to_traceparent()
        parsed = SpanContext.from_traceparent(header)
        assert parsed is not None
        assert parsed.trace_id == ctx.trace_id
        # The parsed span_id is the remote parent span.
        assert parsed.span_id == ctx.span_id

    def test_header_shape(self):
        header = SpanContext().to_traceparent()
        version, trace_id, span_id, flags = header.split("-")
        assert version == "00"
        assert len(trace_id) == 32 and len(span_id) == 16
        assert flags == "01"

    @pytest.mark.parametrize("header", [
        None,
        123,
        "",
        "garbage",
        "00-zz-zz-00",
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",   # zero trace id
        "00-" + "1" * 32 + "-" + "0" * 16 + "-01",   # zero span id
        "ff-" + "1" * 32 + "-" + "2" * 16 + "-01",   # forbidden version
        "00-" + "1" * 31 + "-" + "2" * 16 + "-01",   # short trace id
        "00-" + "1" * 32 + "-" + "2" * 15 + "-01",   # short span id
        "00-" + "1" * 32 + "-" + "2" * 16 + "-0",    # short flags
        "00-" + "1" * 32 + "-" + "2" * 16 + "-01-x",  # v00 extra field
        "00-" + "1" * 32 + "-" + "2" * 16,           # missing flags
        "00-" + "A" * 32 + "-" + "2" * 16 + "-01",   # uppercase hex
    ])
    def test_malformed_headers_ignored(self, header):
        assert SpanContext.from_traceparent(header) is None

    def test_future_version_with_extra_fields_accepted(self):
        header = "01-%s-%s-01-extrastuff" % ("a" * 32, "b" * 16)
        parsed = SpanContext.from_traceparent(header)
        assert parsed is not None and parsed.trace_id == "a" * 32


class TestAmbientContext:
    def test_default_is_none(self):
        assert current_context() is None

    def test_use_scopes(self):
        ctx = SpanContext()
        with use(ctx):
            assert current_context() is ctx
            inner = ctx.child()
            with use(inner):
                assert current_context() is inner
            assert current_context() is ctx
        assert current_context() is None

    def test_use_none_is_noop(self):
        outer = SpanContext()
        with use(outer):
            with use(None):
                assert current_context() is outer

    def test_activate_restore(self):
        ctx = SpanContext()
        token = activate(ctx)
        try:
            assert current_context() is ctx
        finally:
            restore(token)
        assert current_context() is None

    def test_threads_do_not_leak_context(self):
        seen = []
        ctx = SpanContext()

        def probe():
            seen.append(current_context())

        with use(ctx):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        assert seen == [None]


class TestThreadIndex:
    def test_stable_and_small(self):
        first = thread_index()
        assert thread_index() == first
        assert 1 <= first < 10000

    def test_distinct_threads_distinct_indices(self):
        results = {}
        # All threads must be alive at once: get_ident() values are
        # recycled, and a recycled ident legitimately reuses its index.
        barrier = threading.Barrier(4)

        def record(key):
            barrier.wait(timeout=10)
            results[key] = thread_index()
            barrier.wait(timeout=10)

        threads = [threading.Thread(target=record, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        values = list(results.values())
        assert len(set(values)) == len(values)
        assert thread_index() not in values


class TestMakeSpan:
    def test_event_shape(self):
        ctx = SpanContext().child()
        event = make_span("work", ctx, 1000.0, 250.0, cat="test",
                          detail=7)
        assert event["ph"] == "X"
        assert event["name"] == "work"
        assert event["ts"] == 1000.0 and event["dur"] == 250.0
        assert event["trace_id"] == ctx.trace_id
        assert event["span_id"] == ctx.span_id
        assert event["parent_id"] == ctx.parent_id
        assert event["args"] == {"detail": 7}

    def test_no_context_no_ids(self):
        event = make_span("work", None, 0.0, 1.0)
        assert "trace_id" not in event and "span_id" not in event

    def test_stamp_root_has_no_parent_key(self):
        event = stamp({"name": "x"}, SpanContext())
        assert "parent_id" not in event


class TestSpanRing:
    """The recorder's bounded mode: a ring of the newest events."""

    def test_bounded_with_drop_count(self):
        ring = SpanRecorder(capacity=3)
        for i in range(5):
            ring.add({"name": str(i), "trace_id": "t"})
        assert len(ring) == 3
        assert ring.dropped == 2
        assert [e["name"] for e in ring.events()] == ["2", "3", "4"]

    def test_trace_id_filter(self):
        ring = SpanRecorder(capacity=10)
        ring.add_events([{"name": "a", "trace_id": "t1"},
                         {"name": "b", "trace_id": "t2"},
                         {"name": "c", "trace_id": "t1"}])
        assert [e["name"] for e in ring.events(trace_id="t1")] == \
            ["a", "c"]
        assert ring.events(trace_id="absent") == []

    def test_clear(self):
        ring = SpanRecorder(capacity=2)
        ring.add_events([{"n": 1}, {"n": 2}, {"n": 3}])
        ring.clear()
        assert len(ring) == 0 and ring.dropped == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)
