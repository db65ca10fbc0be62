"""Phase spans on the one span recorder: recording, Chrome export,
cross-process merging, and the per-name totals every timing view uses.

Includes the acceptance test that ``repro build --jobs 2 --profile``
emits one well-formed merged Chrome trace containing spans recorded by
at least two worker processes.
"""

import json
import os

import pytest

from repro.cli import main
from repro.trace import SpanRecorder
from repro.trace.analyze import load_spans, render_totals, span_totals


class TestTracer:
    def test_phase_records_complete_event(self):
        tracer = SpanRecorder()
        with tracer.span("scan", file="a.vhd"):
            pass
        (event,) = tracer.events()
        assert event["name"] == "scan"
        assert event["ph"] == "X"
        assert event["pid"] == os.getpid()
        assert event["dur"] >= 0.0
        assert event["args"] == {"file": "a.vhd"}

    def test_phase_yields_event_with_duration(self):
        """The span yields its own context; the recorded event carries
        that identity and a duration."""
        tracer = SpanRecorder()
        with tracer.span("parse") as ctx:
            pass
        (event,) = tracer.events()
        assert event["span_id"] == ctx.span_id
        assert event["dur"] >= 0.0

    def test_event_recorded_even_on_exception(self):
        tracer = SpanRecorder()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.events()[0]["name"] == "boom"

    def test_phase_seconds_aggregates(self):
        tracer = SpanRecorder()
        with tracer.span("scan"):
            pass
        with tracer.span("scan"):
            pass
        with tracer.span("parse"):
            pass
        totals = span_totals(tracer.events())
        assert set(totals) == {"scan", "parse"}
        seconds, count = totals["scan"]
        assert seconds >= 0.0 and count == 2

    def test_summary_mentions_phases(self):
        tracer = SpanRecorder()
        with tracer.span("model_compile"):
            pass
        text = render_totals(tracer.events(), "compile profile")
        assert text.startswith("compile profile:")
        assert "model_compile" in text
        assert "x1" in text

    def test_tid_is_stable_small_index(self):
        """tid must be a stable per-thread index, not a truncated
        (collision-prone) get_ident()."""
        import threading

        from repro.trace import thread_index

        tracer = SpanRecorder()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        tids = {e["tid"] for e in tracer.events()}
        assert tids == {thread_index()}
        assert tids != {threading.get_ident() & 0xFFFF} or \
            thread_index() == threading.get_ident() & 0xFFFF

    def test_phases_carry_span_identity(self):
        tracer = SpanRecorder()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.events()
        assert outer["trace_id"] == inner["trace_id"]
        assert inner["parent_id"] == outer["span_id"]
        assert outer["span_id"] != inner["span_id"]

    def test_phase_attaches_to_ambient_context(self):
        from repro.trace import SpanContext, use

        tracer = SpanRecorder()
        root = SpanContext()
        with use(root):
            with tracer.span("work"):
                pass
        (event,) = tracer.events()
        assert event["trace_id"] == root.trace_id
        assert event["parent_id"] == root.span_id

    def test_complete_records_retroactive_span(self):
        from repro.trace import SpanContext, make_span

        tracer = SpanRecorder()
        ctx = SpanContext()
        tracer.add(make_span("queue_wait", ctx, 1000.0, 42.0,
                             cat="serve", job="j1"))
        (event,) = tracer.events()
        assert event["ph"] == "X"
        assert event["ts"] == 1000.0 and event["dur"] == 42.0
        assert event["span_id"] == ctx.span_id
        assert event["args"] == {"job": "j1"}

    def test_aggregation_safe_under_concurrent_append(self):
        """events() snapshots under the lock; aggregating and writing
        while another thread appends must never raise.  (Bounded, so
        the snapshots stay small however fast the writer spins.)"""
        import tempfile
        import threading

        tracer = SpanRecorder(capacity=500)
        stop = threading.Event()
        errors = []

        def writer():
            while not stop.is_set():
                with tracer.span("spin"):
                    pass

        def reader(path):
            try:
                for i in range(200):
                    span_totals(tracer.events())
                    render_totals(tracer.events(), "live")
                    if i % 20 == 0:
                        tracer.write(path)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        t = threading.Thread(target=writer)
        t.start()
        try:
            with tempfile.TemporaryDirectory() as tmp:
                reader(os.path.join(tmp, "live.json"))
        finally:
            stop.set()
            t.join()
        assert errors == []


class TestMerging:
    def fake_worker_events(self, pid):
        return [{"name": "attribute_evaluation", "cat": "phase",
                 "ph": "X", "ts": 100.0 + pid, "dur": 5.0,
                 "pid": pid, "tid": 1}]

    def test_add_events_merges_worker_pids(self):
        tracer = SpanRecorder()
        with tracer.span("schedule"):
            pass
        tracer.add_events(self.fake_worker_events(11111))
        tracer.add_events(self.fake_worker_events(22222))
        events = tracer.events()
        assert {e["pid"] for e in events} == {os.getpid(), 11111, 22222}
        assert len(events) == 3

    def test_add_events_copies(self):
        tracer = SpanRecorder()
        original = self.fake_worker_events(1)
        tracer.add_events(original)
        tracer.events()[0]["name"] = "mutated"
        assert original[0]["name"] == "attribute_evaluation"


class TestChromeExport:
    def test_chrome_shape(self, tmp_path):
        tracer = SpanRecorder()
        with tracer.span("scan"):
            pass
        path = str(tmp_path / "trace.json")
        doc = json.load(open(tracer.write(path)))
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"

    def test_events_sorted_by_ts(self, tmp_path):
        tracer = SpanRecorder()
        tracer.add_events([{"name": "late", "ts": 9e18, "ph": "X",
                            "dur": 1, "pid": 1, "tid": 1}])
        with tracer.span("early"):
            pass
        path = tracer.write(str(tmp_path / "trace.json"))
        names = [e["name"] for e in load_spans(path)]
        assert names[-1] == "late"

    def test_write_and_load_roundtrip(self, tmp_path):
        tracer = SpanRecorder()
        with tracer.span("scan"):
            pass
        path = str(tmp_path / "trace.json")
        assert tracer.write(path) == path
        events = load_spans(path)
        assert events[0]["name"] == "scan"
        # no leftover temp files from the atomic-rename dance
        assert os.listdir(str(tmp_path)) == ["trace.json"]


ENTITY = """entity %(name)s is end %(name)s;
architecture a of %(name)s is
  signal x : integer := %(init)d;
begin
end a;
"""


def _write_project(tmp_path, n=3):
    files = []
    for i in range(n):
        p = tmp_path / ("e%d.vhd" % i)
        p.write_text(ENTITY % {"name": "e%d" % i, "init": i})
        files.append(str(p))
    return files


@pytest.fixture()
def collect():
    lines = []

    def out(text=""):
        lines.append(str(text))

    out.lines = lines
    return out


class TestBuildProfileTrace:
    """Acceptance: a parallel build writes one merged Chrome trace."""

    def test_build_profile_merged_trace(self, tmp_path, collect):
        from repro.build.scheduler import _fork_available

        files = _write_project(tmp_path)
        root = str(tmp_path / "libs")
        trace_path = str(tmp_path / "build-trace.json")
        rc = main(["--root", root, "--profile",
                   "--trace-out", trace_path,
                   "build", "--jobs", "2"] + files, out=collect)
        assert rc == 0
        events = load_spans(trace_path)
        assert events, "trace file must contain events"
        # well-formed: every complete event has the Chrome trace keys
        for event in events:
            assert "name" in event and "ph" in event and "ts" in event
            if event["ph"] == "X":
                for key in ("dur", "pid", "tid"):
                    assert key in event
        # one merged timeline: timestamp-sorted
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)
        # driver phases and per-file compile phases both present
        names = {e["name"] for e in events}
        assert "fingerprint" in names
        assert "attribute_evaluation" in names
        pids = {e["pid"] for e in events if "pid" in e}
        if _fork_available():
            # spans from >= 2 worker processes beyond the driver
            assert len(pids - {os.getpid()}) >= 2
        else:  # pragma: no cover - non-fork platforms
            assert pids == {os.getpid()}
        assert any("build profile" in line for line in collect.lines)

    def test_profile_without_trace_out_uses_default(
            self, tmp_path, collect, monkeypatch):
        """``--profile`` only prints; no trace file appears anywhere
        without ``--trace-out``."""
        files = _write_project(tmp_path, n=1)
        root = str(tmp_path / "libs")
        monkeypatch.chdir(tmp_path)
        before = set(os.listdir(str(tmp_path)))
        rc = main(["--root", root, "--profile", "build"] + files,
                  out=collect)
        assert rc == 0
        assert any("build profile" in line for line in collect.lines)
        assert not any("trace written" in line for line in collect.lines)
        assert not os.path.exists(os.path.join(root, "build-trace.json"))
        assert set(os.listdir(str(tmp_path))) - before == {"libs"}

    def test_compile_trace_out(self, tmp_path, collect):
        files = _write_project(tmp_path, n=1)
        trace_path = str(tmp_path / "compile-trace.json")
        rc = main(["--root", str(tmp_path / "libs"),
                   "--trace-out", trace_path, "compile"] + files,
                  out=collect)
        assert rc == 0
        names = {e["name"] for e in load_spans(trace_path)}
        assert {"scan", "parse", "attribute_evaluation"} <= names
