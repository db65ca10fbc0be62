"""The span recorder: its packed store against the dict store it
replaced (the :class:`DictRecorder` oracle), its bytes per span, a
compile reading back only its own spans, and the disabled mode:
NULL_RECORDER records nothing, directly, through a kernel run, and
through a served ``/sim`` job."""

import asyncio
import gc
import json
import tracemalloc

import pytest

from repro.serve.jobs import JobRunner
from repro.serve.session import Workspace
from repro.sim import Kernel
from repro.trace import (
    NULL_RECORDER,
    SpanContext,
    SpanRecorder,
    current_context,
    make_span,
    use,
)
from repro.trace import recorder as recorder_mod
from repro.vhdl.compiler import Compiler
from repro.vhdl.elaborate import Elaborator

TICKER = """
entity ticker is end ticker;
architecture rtl of ticker is
  signal n : integer := 0;
begin
  process
  begin
    n <= n + 1;
    wait for 10 ns;
  end process;
end rtl;
"""

UNTIL_FS = 100 * 10**6  # 100 ns


class TestNullRecorder:
    def test_span_records_nothing_and_keeps_context(self):
        root = SpanContext()
        with use(root):
            with NULL_RECORDER.span("work", file="a.vhd") as ctx:
                assert ctx is None
                assert current_context() is root
        NULL_RECORDER.add({"name": "x"})
        NULL_RECORDER.add_events([{"name": "y"}])
        assert NULL_RECORDER.events() == []
        assert len(NULL_RECORDER) == 0
        assert not NULL_RECORDER.enabled

    def test_kernel_default_is_untraced(self):
        compiler = Compiler()
        assert compiler.compile(TICKER).ok

        def run(trace):
            kernel = Kernel(trace=trace, trace_sample=1)
            sim = Elaborator(compiler.library,
                             kernel=kernel).elaborate("ticker")
            with use(SpanContext()):
                sim.run(until_fs=UNTIL_FS)
            return kernel

        assert Kernel().trace is NULL_RECORDER
        quiet = run(NULL_RECORDER)
        assert quiet.cycles > 0
        assert NULL_RECORDER.events() == []

        recorder = SpanRecorder()
        traced = run(recorder)
        assert traced.cycles == quiet.cycles
        names = {e["name"] for e in recorder.events()}
        # Elaboration and the run record their own spans on the
        # kernel's recorder; the sampled kernel spans nest in the run.
        assert names == {"elaborate", "kernel_run", "timestep",
                         "process_resume"}


@pytest.fixture()
def workspace(tmp_path):
    ws = Workspace("s1", str(tmp_path))
    (path,) = ws.write_sources([{"name": "ticker.vhd", "text": TICKER}])
    assert ws.builder().build([path]).ok
    return ws


class TestServedSim:
    def _sim(self, workspace, trace):
        runner = JobRunner(trace=trace)

        async def simulate():
            with use(SpanContext()):
                return await runner.simulate(workspace, "ticker",
                                             until_fs=UNTIL_FS)

        try:
            return asyncio.run(simulate())
        finally:
            runner.executor.shutdown()

    def test_disabled_recorder_records_nothing(self, workspace):
        result = self._sim(workspace, NULL_RECORDER)
        assert result["ok"] and result["cycles"] > 0
        assert NULL_RECORDER.events() == []

    def test_enabled_recorder_gets_the_sim_tree(self, workspace):
        recorder = SpanRecorder(capacity=1000)
        quiet = self._sim(workspace, NULL_RECORDER)
        result = self._sim(workspace, recorder)
        assert result["report_lines"] == quiet["report_lines"]
        names = {e["name"] for e in recorder.events()}
        assert {"sim", "elaborate", "kernel_run", "timestep"} <= names


class DictRecorder(SpanRecorder):
    """The oracle: the store as it was before packed records, one
    ``make_span`` dict kept per span and handed out as stored."""

    def add_span(self, name, ctx, ts_us, dur_us, cat="span", **args):
        self._keep(make_span(name, ctx, ts_us, dur_us, cat=cat, **args))

    def add(self, event):
        self._keep(event)

    def add_events(self, events):
        for event in events:
            self._keep(dict(event))

    def events(self, trace_id=None):
        with self._lock:
            snapshot = list(self._records)
        if trace_id is None:
            return snapshot
        return [ev for ev in snapshot if ev.get("trace_id") == trace_id]


class Tee(SpanRecorder):
    """A packed recorder that hands every span and event it keeps to a
    :class:`DictRecorder` of the same capacity as well."""

    def __init__(self, capacity=None):
        super().__init__(capacity)
        self.oracle = DictRecorder(capacity)

    def add_span(self, *args, **kwargs):
        super().add_span(*args, **kwargs)
        self.oracle.add_span(*args, **kwargs)

    def add(self, event):
        super().add(event)
        self.oracle.add(event)

    def add_events(self, events):
        events = list(events)
        super().add_events(events)
        self.oracle.add_events(events)


def assert_same_events(tee, trace_id=None):
    got = tee.events(trace_id=trace_id)
    want = tee.oracle.events(trace_id=trace_id)
    assert got == want
    assert [json.dumps(e) for e in got] == [json.dumps(e) for e in want]
    assert len(tee) == len(tee.oracle)
    assert tee.dropped == tee.oracle.dropped


#: Dicts that are not spans, as the ring tests add them, and corner
#: cases of the record form: ``args`` not last or not a dict, empty
#: ``args``, keys of other types, keys equal across types.
ARBITRARY = [
    {"name": "0", "trace_id": "t"},
    {"name": "a", "trace_id": "t1"},
    {"n": 1},
    {},
    {"args": {"x": 1}, "name": "args first"},
    {"name": "flat", "args": [1, 2]},
    {"name": "empty", "args": {}},
    {"name": "nested", "args": {"inner": {"deep": [1]}}},
    {1: "int key"},
    {True: "bool key"},
    {1.0: "float key", "args": {2: "int arg key"}},
    {"trace_id": None, "name": "null trace"},
]


class TestPackedParity:
    """``events()`` of the packed store equals the dict store's, key
    order and JSON text included, for every kind of producer."""

    def test_span_calls_and_add_span(self):
        tee = Tee()
        with tee.span("outer", file="a.vhd"):
            with tee.span("inner", cat="sim"):
                pass
            tee.add_span("request", current_context(), 1.0, 2.0,
                         cat="serve", route="sim", method="POST",
                         status=200)
        tee.add_span("loose", None, 3.0, 4.0)
        tee.add_span("root", SpanContext(), 5.0, 6.0, detail=7)
        assert_same_events(tee)

    def test_kernel_samples_through_a_wrapping_ring(self):
        compiler = Compiler()
        assert compiler.compile(TICKER).ok
        tee = Tee(capacity=7)
        kernel = Kernel(trace=tee, trace_sample=1)
        sim = Elaborator(compiler.library, kernel=kernel).elaborate(
            "ticker")
        root = SpanContext()
        with use(root):
            sim.run(until_fs=UNTIL_FS)
        assert tee.dropped > 0
        assert {e["name"] for e in tee.events()} >= {
            "timestep", "process_resume"}
        assert_same_events(tee)
        assert_same_events(tee, trace_id=root.trace_id)

    def test_worker_events_and_arbitrary_dicts(self):
        worker = Compiler()
        result = worker.compile(TICKER)
        assert result.trace_events
        tee = Tee()
        tee.add_events(result.trace_events)
        tee.add_events(ARBITRARY)
        for event in ARBITRARY:
            tee.add(event)
        assert_same_events(tee)
        for trace_id in ("t", "t1", "absent",
                         result.trace_events[0]["trace_id"]):
            assert_same_events(tee, trace_id=trace_id)

    def test_ring_cases(self):
        tee = Tee(capacity=3)
        for i in range(5):
            tee.add({"name": str(i), "trace_id": "t"})
        assert_same_events(tee)
        tee.add_events([{"n": 1}, {"n": 2}, {"n": 3}])
        assert_same_events(tee)
        tee.clear()
        tee.oracle.clear()
        assert_same_events(tee)

    def test_read_dicts_are_fresh(self):
        recorder = SpanRecorder()
        recorder.add_span("x", SpanContext(), 1.0, 2.0, detail=1)
        recorder.events()[0]["args"]["detail"] = 2
        assert recorder.events()[0]["args"] == {"detail": 1}


class TestPackedSize:
    def test_full_ring_bytes_per_span(self):
        """A ring filled by a traced kernel run and compiles holds at
        most 300 traced bytes per span (a dict per span held 674-870)."""
        compiler = Compiler()
        assert compiler.compile(TICKER).ok
        ring = SpanRecorder(capacity=2048)
        gc.collect()
        tracemalloc.start()
        try:
            with use(SpanContext()):
                kernel = Kernel(trace=ring, trace_sample=1)
                sim = Elaborator(compiler.library,
                                 kernel=kernel).elaborate("ticker")
                sim.run(until_fs=200 * UNTIL_FS)
                traced = Compiler(tracer=ring)
                for i in range(10):
                    traced.compile(TICKER, filename="t%d.vhd" % i)
            del kernel, sim, traced
            gc.collect()
            full = tracemalloc.get_traced_memory()[0]
            assert len(ring) == 2048 and ring.dropped > 0
            ring.clear()
            gc.collect()  # a full collection empties the free lists
            held = full - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / 2048 <= 300


class TestCompileSpans:
    def test_a_compile_builds_only_its_own_span_dicts(self, monkeypatch):
        built = []
        event = recorder_mod._event

        def counting(record):
            built.append(record)
            return event(record)

        monkeypatch.setattr(recorder_mod, "_event", counting)
        compiler = Compiler()
        per_compile = []
        for i in range(50):
            del built[:]
            result = compiler.compile(TICKER, filename="t%d.vhd" % i)
            assert result.ok
            per_compile.append(len(built))
            assert len(built) == len(result.trace_events)
            assert {e["args"]["file"] for e in result.trace_events} == {
                "t%d.vhd" % i}
        assert len(compiler.tracer) > 50 * per_compile[0]
        assert set(per_compile) == {per_compile[0]}
