"""The span recorder's disabled mode: NULL_RECORDER records nothing,
directly, through a kernel run, and through a served ``/sim`` job."""

import pytest

from repro.serve.jobs import JobRunner
from repro.serve.session import Workspace
from repro.sim import Kernel
from repro.trace import (
    NULL_RECORDER,
    SpanContext,
    SpanRecorder,
    current_context,
    use,
)
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
        compiler = Compiler(strict=False)
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
        assert names == {"timestep", "process_resume"}


@pytest.fixture()
def workspace(tmp_path):
    ws = Workspace("s1", str(tmp_path))
    (path,) = ws.write_sources([{"name": "ticker.vhd", "text": TICKER}])
    assert ws.builder().build([path]).ok
    return ws


class TestServedSim:
    def _sim(self, workspace, trace):
        runner = JobRunner(trace=trace)
        try:
            return runner._run_sim(workspace, "ticker", None, UNTIL_FS,
                                   None, ctx=SpanContext())
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
