"""Kernel telemetry and limit semantics (PR 3 satellites).

- delta-cycle overflow raises :class:`SimulationError`;
- ``SeverityLogger.fail_on`` promotion ("error" vs "failure");
- ``format_time`` edge cases (0 fs, mixed units);
- ``run(until=...)`` truncation is counted and reported, not silent;
- kernel metrics: cycle counters, delta histogram, per-process timing.
"""

import pytest

from repro.metrics import MetricsRegistry
from repro.metrics.bridge import bridge_kernel
from repro.sim import Kernel
from repro.sim.kernel import SimulationError
from repro.sim.vhdlio import (
    AssertionFailure,
    SeverityLogger,
    format_time,
)

NS = 10**6


class TestDeltaOverflow:
    def test_unbounded_zero_delay_loop_raises(self):
        k = Kernel(max_deltas=25)
        a = k.signal("a", 0)
        b = k.signal("b", 1)
        rt = k.rt

        def ping():
            rt.assign(a, ((1, 0),))  # kick off the zero-delay loop
            while True:
                yield rt.wait([b])
                rt.assign(a, ((1 - rt.read(a), 0),))

        def pong():
            while True:
                yield rt.wait([a])
                rt.assign(b, ((1 - rt.read(b), 0),))

        k.process("ping", ping)
        k.process("pong", pong)
        with pytest.raises(SimulationError) as exc:
            k.run()
        assert "delta" in str(exc.value)

    def test_bounded_delta_chain_is_fine(self):
        k = Kernel(max_deltas=100)
        sigs = [k.signal("s%d" % i, 0) for i in range(5)]
        rt = k.rt

        def feeder():
            rt.assign(sigs[0], ((1, 0),))
            yield rt.wait([], None, None)

        def stage(i):
            def proc():
                while True:
                    yield rt.wait([sigs[i]])
                    rt.assign(sigs[i + 1],
                              ((rt.read(sigs[i]), 0),))
            return proc

        k.process("feeder", feeder)
        for i in range(4):
            k.process("st%d" % i, stage(i))
        k.run()
        assert sigs[-1].value == 1
        assert k.delta_cycles > 0


class TestFailOnPromotion:
    def test_default_only_failure_raises(self):
        logger = SeverityLogger()
        logger.report("error", "bad")  # logged, does not raise
        with pytest.raises(AssertionFailure):
            logger.report("failure", "fatal")
        assert logger.counts["error"] == 1
        assert logger.counts["failure"] == 1

    def test_fail_on_error_promotes_errors(self):
        logger = SeverityLogger(fail_on="error")
        logger.report("warning", "meh")
        with pytest.raises(AssertionFailure):
            logger.report("error", "bad")

    def test_fail_on_note_promotes_everything(self):
        logger = SeverityLogger(fail_on="note")
        with pytest.raises(AssertionFailure):
            logger.report("note", "hi")

    def test_fail_false_never_raises(self):
        logger = SeverityLogger(fail_on="note")
        logger.report("failure", "internal", fail=False)
        assert logger.counts["failure"] == 1

    def test_unknown_severity_coerces_to_error(self):
        logger = SeverityLogger()
        logger.report("bogus", "x")
        assert logger.counts["error"] == 1


class TestFormatTime:
    @pytest.mark.parametrize("fs,expect", [
        (0, "0 fs"),
        (1, "1 fs"),
        (999, "999 fs"),
        (1000, "1 ps"),
        (10**6, "1 ns"),
        (1500 * 10**3, "1500 ps"),      # 1.5 ns: largest even unit
        (10**9, "1 us"),
        (10**12, "1 ms"),
        (10**15, "1 sec"),
        (60 * 10**15, "1 min"),
        (3600 * 10**15, "1 hr"),
        (90 * 10**15, "90 sec"),        # 1.5 min stays in seconds
    ])
    def test_largest_even_unit(self, fs, expect):
        assert format_time(fs) == expect


class TestTruncation:
    def _kernel_with_pending(self):
        k = Kernel()
        s = k.signal("s", 0)
        rt = k.rt

        def driver():
            rt.assign(s, ((1, 10 * NS), (2, 1000 * NS)))
            yield rt.wait([], None, None)

        k.process("driver", driver)
        return k, s

    def test_pending_transactions_counted_and_noted(self):
        k, s = self._kernel_with_pending()
        k.run(until=50 * NS)
        assert k.now == 50 * NS
        assert s.value == 1
        assert k.truncated_transactions >= 1
        notes = [r for r in k.logger.records if r[0] == "note"]
        assert notes, k.logger.records
        assert "truncated" in notes[0][3]
        assert notes[0][2] == "<kernel>"

    def test_truncation_never_raises_even_with_fail_on_note(self):
        k = Kernel(logger=SeverityLogger(fail_on="note"))
        s = k.signal("s", 0)
        rt = k.rt

        def driver():
            rt.assign(s, ((1, 100 * NS),))
            yield rt.wait([], None, None)

        k.process("driver", driver)
        k.run(until=10 * NS)  # must not raise AssertionFailure
        assert k.truncated_transactions == 1

    def test_quiescent_run_has_no_truncation(self):
        k, _ = self._kernel_with_pending()
        k.run()  # to quiescence: nothing abandoned
        assert k.truncated_transactions == 0
        assert not [r for r in k.logger.records if r[0] == "note"]

    def test_truncation_gauge_published(self):
        reg = MetricsRegistry()
        k = Kernel(metrics=reg)
        s = k.signal("s", 0)
        rt = k.rt

        def driver():
            rt.assign(s, ((1, 100 * NS),))
            yield rt.wait([], None, None)

        k.process("driver", driver)
        k.run(until=10 * NS)
        snap = bridge_kernel(reg, k).snapshot()["metrics"]
        assert snap["sim_truncated_transactions"]["samples"][0][
            "value"] == 1


class TestKernelMetrics:
    def _toggler(self, metrics=None):
        k = Kernel(metrics=metrics)
        clk = k.signal("clk", 0)
        rt = k.rt

        def clock():
            while True:
                rt.assign(clk, ((1 - rt.read(clk), 10 * NS),))
                yield rt.wait([clk])

        k.process("clock", clock, sensitivity=[clk])
        return k, clk

    def test_cycle_and_delta_counters(self):
        reg = MetricsRegistry()
        k, _ = self._toggler(metrics=reg)
        k.run(until=100 * NS)
        snap = bridge_kernel(reg, k).snapshot()["metrics"]
        assert snap["sim_cycles_total"]["samples"][0][
            "value"] == k.cycles > 0
        hist = snap["sim_deltas_per_timestep"]["samples"][0]
        assert hist["count"] > 0

    def test_exec_seconds_measured_only_when_enabled(self):
        k_off, _ = self._toggler()  # default: null registry
        k_off.run(until=100 * NS)
        assert all(p.exec_seconds == 0.0 for p in k_off.processes)
        assert all(p.resumes > 0 for p in k_off.processes)

        k_on, _ = self._toggler(metrics=MetricsRegistry())
        k_on.run(until=100 * NS)
        assert any(p.exec_seconds > 0.0 for p in k_on.processes)

    def test_sensitivity_stored_on_process(self):
        k, clk = self._toggler()
        assert k.processes[0].sensitivity == [clk]
