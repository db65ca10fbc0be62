"""The activity-driven scheduler: event calendar, lazy deletion,
pending-update set, and the signal→waiting-process fanout index.

Three concerns:

1. **Preemption × calendar interplay** — inertial/transport preemption
   leaves stale heap entries behind; lazy deletion must discard them
   without phantom wakeups, phantom timesteps, or changed
   ``truncated_transactions`` accounting under ``run(until=...)``.
2. **Differential equivalence** — any workload must behave identically
   on the calendar :class:`Kernel` and the full-scan
   :class:`ScanKernel` reference: same cycle/delta counts, same VCD
   bytes, same ``sim_*`` metric values.
3. **Telemetry** — the new ``sim_calendar_*`` gauges/counters and the
   regression fix for the spurious ``sim_deltas_per_timestep`` zero
   observation on quiescent runs.
"""

import pytest

from repro.metrics import MetricsRegistry
from repro.metrics.bridge import (
    bridge_kernel,
    format_calendar_stats,
)
from repro.sim import Kernel, ScanKernel
from repro.sim.tracing import WaveformRecorder

NS = 10**6


class TestLazyDeletion:
    """Stale calendar entries must never surface as activity."""

    def _watched(self, kernel_cls=Kernel):
        k = kernel_cls()
        s = k.signal("s", 0)
        rt = k.rt
        wakes = []

        def watcher():
            while True:
                yield rt.wait([s])
                wakes.append((k.now, rt.read(s)))

        k.process("watcher", watcher)
        return k, s, rt, wakes

    def test_inertial_preemption_no_phantom_timestep(self):
        k, s, rt, wakes = self._watched()

        def driver():
            rt.assign(s, ((1, 10 * NS),))
            rt.assign(s, ((2, 5 * NS),))  # deletes the 10 ns txn
            yield rt.wait([], None, None)

        k.process("driver", driver)
        k.run(until=50 * NS)
        assert wakes == [(5 * NS, 2)]
        # Exactly one cycle: the stale 10 ns entry must not make one.
        assert k.cycles == 1
        assert k.stale_pops >= 1

    def test_transport_preemption_no_phantom_timestep(self):
        k, s, rt, wakes = self._watched()

        def driver():
            rt.assign(s, ((1, 10 * NS),), transport=True)
            rt.assign(s, ((2, 5 * NS),), transport=True)
            yield rt.wait([], None, None)

        k.process("driver", driver)
        k.run(until=50 * NS)
        assert wakes == [(5 * NS, 2)]
        assert k.cycles == 1
        assert k.stale_pops >= 1

    def test_same_time_duplicate_entries_collapse(self):
        k, s, rt, wakes = self._watched()

        def driver():
            rt.assign(s, ((1, 5 * NS),))
            rt.assign(s, ((2, 5 * NS),))  # same time, new value
            yield rt.wait([], None, None)

        k.process("driver", driver)
        k.run()
        assert wakes == [(5 * NS, 2)]
        assert k.cycles == 1
        assert s.events == 1
        assert s.transactions == 1  # one fired transaction

    def test_stale_timeout_after_signal_wake(self):
        """A wait's timeout entry dies when an event resumes the
        process first — no wakeup, no timestep at the old deadline."""
        k = Kernel()
        s = k.signal("s", 0)
        rt = k.rt
        wakes = []

        def driver():
            rt.assign(s, ((1, 3 * NS),))
            yield rt.wait([], None, None)

        def waiter():
            yield rt.wait([s], None, 10 * NS)
            wakes.append(k.now)
            yield rt.wait([], None, None)

        k.process("driver", driver)
        k.process("waiter", waiter)
        k.run(until=50 * NS)
        assert wakes == [3 * NS]
        assert k.cycles == 1  # nothing happened at 10 ns
        assert k.now == 3 * NS  # quiescent before `until`
        assert k.stale_pops >= 1  # the dead timeout entry

    def test_rearmed_zero_timeout_fires_every_delta(self):
        """``wait for 0`` re-arms a same-time timeout entry each
        cycle; duplicates of dead entries must not double-fire."""
        k = Kernel()
        rt = k.rt
        ticks = []

        def poller():
            for _ in range(3):
                yield rt.wait(None, None, 0)
                ticks.append(k.now)

        k.process("poller", poller)
        k.run()
        assert ticks == [0, 0, 0]
        assert k.cycles == 3
        assert k.delta_cycles == 3

    def test_repeated_timeouts_advance_like_scan(self):
        k = Kernel()
        rt = k.rt
        times = []

        def proc():
            for _ in range(4):
                yield rt.wait(None, None, 7 * NS)
                times.append(k.now)

        k.process("p", proc)
        k.run()
        assert times == [7 * NS, 14 * NS, 21 * NS, 28 * NS]
        assert k.cycles == 4


class TestTruncationWithCalendar:
    """``run(until=...)`` accounting must ignore stale entries."""

    def test_preempted_transaction_not_counted(self):
        k = Kernel()
        s = k.signal("s", 0)
        rt = k.rt

        def driver():
            rt.assign(s, ((1, 100 * NS),))
            rt.assign(s, ((2, 200 * NS),))  # inertial: kills 100 ns
            yield rt.wait([], None, None)

        k.process("driver", driver)
        k.run(until=50 * NS)
        assert k.now == 50 * NS
        assert k.cycles == 0
        # Only the *live* 200 ns transaction is abandoned; the stale
        # 100 ns heap entry adds nothing.
        assert k.truncated_transactions == 1
        notes = [r for r in k.logger.records if r[0] == "note"]
        assert len(notes) == 1 and "truncated" in notes[0][3]

    def test_stale_entries_beyond_until_do_not_truncate(self):
        """When preemption already killed everything past ``until``,
        the run quiesces — no truncation note, no phantom advance."""
        k = Kernel()
        s = k.signal("s", 0)
        rt = k.rt

        def driver():
            rt.assign(s, ((1, 5 * NS),), transport=True)
            rt.assign(s, ((7, 100 * NS),), transport=True)
            rt.assign(s, ((2, 6 * NS),), transport=True)  # kills 100 ns
            yield rt.wait([], None, None)

        k.process("driver", driver)
        k.run(until=50 * NS)
        assert k.now == 6 * NS  # quiescent, not advanced to 50 ns
        assert s.value == 2
        assert k.truncated_transactions == 0
        assert not [r for r in k.logger.records if r[0] == "note"]
        assert k.stale_pops >= 1

    def test_truncation_counts_match_scan_kernel(self):
        def build(kernel_cls):
            k = kernel_cls()
            s = k.signal("s", 0)
            rt = k.rt

            def driver():
                rt.assign(s, ((1, 10 * NS), (2, 80 * NS)),
                          transport=True)
                yield rt.wait(None, None, 120 * NS)

            k.process("driver", driver)
            k.run(until=40 * NS)
            return k

        cal, scan = build(Kernel), build(ScanKernel)
        assert cal.truncated_transactions == \
            scan.truncated_transactions == 2  # 80 ns txn + 120 ns wait
        assert cal.now == scan.now == 40 * NS
        assert cal.cycles == scan.cycles


class TestFanoutIndex:
    def test_waiters_registered_and_released(self):
        k = Kernel()
        a = k.signal("a", 0)
        b = k.signal("b", 0)
        rt = k.rt

        def waiter():
            yield rt.wait([a, b])
            yield rt.wait([a])
            yield rt.wait([], None, None)

        proc = k.process("waiter", waiter)

        def driver():
            rt.assign(a, ((1, NS),))
            yield rt.wait([], None, None)

        k.process("driver", driver)
        k.initialize()
        assert proc in a.waiters and proc in b.waiters
        k.run()
        # Resumed once by a's event; re-suspended on [a] only.
        assert proc in a.waiters
        assert b.waiters == set()

    def test_duplicate_signals_in_wait_resume_once(self):
        k = Kernel()
        s = k.signal("s", 0)
        rt = k.rt

        def waiter():
            while True:
                yield rt.wait([s, s])

        proc = k.process("waiter", waiter)

        def driver():
            rt.assign(s, ((1, NS),))
            yield rt.wait([], None, None)

        k.process("driver", driver)
        k.run()
        assert proc.resumes == 2  # initialize + one event

    def test_fanout_visits_track_events_only(self):
        k = Kernel()
        s = k.signal("s", 0)
        quiet = k.signal("quiet", 0)
        rt = k.rt

        def watcher():
            while True:
                yield rt.wait([s])

        def sleeper():
            yield rt.wait([quiet])

        k.process("watcher", watcher)
        k.process("sleeper", sleeper)

        def driver():
            for v in (1, 2, 3):
                rt.assign(s, ((v, NS),))
                yield rt.wait(None, None, NS)

        k.process("driver", driver)
        k.run()
        # Three events on s, one waiter each; `quiet` never fires so
        # its waiter is never visited.
        assert k.fanout_visits == 3

    def test_condition_false_keeps_process_waiting(self):
        k = Kernel()
        s = k.signal("s", 0)
        rt = k.rt
        woke = []

        def waiter():
            yield rt.wait([s], lambda: rt.read(s) >= 3, None)
            woke.append(k.now)

        proc = k.process("waiter", waiter)

        def driver():
            for v in (1, 2):
                rt.assign(s, ((v, NS),))
                yield rt.wait(None, None, NS)

        k.process("driver", driver)
        k.run()
        assert woke == []
        assert proc.resumes == 1  # initialize only
        assert proc in s.waiters  # still indexed
        assert k.fanout_visits == 2  # visited, condition vetoed


def _mixed_workload(kernel_cls, metrics=None):
    """A deterministic workload exercising every scheduler feature:
    clocked processes, sensitivity fanout, zero-delay deltas,
    inertial + transport preemption, resolved multi-driver buses,
    timeouts, and conditions."""
    k = kernel_cls(metrics=metrics)
    rt = k.rt
    clk = k.signal("clk", 0)
    d0 = k.signal("d0", 0)
    d1 = k.signal("d1", 0)
    pulse = k.signal("pulse", 0)
    line = k.signal("line", 0)
    bus = k.signal("bus", 0, resolution=lambda vs: max(vs))
    poll = k.signal("poll", 0)

    def clock():
        while True:
            rt.assign(clk, ((1 - rt.read(clk), 5 * NS),))
            yield rt.wait([clk])

    def stage():  # clocked pipeline stage + zero-delay forward
        while True:
            yield rt.wait([clk])
            if rt.event(clk) and rt.read(clk) == 1:
                rt.assign(d0, (((rt.read(d0) + 1) % 7, 0),))

    def forward():  # delta-cycle chain d0 -> d1
        while True:
            yield rt.wait([d0])
            rt.assign(d1, ((rt.read(d0), 0),))

    def pulser():  # inertial preemption every period
        while True:
            rt.assign(pulse, ((1, 9 * NS),))
            rt.assign(pulse, ((0, 4 * NS),))  # kills the 9 ns txn
            yield rt.wait(None, None, 13 * NS)

    def liner():  # transport delay line with mid-flight preemption
        while True:
            rt.assign(line, ((1, 6 * NS), (0, 20 * NS)),
                      transport=True)
            rt.assign(line, ((2, 11 * NS),), transport=True)
            yield rt.wait(None, None, 17 * NS)

    def busdrv(v, period):
        def proc():
            while True:
                rt.assign(bus, ((v, period),))
                rt.assign(bus, ((0, period + 3 * NS),))
                yield rt.wait(None, None, 2 * period)
        return proc

    def conditional():  # wakes only when d1 crosses the threshold
        while True:
            yield rt.wait([d1], lambda: rt.read(d1) >= 3, 40 * NS)
            rt.assign(poll, ((1 - rt.read(poll), 1 * NS),))

    k.process("clock", clock, sensitivity=[clk])
    k.process("stage", stage, sensitivity=[clk])
    k.process("forward", forward, sensitivity=[d0])
    k.process("pulser", pulser)
    k.process("liner", liner)
    k.process("bus_a", busdrv(2, 8 * NS))
    k.process("bus_b", busdrv(3, 10 * NS))
    k.process("conditional", conditional)
    return k


class TestDifferentialEquivalence:
    """Calendar kernel vs full-scan reference: identical semantics."""

    def test_counts_values_and_vcd_identical(self):
        results = {}
        for cls in (Kernel, ScanKernel):
            k = _mixed_workload(cls)
            tracer = WaveformRecorder(k)
            end = k.run(until=200 * NS)
            results[cls] = (k, tracer, end)
        cal, cal_tr, cal_end = results[Kernel]
        scan, scan_tr, scan_end = results[ScanKernel]
        assert cal_end == scan_end
        assert cal.cycles == scan.cycles > 50
        assert cal.delta_cycles == scan.delta_cycles > 0
        assert [s.value for s in cal.signals] == \
            [s.value for s in scan.signals]
        assert [s.events for s in cal.signals] == \
            [s.events for s in scan.signals]
        assert [s.transactions for s in cal.signals] == \
            [s.transactions for s in scan.signals]
        assert [p.resumes for p in cal.processes] == \
            [p.resumes for p in scan.processes]
        assert cal_tr.vcd() == scan_tr.vcd()

    def test_reentrant_runs_stay_identical(self):
        cal = _mixed_workload(Kernel)
        scan = _mixed_workload(ScanKernel)
        for until in (30 * NS, 90 * NS, 150 * NS):
            cal.run(until=until)
            scan.run(until=until)
            assert cal.now == scan.now
            assert cal.cycles == scan.cycles
            assert [s.value for s in cal.signals] == \
                [s.value for s in scan.signals]
        assert cal.truncated_transactions == scan.truncated_transactions

    def test_sim_metric_values_identical(self):
        def snapshot(cls):
            registry = MetricsRegistry()
            k = _mixed_workload(cls, metrics=registry)
            k.run(until=120 * NS)
            bridge_kernel(registry, k)
            return registry.snapshot()["metrics"]

        cal, scan = snapshot(Kernel), snapshot(ScanKernel)
        same = [
            "sim_cycles_total",
            "sim_delta_cycles_total",
            "sim_deltas_per_timestep",
            "sim_process_resumes_total",
            "sim_process_resumes_by_process_total",
            "sim_signal_events_total",
            "sim_signal_transactions_total",
            "sim_now_fs",
            "sim_signals",
            "sim_processes",
        ]
        for family in same:
            assert cal[family]["samples"] == scan[family]["samples"], \
                family

    def test_manual_cycle_stepping_identical(self):
        cal = _mixed_workload(Kernel)
        scan = _mixed_workload(ScanKernel)
        for _ in range(25):
            assert cal.cycle() == scan.cycle()
            assert cal.now == scan.now
            assert cal.step == scan.step


class TestDeltaHistogramObservation:
    """Regression: a quiescent ``run()`` (zero executed cycles) must
    not record a spurious zero in ``sim_deltas_per_timestep``."""

    def _hist(self, kernel):
        bridge_kernel(kernel.metrics, kernel)
        snap = kernel.metrics.snapshot()["metrics"]
        return snap["sim_deltas_per_timestep"]["samples"][0]

    def test_quiescent_run_records_nothing(self):
        registry = MetricsRegistry()
        k = Kernel(metrics=registry)
        k.signal("s", 0)
        k.run()
        assert self._hist(k)["count"] == 0

    def test_quiescent_scan_kernel_records_nothing(self):
        registry = MetricsRegistry()
        k = ScanKernel(metrics=registry)
        k.signal("s", 0)
        k.run()
        assert self._hist(k)["count"] == 0

    def test_second_quiescent_run_adds_nothing(self):
        registry = MetricsRegistry()
        k = Kernel(metrics=registry)
        s = k.signal("s", 0)
        rt = k.rt

        def driver():
            rt.assign(s, ((1, NS),))
            yield rt.wait([], None, None)

        k.process("driver", driver)
        k.run()
        count = self._hist(k)["count"]
        assert count > 0
        k.run()  # already quiescent: no new observation
        assert self._hist(k)["count"] == count


class TestCalendarTelemetry:
    def test_calendar_metrics_published(self):
        registry = MetricsRegistry()
        k = _mixed_workload(Kernel, metrics=registry)
        k.run(until=100 * NS)
        bridge_kernel(registry, k)
        snap = registry.snapshot()["metrics"]
        assert snap["sim_calendar_heap_peak"]["samples"][0][
            "value"] == k.calendar_peak > 0
        assert snap["sim_calendar_stale_pops_total"]["samples"][0][
            "value"] == k.stale_pops > 0
        assert snap["sim_calendar_fanout_visits_total"]["samples"][0][
            "value"] == k.fanout_visits > 0
        assert snap["sim_calendar_heap_size"]["samples"][0][
            "value"] == len(k._calendar)

    def test_format_calendar_stats(self):
        k = _mixed_workload(Kernel)
        k.run(until=60 * NS)
        line = format_calendar_stats(k)
        assert "calendar peak" in line
        assert "fanout visit" in line
        assert "stale pop" in line

    def test_scan_kernel_keeps_no_calendar(self):
        k = _mixed_workload(ScanKernel)
        k.run(until=60 * NS)
        assert k._calendar == []
        assert k.calendar_peak == 0
        # Lazy-deletion telemetry only ticks on the calendar kernel.
        assert k.stale_pops == 0

    def test_heap_drains_on_quiescence(self):
        k = Kernel()
        s = k.signal("s", 0)
        rt = k.rt

        def driver():
            rt.assign(s, ((1, NS), (2, 2 * NS), (3, 3 * NS)))
            yield rt.wait([], None, None)

        k.process("driver", driver)
        k.run()
        assert k.calendar_peak >= 3
        assert k._calendar == []  # fully drained


class TestCalendarStress:
    def test_many_preemptions_one_survivor(self):
        """N rounds of inertial preemption leave N-1 stale entries;
        exactly one cycle may result."""
        k = Kernel()
        s = k.signal("s", 0)
        rt = k.rt

        def driver():
            for i in range(50):
                rt.assign(s, ((i + 1, (50 - i) * NS),))
            yield rt.wait([], None, None)

        k.process("driver", driver)
        k.run()
        assert s.value == 50
        assert k.now == 1 * NS  # the last (shortest-delay) assignment
        assert k.cycles == 1
        assert k.stale_pops == 49

    def test_interleaved_timeouts_and_events_match_scan(self):
        def build(cls):
            k = cls()
            sigs = [k.signal("s%d" % i, 0) for i in range(6)]
            rt = k.rt
            log = []

            def hopper(i):
                def proc():
                    while True:
                        yield rt.wait([sigs[i]], None,
                                      (3 + 2 * i) * NS)
                        log.append((k.now, i, rt.read(sigs[i])))
                        rt.assign(sigs[(i + 1) % 6],
                                  ((1 - rt.read(sigs[(i + 1) % 6]),
                                    2 * NS),))
                return proc

            for i in range(6):
                k.process("h%d" % i, hopper(i))
            k.run(until=100 * NS)
            return k, log

        cal_k, cal_log = build(Kernel)
        scan_k, scan_log = build(ScanKernel)
        assert cal_log == scan_log
        assert cal_k.cycles == scan_k.cycles
        assert cal_k.delta_cycles == scan_k.delta_cycles
