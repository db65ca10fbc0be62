"""Bridges: kernel / logger / observer / build-report -> registry."""

from repro.metrics import NULL_REGISTRY, MetricsRegistry
from repro.metrics.bridge import (
    bridge_build_report,
    bridge_kernel,
    bridge_observer,
    bridge_severity_logger,
    format_hot_processes,
    hot_processes,
)
from repro.sim import Kernel

NS = 10**6


def _toggler_kernel(metrics=None):
    """A clock plus a follower sensitive to it."""
    k = Kernel(metrics=metrics)
    clk = k.signal("clk", 0)
    q = k.signal("q", 0)
    rt = k.rt

    def clock():
        while True:
            rt.assign(clk, ((1 - rt.read(clk), 10 * NS),))
            yield rt.wait([clk])

    def follower():
        while True:
            yield rt.wait([clk])
            rt.assign(q, ((rt.read(clk), 0),))

    k.process("clock", clock)
    k.process("follower", follower, sensitivity=[clk])
    return k, clk, q


class TestBridgeKernel:
    def test_per_signal_and_per_process_samples(self):
        k, clk, q = _toggler_kernel()
        k.run(until=100 * NS)
        reg = MetricsRegistry()
        bridge_kernel(reg, k)
        snap = reg.snapshot()["metrics"]
        ev = {
            s["labels"]["signal"]: s["value"]
            for s in snap["sim_signal_events_total"]["samples"]
            if s["labels"]
        }
        assert ev["clk"] == clk.events > 0
        assert ev["q"] == q.events > 0
        res = {
            s["labels"]["process"]: s["value"]
            for s in
            snap["sim_process_resumes_by_process_total"]["samples"]
            if s["labels"]
        }
        assert res["clock"] > 0 and res["follower"] > 0
        assert snap["sim_signals"]["samples"][0]["value"] == 2
        assert snap["sim_processes"]["samples"][0]["value"] == 2

    def test_null_registry_passthrough(self):
        k, _, _ = _toggler_kernel()
        assert bridge_kernel(NULL_REGISTRY, k) is NULL_REGISTRY

    def test_bridge_is_idempotent(self):
        k, _, _ = _toggler_kernel()
        k.run(until=50 * NS)
        reg = MetricsRegistry()
        bridge_kernel(reg, k)
        once = reg.snapshot()["metrics"]
        bridge_kernel(reg, k)  # harvest again -> same totals
        assert reg.snapshot()["metrics"][
            "sim_signal_events_total"] == once[
                "sim_signal_events_total"]


class TestHotProcesses:
    def test_ranked_with_sensitivity(self):
        k, clk, _ = _toggler_kernel()
        k.run(until=100 * NS)
        rows = hot_processes(k, top=5)
        assert len(rows) == 2
        names = {r[0] for r in rows}
        assert names == {"clock", "follower"}
        by_name = {r[0]: r for r in rows}
        assert by_name["follower"][3] == ["clk"]  # attribution
        assert by_name["clock"][3] == []
        # resumes populated even without a metrics registry
        assert all(r[1] > 0 for r in rows)

    def test_top_limits(self):
        k, _, _ = _toggler_kernel()
        k.run(until=50 * NS)
        assert len(hot_processes(k, top=1)) == 1

    def test_format_table(self):
        k, _, _ = _toggler_kernel()
        k.run(until=50 * NS)
        text = format_hot_processes(k, top=5)
        assert "hot processes" in text
        assert "clk" in text and "follower" in text


class TestSeverityLogger:
    def test_counts_by_severity(self):
        from repro.sim.vhdlio import SeverityLogger

        logger = SeverityLogger()
        logger.report("note", "n")
        logger.report("warning", "w")
        logger.report("warning", "w2")
        reg = MetricsRegistry()
        bridge_severity_logger(reg, logger)
        samples = reg.snapshot()["metrics"][
            "sim_assertions_total"]["samples"]
        counts = {
            s["labels"]["severity"]: s["value"]
            for s in samples if s["labels"]
        }
        assert counts["note"] == 1
        assert counts["warning"] == 2
        assert counts["error"] == 0


class TestObserverAndBuild:
    def test_bridge_observer(self):
        from repro.diag import AGObserver

        obs = AGObserver()
        obs.fired("g").update({"p1": 2, "p2": 1})
        # The totals come from the compile spans, the per-production
        # counts from the in-process observer.
        events = [{"name": "attribute_evaluation", "ph": "X",
                   "args": {"file": "a.vhd", "firings": {"g": 3},
                            "memo_hits": 1}}]
        reg = MetricsRegistry()
        bridge_observer(reg, obs, events)
        snap = reg.snapshot()["metrics"]
        assert snap["ag_rule_firings_total"]["samples"][0][
            "value"] == 3
        assert snap["ag_memo_hits_total"]["samples"][0]["value"] == 1
        assert snap["ag_memo_misses_total"]["samples"][0][
            "value"] == 3
        assert snap["ag_memo_hit_rate"]["samples"][0]["value"] == 0.25
        per_prod = {s["labels"]["production"]: s["value"] for s in
                    snap["ag_rule_firings_by_production_total"][
                        "samples"] if s["labels"]}
        assert per_prod == {"p1": 2, "p2": 1}

    def test_bridge_observer_none_is_noop(self):
        reg = MetricsRegistry()
        assert bridge_observer(reg, None, []) is reg
        assert reg.names() == []

    def test_bridge_build_report_worker_utilization(self):
        class Report:
            stats = {"hits": 2, "misses": 1, "ag_evaluations": 1}
            jobs = 2
            # two workers, 1s wall: pid 1 busy 1s, pid 2 busy 0.5s
            trace_events = [
                {"ph": "X", "pid": 1, "ts": 0.0, "dur": 1e6},
                {"ph": "X", "pid": 2, "ts": 0.0, "dur": 5e5},
            ]

        reg = MetricsRegistry()
        bridge_build_report(reg, Report())
        snap = reg.snapshot()["metrics"]
        cache = {
            s["labels"]["outcome"]: s["value"]
            for s in snap["build_cache_total"]["samples"]
            if s["labels"]
        }
        assert cache["hits"] == 2 and cache["misses"] == 1
        util = {
            s["labels"]["pid"]: s["value"]
            for s in snap["build_worker_utilization"]["samples"]
            if s["labels"]
        }
        assert util["1"] == 1.0
        assert abs(util["2"] - 0.5) < 1e-9
        assert snap["build_wall_seconds"]["samples"][0]["value"] == 1.0
