"""Bridges: each layer's plain counts -> the unified registry.

Each event is counted once, in its layer's own record: the kernel's
integers and per-signal / per-process tallies, ``BuildCache.stats``,
``SeverityLogger.counts``, and the AG totals each compile's
``attribute_evaluation`` span carries (next to the in-process
``AGObserver``'s per-production firings).  The functions here adopt
them into one :class:`~repro.metrics.MetricsRegistry` at snapshot time
(``set_total``, ``set``, ``set_observations``), so bridging is
idempotent and one ``repro-metrics/1`` snapshot covers compile →
elaborate → simulate.
"""

from .registry import SECONDS_BUCKETS

#: Bucket bounds of the deltas-per-timestep histogram: an explicit
#: zero bucket (timesteps with no delta at all), then log 1-2-5.
DELTA_BUCKETS = (0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)


# -- simulation ---------------------------------------------------------------


def bridge_kernel(registry, kernel):
    """Publish a kernel's counts and per-signal/process/logger tallies."""
    if not getattr(registry, "enabled", False):
        return registry
    registry.counter(
        "sim_cycles_total", "executed simulation cycles").set_total(
            kernel.cycles)
    registry.counter(
        "sim_delta_cycles_total",
        "simulation cycles that did not advance time").set_total(
            kernel.delta_cycles)
    registry.histogram(
        "sim_deltas_per_timestep",
        "delta cycles executed per distinct timestep",
        buckets=DELTA_BUCKETS).set_observations(kernel.delta_runs)
    registry.counter(
        "sim_process_resumes_total", "process resumptions").set_total(
            sum(proc.resumes for proc in kernel.processes))
    registry.gauge(
        "sim_truncated_transactions",
        "projected transactions abandoned because run(until=...) "
        "stopped before their time").set(kernel.truncated_transactions)
    sig_events = registry.counter(
        "sim_signal_events_total", "value changes per signal")
    sig_txns = registry.counter(
        "sim_signal_transactions_total",
        "fired driver transactions per signal")
    for sig in kernel.signals:
        sig_events.labels(signal=sig.name).set_total(sig.events)
        sig_txns.labels(signal=sig.name).set_total(sig.transactions)
    resumes = registry.counter(
        "sim_process_resumes_by_process_total",
        "kernel resumptions per process")
    exec_s = registry.gauge(
        "sim_process_exec_seconds",
        "cumulative wall-clock execution time per process")
    exec_hist = registry.histogram(
        "sim_process_exec_seconds_distribution",
        "distribution of per-process cumulative execution time",
        buckets=SECONDS_BUCKETS)
    for proc in kernel.processes:
        resumes.labels(process=proc.name).set_total(proc.resumes)
        exec_s.labels(process=proc.name).set(proc.exec_seconds)
        exec_hist.observe(proc.exec_seconds)
    bridge_severity_logger(registry, kernel.logger)
    registry.gauge("sim_now_fs", "current simulation time").set(
        kernel.now)
    registry.gauge("sim_signals", "signals in the design").set(
        len(kernel.signals))
    registry.gauge("sim_processes", "processes in the design").set(
        len(kernel.processes))
    # -- activity-driven scheduler (event calendar + fanout index).
    registry.gauge(
        "sim_calendar_heap_size",
        "calendar entries (live + stale) currently in the "
        "scheduling heap").set(len(kernel._calendar))
    registry.gauge(
        "sim_calendar_heap_peak",
        "high-water calendar heap size").set(kernel.calendar_peak)
    registry.counter(
        "sim_calendar_stale_pops_total",
        "calendar entries discarded by lazy deletion (preempted "
        "transactions, satisfied waits)").set_total(kernel.stale_pops)
    registry.counter(
        "sim_calendar_fanout_visits_total",
        "waiting-process visits through the signal fanout "
        "index").set_total(kernel.fanout_visits)
    # -- compiled backend (repro.sim.compiled).  Emitted only for a
    # CompiledKernel, so the event/scan snapshots stay unchanged —
    # and, like sim_calendar_*, these describe the scheduler, not the
    # simulated design, so the differential oracle ignores them.
    if getattr(kernel, "program", None) is not None:
        registry.gauge(
            "sim_codegen_seconds",
            "wall-clock spent specializing this design (cold cost; "
            "zero after a fingerprint cache hit would still bind)"
        ).set(kernel.codegen_seconds)
        registry.gauge(
            "sim_compiled_procs",
            "processes dispatched as specialized plain functions"
        ).set(kernel.compiled_procs)
        registry.gauge(
            "sim_compiled_slot_signals",
            "signals with flat-slot storage (no Driver objects)"
        ).set(kernel.slot_signals)
        registry.counter(
            "sim_levelized_evals_total",
            "slot-signal updates evaluated outside the event "
            "calendar").set_total(kernel.levelized_evals)
    return registry


def bridge_severity_logger(registry, logger):
    """Publish assertion-severity counts."""
    if not getattr(registry, "enabled", False):
        return registry
    family = registry.counter(
        "sim_assertions_total", "assertion reports by severity")
    for severity, count in sorted(logger.counts.items()):
        family.labels(severity=severity).set_total(count)
    return registry


def hot_processes(kernel, top=5):
    """The ``--top N`` rows: (name, resumes, exec_seconds,
    sensitivity-names) sorted hottest-first.

    When per-process wall clock was never measured (metrics disabled)
    the sort falls back to resume counts, so the table still ranks."""
    rows = []
    for proc in kernel.processes:
        sens = [s.name for s in (proc.sensitivity or ())]
        rows.append((proc.name, proc.resumes, proc.exec_seconds, sens))
    rows.sort(key=lambda r: (r[2], r[1]), reverse=True)
    return rows[:top] if top is not None else rows


def format_hot_processes(kernel, top=5):
    """A human-readable hot-process table."""
    rows = hot_processes(kernel, top)
    lines = ["hot processes (top %d of %d):"
             % (len(rows), len(kernel.processes))]
    lines.append("  %-36s %10s %12s  %s"
                 % ("process", "resumes", "exec ms", "sensitivity"))
    for name, resumes, seconds, sens in rows:
        lines.append("  %-36s %10d %12.3f  %s"
                     % (name, resumes, seconds * 1e3,
                        ",".join(sens) if sens else "-"))
    return "\n".join(lines)


def format_calendar_stats(kernel):
    """A one-line scheduler summary for ``repro sim --metrics``:
    how activity-driven the run actually was (fanout visits vs the
    resumes a full sweep would have tested), plus the calendar's
    high-water size and lazy-deletion discards."""
    cycles = max(kernel.cycles, 1)
    swept = cycles * len(kernel.processes)
    return (
        "scheduler: %d cycles (%d delta), calendar peak %d, "
        "%d stale pop(s), %d fanout visit(s) "
        "(full sweep would test %d waits)"
        % (kernel.cycles, kernel.delta_cycles, kernel.calendar_peak,
           kernel.stale_pops, kernel.fanout_visits, swept))


# -- attribute-grammar evaluation --------------------------------------------


def bridge_observer(registry, observer, events, top_productions=None):
    """Publish an in-process compile's AG counters: the totals the
    ``attribute_evaluation`` spans in ``events`` carry, per grammar
    too, and ``observer``'s per-production firings.  (Only the static
    visit-sequence evaluator counts visits, and no compile runs it.)

    ``top_productions`` bounds the per-production label cardinality
    (None = all ~hundreds of productions)."""
    if not getattr(registry, "enabled", False) or observer is None:
        return registry
    firings = _bridge_ag_totals(registry, events)
    per_prod = registry.counter(
        "ag_rule_firings_by_production_total",
        "semantic-rule firings per production")
    items = observer.top_productions(top_productions)
    for label, count in items:
        per_prod.labels(production=label).set_total(count)
    per_grammar = registry.counter(
        "ag_rule_firings_by_grammar_total",
        "semantic-rule firings per grammar")
    for grammar, count in sorted(firings.items()):
        per_grammar.labels(grammar=grammar).set_total(count)
    return registry


def _bridge_ag_totals(registry, events):
    """Publish the AG totals of the compiles ``events`` cover; returns
    their firings per grammar."""
    from ..trace.analyze import ag_totals

    firings, hits = ag_totals(events)
    fired = sum(firings.values())
    registry.counter(
        "ag_rule_firings_total", "semantic-rule firings").set_total(
            fired)
    registry.counter(
        "ag_memo_hits_total",
        "demanded attributes served from the memo table").set_total(
            hits)
    registry.counter(
        "ag_memo_misses_total", "attributes computed fresh").set_total(
            fired)
    registry.gauge("ag_memo_hit_rate", "memo hit rate").set(
        hits / (hits + fired) if hits + fired else 0.0)
    return firings


# -- incremental build --------------------------------------------------------


def bridge_build_report(registry, report):
    """Publish an :class:`IncrementalBuilder` report: cache stats,
    per-worker busy seconds, and worker utilization computed from the
    merged Chrome trace (busy span time / wall span per pid)."""
    if not getattr(registry, "enabled", False):
        return registry
    stats = report.stats
    cache = registry.counter(
        "build_cache_total", "build cache outcomes")
    for key in ("hits", "misses", "invalidated", "quarantined"):
        cache.labels(outcome=key).set_total(stats.get(key, 0))
    registry.counter(
        "build_ag_evaluations_total",
        "files that required a fresh AG evaluation").set_total(
            stats.get("ag_evaluations", 0))
    registry.gauge("build_jobs", "configured worker count").set(
        report.jobs)
    busy = registry.gauge(
        "build_worker_busy_seconds",
        "summed phase-span seconds per worker pid")
    util = registry.gauge(
        "build_worker_utilization",
        "busy seconds / build wall seconds per worker pid")
    spans = [e for e in report.trace_events if e.get("ph") == "X"]
    if spans:
        t0 = min(e["ts"] for e in spans)
        t1 = max(e["ts"] + e.get("dur", 0.0) for e in spans)
        wall = max((t1 - t0) / 1e6, 1e-9)
        per_pid = {}
        for e in spans:
            pid = str(e.get("pid", "?"))
            per_pid[pid] = per_pid.get(pid, 0.0) + \
                e.get("dur", 0.0) / 1e6
        for pid, seconds in sorted(per_pid.items()):
            busy.labels(pid=pid).set(seconds)
            util.labels(pid=pid).set(min(seconds / wall, 1.0))
        registry.gauge(
            "build_wall_seconds",
            "wall-clock span of the merged build trace").set(wall)
    if any(e.get("name") == "compile_file" for e in spans):
        _bridge_ag_totals(registry, spans)
    return registry


# -- compiler phases ----------------------------------------------------------


def bridge_tracer(registry, recorder, prefix="compile"):
    """Publish a :class:`repro.trace.SpanRecorder`'s seconds per span
    name."""
    if not getattr(registry, "enabled", False):
        return registry
    from ..trace.analyze import span_totals

    family = registry.gauge(
        "%s_phase_seconds" % prefix,
        "wall-clock seconds per %s phase" % prefix)
    totals = span_totals(recorder.events())
    for phase, (seconds, _) in sorted(totals.items()):
        family.labels(phase=phase).set(seconds)
    return registry
