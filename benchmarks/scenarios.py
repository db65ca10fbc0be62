"""The ``repro bench-check`` scenarios and the designs they run.

``repro bench-check --baseline DIR/BENCH_<name>.json`` imports the
``scenarios.py`` beside the baseline and runs ``SCENARIOS[<name>]``.
Each scenario returns a ``repro-metrics/1`` ``bench`` envelope: a
``values`` dict and a ``checks`` dict giving each value its comparison
mode (``exact`` deterministic counters, ``max`` normalized costs,
``min`` speedups; see :mod:`repro.metrics.benchcheck`).

The design builders below are the only definition of each workload.
The ``bench_*.py`` pytest benchmarks import them too, so a gate number
and a pytest number that share a name measure the same design; where
the two run different sizes, the size is an argument of the builder.
"""

import json
import os
import re
import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

from repro.metrics import MetricsRegistry, envelope
from repro.metrics.benchcheck import normalized_cost
from repro.metrics.bridge import bridge_build_report, bridge_kernel

NS = 10**6  # femtoseconds


# -- design builders ---------------------------------------------------------


def compile_library(source, filename="<input>"):
    """Compile ``source`` into a fresh in-memory library."""
    from repro.vhdl.compiler import Compiler

    compiler = Compiler()
    result = compiler.compile(source, filename=filename)
    if not result.ok:
        raise RuntimeError("%s failed to compile: %s"
                           % (filename, result.messages[:3]))
    return compiler.library


#: The top entity of :func:`pipeline_source`.
PIPELINE_TOP = "gate_top"

_PIPELINE = """
    entity stage is
      port ( clk : in bit; din : in integer; dout : out integer );
    end stage;
    architecture rtl of stage is
      signal hold : integer := 0;
    begin
      process (clk)
      begin
        if clk'event and clk = '1' then
          hold <= (din + 1) mod 1000;
        end if;
      end process;
      dout <= hold;
    end rtl;

    entity gate_top is end gate_top;
    architecture top of gate_top is
      component stage
        port ( clk : in bit; din : in integer; dout : out integer );
      end component;
      signal clk : bit := '0';
%(signals)s
    begin
      clock : process
      begin
        clk <= not clk after 5 ns;
        wait on clk;
      end process;
%(stages)s
      feedback : d0 <= d%(last)d;
    end top;
"""


def pipeline_source(stages=2):
    """A clocked pipeline as VHDL source: ``stages`` registered
    ``stage`` instances in a ring, ``d0 -> d1 -> ... -> d<stages>``,
    with the last output fed back into ``d0``."""
    signals = "\n".join("      signal d%d : integer := 0;" % i
                        for i in range(stages + 1))
    instances = "\n".join(
        "      s%d : stage port map ( clk => clk, din => d%d, "
        "dout => d%d );" % (i, i - 1, i)
        for i in range(1, stages + 1))
    return _PIPELINE % {"signals": signals, "stages": instances,
                        "last": stages}


def build_ring(kernel_cls, n, tokens):
    """The sparse-activity token ring, built straight on a kernel:
    ``tokens`` tokens circle ``n`` cells (one signal and one waiting
    process each), so every timestep wakes exactly ``tokens``
    processes while the rest of the design sits idle."""
    k = kernel_cls()
    sigs = [k.signal("cell%d" % i, 0) for i in range(n)]
    rt = k.rt
    stride = n // tokens
    starters = frozenset(j * stride for j in range(tokens))

    def cell(i):
        me = sigs[i]
        nxt = sigs[(i + 1) % n]
        starter = i in starters

        def proc():
            if starter:  # the initialization run launches the token
                rt.assign(nxt, ((1 - rt.read(nxt), NS),))
            while True:
                yield rt.wait([me])
                rt.assign(nxt, ((1 - rt.read(nxt), NS),))

        return proc

    for i in range(n):
        k.process("cell%d" % i, cell(i), sensitivity=[sigs[i]])
    return k


def ring_vhdl(n, tokens):
    """The token ring of :func:`build_ring` as VHDL source (top
    ``ring``; the compiled backend specializes elaborated designs, so
    it needs real source).  The ``tokens`` evenly spaced starter cells
    use sensitivity-list processes, whose initialization run launches
    the token; the rest wait first."""
    stride = n // tokens
    starters = frozenset(j * stride for j in range(tokens))
    lines = ["entity ring is", "end ring;", "",
             "architecture rtl of ring is"]
    for i in range(n):
        lines.append("  signal c_%d : integer := 0;" % i)
    lines.append("begin")
    for i in range(n):
        j = (i + 1) % n
        if i in starters:
            lines.append(
                "  p_%d: process (c_%d) begin "
                "c_%d <= 1 - c_%d after 1 ns; end process;"
                % (i, i, j, j))
        else:
            lines.append(
                "  p_%d: process begin wait on c_%d; "
                "c_%d <= 1 - c_%d after 1 ns; end process;"
                % (i, i, j, j))
    lines.append("end rtl;")
    return "\n".join(lines)


def inverter_ring_source(n, cut=False):
    """A ``n``-cell combinational inverter ring as VHDL source (top
    ``ring_top``): one strongly connected component through every
    cell.  ``cut`` drops the wrap-around assignment, which turns the
    ring into an ``n - 1``-level acyclic chain."""
    decls = ";\n  ".join("signal c%d : bit := '0'" % i
                         for i in range(n))
    stmts = "\n  ".join(
        "a%d : c%d <= not c%d;" % (i, i, (i - 1) % n)
        for i in range(1 if cut else 0, n))
    return ("entity ring_top is end ring_top;\n"
            "architecture a of ring_top is\n  %s;\nbegin\n  %s\n"
            "end a;\n" % (decls, stmts))


def serve_request(port, method, path, body=None):
    """One JSON request to a local ``repro serve``: (status, reply)."""
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def median_cost(measure, runs=15):
    """:func:`normalized_cost` as the median of ``runs`` interleaved
    one-repeat runs, each timing its calibration loop next to its
    measurement: ``(ratio, seconds, calibration seconds, result)`` of
    the median run.  One run's ratio moves with the load of a shared
    host; the median of several does not."""
    samples = sorted((normalized_cost(measure, repeats=1)
                      for _ in range(runs)), key=lambda s: s[0])
    return samples[len(samples) // 2]


def clear_program_cache():
    """Forget every specialized program, so the next
    ``CompiledKernel.compile_design`` pays codegen cold."""
    from repro.sim.compiled import _PROGRAM_CACHE

    _PROGRAM_CACHE.clear()


def _unlabeled(registry):
    """The registry's metric families without labeled series: the
    gate reads only ``values``, and per-signal or per-rule series would
    make a committed baseline thousands of samples wide."""
    return {
        name: fam
        for name, fam in registry.snapshot()["metrics"].items()
        if not any(s.get("labels") for s in fam["samples"])
    }


# -- scenarios ---------------------------------------------------------------

SIM_UNTIL_FS = 1000 * NS  # 1 us: 200 clock edges


def scenario_simulation():
    """Compile a small pipeline once, run the kernel, measure."""
    from repro.sim import Kernel
    from repro.vhdl.elaborate import Elaborator

    library = compile_library(pipeline_source())

    def measure():
        registry = MetricsRegistry()
        kernel = Kernel(metrics=registry)
        sim = Elaborator(library, kernel=kernel).elaborate(PIPELINE_TOP)
        sim.run(until_fs=SIM_UNTIL_FS)
        return registry, kernel

    ratio, best, calib, (registry, kernel) = normalized_cost(measure)
    bridge_kernel(registry, kernel)
    values = {
        "cycles": kernel.cycles,
        "delta_cycles": kernel.delta_cycles,
        "signal_events": sum(s.events for s in kernel.signals),
        "signal_transactions": sum(
            s.transactions for s in kernel.signals),
        "process_resumes": sum(p.resumes for p in kernel.processes),
        "normalized_cost": round(ratio, 4),
    }
    checks = {key: "exact" for key in values}
    checks["normalized_cost"] = "max"
    timings = {"run_s": round(best, 6),
               "calibration_s": round(calib, 6)}
    return envelope("bench", bench="simulation", values=values,
                    checks=checks, timings=timings,
                    metrics=registry.snapshot()["metrics"])


INC_PKG = """
    package pkg0 is
      constant width : integer := 8;
      function clamp(x : integer) return integer;
    end pkg0;
    package body pkg0 is
      function clamp(x : integer) return integer is
      begin
        if x > 255 then return 255; end if;
        return x;
      end clamp;
    end pkg0;
"""

INC_UNIT = """
    use work.pkg0.all;
    entity unit%(i)d is end unit%(i)d;
    architecture rtl of unit%(i)d is
      signal acc : integer := 0;
      signal tick : bit := '0';
    begin
      clock : process
      begin
        tick <= not tick after 10 ns;
        wait on tick;
      end process;
      count : process (tick)
      begin
        acc <= clamp(acc + %(i)d + 1);
      end process;
    end rtl;
"""


def scenario_incremental():
    """Cold vs warm incremental build of a small package+units
    project; warm must do zero AG evaluations."""
    from repro.build import IncrementalBuilder
    from repro.vhdl.grammar import principal_grammar

    principal_grammar()  # Linguist runs before compiling (paper §2)
    base = tempfile.mkdtemp(prefix="repro-bench-check-")
    try:
        files = [os.path.join(base, "pkg0.vhd")]
        with open(files[0], "w") as f:
            f.write(INC_PKG)
        for i in range(2):
            path = os.path.join(base, "unit%d.vhd" % i)
            with open(path, "w") as f:
                f.write(INC_UNIT % {"i": i})
            files.append(path)
        root = os.path.join(base, "libs")

        def build():
            t0 = time.perf_counter()
            report = IncrementalBuilder(root).build(files)
            dt = time.perf_counter() - t0
            if not report.ok:
                raise RuntimeError("bench-check build failed:\n%s"
                                   % report.summary())
            return dt, report

        def cold_build():
            shutil.rmtree(root, ignore_errors=True)
            return build()

        cold_ratio, _, calib, (cold_s, cold) = normalized_cost(
            cold_build)
        warm_s, warm = build()
        for _ in range(2):  # best-of-3 stabilizes the speedup ratio
            warm_again_s, warm = build()
            warm_s = min(warm_s, warm_again_s)
        registry = MetricsRegistry()
        bridge_build_report(registry, warm)
        values = {
            "files": len(files),
            "cold_ag_evaluations": cold.stats.get(
                "ag_evaluations", 0),
            "warm_ag_evaluations": warm.stats.get(
                "ag_evaluations", 0),
            "warm_cache_hits": warm.stats.get("hits", 0),
            "warm_speedup": round(cold_s / max(warm_s, 1e-9), 1),
            "normalized_cold_cost": round(cold_ratio, 4),
        }
        checks = {key: "exact" for key in values}
        checks["warm_speedup"] = "min"
        checks["normalized_cold_cost"] = "max"
        timings = {"cold_s": round(cold_s, 6),
                   "warm_s": round(warm_s, 6),
                   "calibration_s": round(calib, 6)}
        return envelope("bench", bench="incremental", values=values,
                        checks=checks, timings=timings,
                        metrics=registry.snapshot()["metrics"])
    finally:
        shutil.rmtree(base, ignore_errors=True)


LINT_DEFECTS = """
    entity lint_mix is end lint_mix;
    architecture a of lint_mix is
      signal a1 : bit := '0';
      signal b1 : bit := '0';
      signal y1 : bit := '0';
      signal unused : bit := '0';
    begin
      comb : process (a1)           -- RPL001: reads b1, not listed
      begin
        y1 <= a1 and b1;
      end process;
      stim : process
      begin
        a1 <= '1' after 1 ns;
        b1 <= '1' after 2 ns;
        wait;
      end process;
      mon : process (y1)
      begin
        assert y1 = '0' or y1 = '1';
      end process;
    end a;
"""


def scenario_lint():
    """Compile the simulation pipeline plus a seeded-defect unit,
    then measure a full-library lint pass.  Finding counts are
    deterministic (``exact``); the pass cost is normalized."""
    from repro.analysis import LintEngine

    library = compile_library(pipeline_source() + LINT_DEFECTS)

    def measure():
        registry = MetricsRegistry()
        engine = LintEngine(library=library, metrics=registry)
        return registry, engine.lint_library()

    ratio, best, calib, (registry, findings) = normalized_cost(
        measure)
    by_rule = {}
    for diag in findings:
        by_rule[diag.code] = by_rule.get(diag.code, 0) + 1
    values = {
        "units_checked": len(library._units),
        "findings_total": len(findings),
        "findings_rpl001": by_rule.get("RPL001", 0),
        "findings_rpl003": by_rule.get("RPL003", 0),
        "normalized_cost": round(ratio, 4),
    }
    checks = {key: "exact" for key in values}
    checks["normalized_cost"] = "max"
    timings = {"run_s": round(best, 6),
               "calibration_s": round(calib, 6)}
    return envelope("bench", bench="lint", values=values,
                    checks=checks, timings=timings,
                    metrics=registry.snapshot()["metrics"])


RING_CELLS = 1500
RING_TOKENS = 15  # 1% of cells active per timestep
RING_WINDOW_FS = 150 * NS  # 150 timesteps
#: Window for the compiled-backend axis of ``kernel_scaling`` — long
#: enough that the run phase dominates elaboration noise.
RING_COMPILED_WINDOW_FS = 1000 * NS  # 1000 timesteps


def scenario_kernel_scaling():
    """The activity-driven scheduler's gate: on a ~1%-active design
    the calendar kernel must stay >= 5x faster than the full-scan
    reference (``min`` check), with byte-identical semantics
    (``exact`` counters) and a normalized absolute cost ceiling.

    The backend axis rides along: the same ring as VHDL source, run
    through the event kernel and the compiled backend — identical
    counters (``exact``) and a ``min``-gated speedup, with cold
    codegen reported separately in ``timings`` so the amortized
    compile time cannot flatter the ratio."""
    from repro.sim import CompiledKernel, Kernel, ScanKernel
    from repro.vhdl.elaborate import Elaborator


    def run_only(kernel_cls, repeats):
        best = None
        kernel = None
        for _ in range(repeats):
            k = build_ring(kernel_cls, RING_CELLS, RING_TOKENS)
            k.initialize()
            t0 = time.perf_counter()
            k.run(until=RING_WINDOW_FS)
            dt = time.perf_counter() - t0
            if best is None or dt < best:
                best, kernel = dt, k
        return best, kernel

    cal_s, cal = run_only(Kernel, repeats=3)
    scan_s, scan = run_only(ScanKernel, repeats=2)
    if scan.cycles != cal.cycles or [s.value for s in scan.signals] \
            != [s.value for s in cal.signals]:
        raise RuntimeError(
            "calendar and scan kernels diverged on the ring workload")

    def measure():
        k = build_ring(Kernel, RING_CELLS, RING_TOKENS)
        k.run(until=RING_WINDOW_FS)
        return k

    ratio, best, calib, kernel = normalized_cost(measure)

    # -- the backend axis: event vs compiled on the VHDL ring --------
    library = compile_library(ring_vhdl(RING_CELLS, RING_TOKENS),
                              filename="ring.vhd")

    def vhdl_run(kernel_cls, repeats, compiled=False):
        best_dt = None
        best_k = None
        codegen_s = 0.0
        for _ in range(repeats):
            k = kernel_cls()
            sim = Elaborator(library, kernel=k).elaborate("ring")
            if compiled:
                t0 = time.perf_counter()
                k.compile_design(sim.records)
                codegen_s = max(codegen_s,
                                time.perf_counter() - t0)
            k.initialize()
            t0 = time.perf_counter()
            k.run(until=RING_COMPILED_WINDOW_FS)
            dt = time.perf_counter() - t0
            if best_dt is None or dt < best_dt:
                best_dt, best_k = dt, k
        return best_dt, best_k, codegen_s

    clear_program_cache()  # the first repeat pays codegen cold
    event_s, k_ev, _ = vhdl_run(Kernel, repeats=3)
    comp_s, k_co, codegen_cold_s = vhdl_run(
        CompiledKernel, repeats=3, compiled=True)
    if (k_ev.cycles, k_ev.delta_cycles) != \
            (k_co.cycles, k_co.delta_cycles) \
            or [s.value for s in k_ev.signals] != \
            [s.value for s in k_co.signals] \
            or [p.resumes for p in k_ev.processes] != \
            [p.resumes for p in k_co.processes]:
        raise RuntimeError(
            "event and compiled backends diverged on the ring")

    registry = MetricsRegistry()
    bridge_kernel(registry, kernel)
    values = {
        "cells": RING_CELLS,
        "tokens": RING_TOKENS,
        "cycles": kernel.cycles,
        "delta_cycles": kernel.delta_cycles,
        "process_resumes": sum(
            p.resumes for p in kernel.processes),
        "signal_events": sum(s.events for s in kernel.signals),
        "fanout_visits": kernel.fanout_visits,
        "speedup_vs_scan": round(scan_s / cal_s, 1),
        "normalized_cost": round(ratio, 4),
        "compiled_cycles": k_co.cycles,
        "compiled_procs": k_co.compiled_procs,
        "compiled_slot_signals": k_co.slot_signals,
        "compiled_speedup_vs_event": round(event_s / comp_s, 2),
    }
    checks = {key: "exact" for key in values}
    checks["speedup_vs_scan"] = "min"
    checks["normalized_cost"] = "max"
    checks["compiled_speedup_vs_event"] = "min"
    timings = {"calendar_s": round(cal_s, 6),
               "scan_s": round(scan_s, 6),
               "run_s": round(best, 6),
               "calibration_s": round(calib, 6),
               "codegen_cold_s": round(codegen_cold_s, 6),
               "event_vhdl_s": round(event_s, 6),
               "compiled_s": round(comp_s, 6)}
    return envelope("bench", bench="kernel_scaling", values=values,
                    checks=checks, timings=timings,
                    metrics=_unlabeled(registry))


COMPILED_CELLS = 400
COMPILED_TOKENS = 8  # 2% of cells active per timestep
COMPILED_WINDOW_FS = 2000 * NS  # 2000 timesteps


def scenario_compiled_codegen():
    """The cold half of the compiled backend's cost: with the program
    cache cleared every repeat, elaborate the ring and specialize it.
    The normalized cost pins the whole cold flow (``max``); structure
    counters are ``exact`` — every process must compile, every signal
    must get slot storage, and the ring's identical cells must share
    one process shape, or the specializer regressed.  The cost is the
    median of interleaved runs (:func:`median_cost`)."""
    from repro.sim import CompiledKernel
    from repro.sim.compiled import _PROGRAM_CACHE
    from repro.vhdl.elaborate import Elaborator

    library = compile_library(
        ring_vhdl(COMPILED_CELLS, COMPILED_TOKENS), filename="ring.vhd")

    def measure():
        clear_program_cache()
        kernel = CompiledKernel()
        sim = Elaborator(library, kernel=kernel).elaborate("ring")
        kernel.compile_design(sim.records)
        return kernel

    ratio, best, calib, kernel = median_cost(measure)
    values = {
        "cells": COMPILED_CELLS,
        "compiled_procs": kernel.compiled_procs,
        "slot_signals": kernel.slot_signals,
        "shapes": kernel.program.stats["shapes"],
        "programs_cached": len(_PROGRAM_CACHE),
        "normalized_cost": round(ratio, 4),
    }
    checks = {key: "exact" for key in values}
    checks["normalized_cost"] = "max"
    timings = {"cold_s": round(best, 6),
               "codegen_s": round(kernel.codegen_seconds, 6),
               "calibration_s": round(calib, 6)}
    return envelope("bench", bench="compiled_codegen", values=values,
                    checks=checks, timings=timings, metrics={})


def scenario_compiled_warm():
    """The warm half: with the program cache primed, each repeat is
    elaborate + fingerprint-hit bind + run — the steady-state cost of
    a repeat simulation, gated separately from codegen so neither can
    hide behind the other.  Semantics counters are ``exact``, and
    ``programs_cached`` staying at 1 across repeats proves the design
    fingerprint is stable (a drifting fingerprint would grow the
    cache and silently re-pay codegen)."""
    from repro.sim import CompiledKernel
    from repro.sim.compiled import _PROGRAM_CACHE
    from repro.vhdl.elaborate import Elaborator

    library = compile_library(
        ring_vhdl(COMPILED_CELLS, COMPILED_TOKENS), filename="ring.vhd")
    clear_program_cache()

    def measure():
        kernel = CompiledKernel()
        sim = Elaborator(library, kernel=kernel).elaborate("ring")
        kernel.compile_design(sim.records)
        kernel.run(until=COMPILED_WINDOW_FS)
        return kernel

    measure()  # prime the cache: every timed repeat binds warm
    ratio, best, calib, kernel = normalized_cost(measure, repeats=3)
    registry = MetricsRegistry()
    bridge_kernel(registry, kernel)
    values = {
        "cells": COMPILED_CELLS,
        "tokens": COMPILED_TOKENS,
        "cycles": kernel.cycles,
        "delta_cycles": kernel.delta_cycles,
        "process_resumes": sum(
            p.resumes for p in kernel.processes),
        "signal_events": sum(s.events for s in kernel.signals),
        "levelized_evals": kernel.levelized_evals,
        "compiled_procs": kernel.compiled_procs,
        "slot_signals": kernel.slot_signals,
        "programs_cached": len(_PROGRAM_CACHE),
        "normalized_cost": round(ratio, 4),
    }
    checks = {key: "exact" for key in values}
    checks["normalized_cost"] = "max"
    timings = {"warm_s": round(best, 6),
               "bind_s": round(kernel.codegen_seconds, 6),
               "calibration_s": round(calib, 6)}
    return envelope("bench", bench="compiled_warm", values=values,
                    checks=checks, timings=timings,
                    metrics=_unlabeled(registry))


ANALYSIS_CELLS = 2000


def scenario_analysis():
    """The elaborated-design analyzer's gate: flatten a 2000-cell
    combinational ring and find its single giant SCC, then levelize
    the cut (acyclic) variant.  Structure counters are ``exact`` —
    the ring has exactly one loop of exactly 2000 signals, and the
    chain levelizes to exactly 1999 levels — and the analysis cost
    (netlist build + SCC + rules) is normalized (``max``)."""
    from repro.analysis import (
        LintEngine,
        build_netlist,
        combinational_loops,
        levelize,
    )
    from repro.vhdl.elaborate import Elaborator

    ring = compile_library(inverter_ring_source(ANALYSIS_CELLS))
    chain = compile_library(
        inverter_ring_source(ANALYSIS_CELLS, cut=True))
    ring_sim = Elaborator(ring).elaborate("ring_top")
    chain_sim = Elaborator(chain).elaborate("ring_top")

    def measure():
        registry = MetricsRegistry()
        graph = build_netlist(ring_sim.records)
        loops = combinational_loops(graph)
        findings = LintEngine(library=ring,
                              metrics=registry).lint_design(graph)
        chain_graph = build_netlist(chain_sim.records)
        levels, order, cyclic = levelize(chain_graph)
        return registry, graph, loops, findings, levels, order, \
            cyclic

    ratio, best, calib, (registry, graph, loops, findings, levels,
                         order, cyclic) = normalized_cost(measure)
    by_rule = {}
    for diag in findings:
        by_rule[diag.code] = by_rule.get(diag.code, 0) + 1
    values = {
        "cells": ANALYSIS_CELLS,
        "graph_signals": len(graph.signals),
        "graph_processes": len(graph.processes),
        "comb_edges": sum(1 for _ in graph.comb_edges()),
        "loops_found": len(loops),
        "loop_signals": len(loops[0][0]) if loops else 0,
        "findings_rpe001": by_rule.get("RPE001", 0),
        "findings_rpe004": by_rule.get("RPE004", 0),
        "chain_levels": max(levels.values()) if levels else 0,
        "chain_eval_order": len(order),
        "chain_cyclic": len(cyclic),
        "normalized_cost": round(ratio, 4),
    }
    checks = {key: "exact" for key in values}
    checks["normalized_cost"] = "max"
    timings = {"run_s": round(best, 6),
               "calibration_s": round(calib, 6)}
    return envelope("bench", bench="analysis", values=values,
                    checks=checks, timings=timings,
                    metrics=_unlabeled(registry))


SERVE_SESSIONS = 3
SERVE_SIMS_PER_SESSION = 3
SERVE_UNTIL_FS = 250 * NS  # 250 ns of the gate_top pipeline


def scenario_serve():
    """Boot the ``repro serve`` daemon on a private port, prime a few
    sessions with the simulation pipeline, then gate on a concurrent
    burst of ``/sim`` requests: per-request results are deterministic
    (``exact`` cycle counters, zero failures) and the burst cost is
    normalized (``max``)."""
    from repro.serve import BackgroundServer

    sids = ["bench%d" % i for i in range(SERVE_SESSIONS)]
    burst = [(sid, n) for sid in sids
             for n in range(SERVE_SIMS_PER_SESSION)]

    with BackgroundServer(workers=2, batch_window=0.005) as server:
        port = server.port
        for sid in sids:
            status, data = serve_request(
                port, "POST", "/compile",
                {"session": sid,
                 "files": [{"name": "pipe.vhd",
                            "text": pipeline_source()}]})
            if status != 200 or not data.get("ok"):
                raise RuntimeError("bench-check serve prime failed: "
                                   "%s" % (data,))

        def measure():
            latencies = []

            def one(job):
                sid, _ = job
                t0 = time.perf_counter()
                status, data = serve_request(
                    port, "POST", "/sim",
                    {"session": sid, "top": PIPELINE_TOP,
                     "until": "%dfs" % SERVE_UNTIL_FS})
                latencies.append(time.perf_counter() - t0)
                return status, data
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(one, burst))
            return results, sorted(latencies)

        ratio, best, calib, (results, latencies) = normalized_cost(
            measure, repeats=3)

    failures = sum(1 for status, data in results
                   if status != 200 or not data.get("ok"))
    cycles = sorted({data.get("cycles") for _, data in results})
    n = len(latencies)
    p50 = latencies[n // 2]
    p95 = latencies[min(n - 1, (n * 95) // 100)]
    values = {
        "sessions": SERVE_SESSIONS,
        "requests": len(burst),
        "failures": failures,
        # Every request simulates the same design to the same time,
        # so the kernels must agree bit-for-bit across sessions.
        "distinct_cycle_counts": len(cycles),
        "cycles": cycles[0] if cycles else 0,
        "normalized_cost": round(ratio, 4),
    }
    checks = {key: "exact" for key in values}
    checks["normalized_cost"] = "max"
    timings = {
        "run_s": round(best, 6),
        "calibration_s": round(calib, 6),
        "rps": round(len(burst) / best, 1),
        "p50_ms": round(p50 * 1e3, 3),
        "p95_ms": round(p95 * 1e3, 3),
    }
    return envelope("bench", bench="serve", values=values,
                    checks=checks, timings=timings, metrics={})


FUZZ_SEED = 7
FUZZ_BUDGET = 15


def scenario_fuzz():
    """The generative conformance harness's gate: a fixed-seed sweep
    must be *deterministic* (``exact`` outcome counts, zero
    divergences/crashes, exact total design size — any drift means
    the generator or an oracle input changed semantics) and its
    normalized cost must not regress (``max``)."""
    from repro.gen.runner import run_sweep


    def measure():
        registry = MetricsRegistry()
        return run_sweep(FUZZ_SEED, FUZZ_BUDGET, jobs=1,
                         shrink_failures=False, metrics=registry), \
            registry

    ratio, best, calib, (report, registry) = normalized_cost(
        measure, repeats=3)
    values = {
        "seed": FUZZ_SEED,
        "budget": FUZZ_BUDGET,
        "ok": report.counts.get("ok", 0),
        "rejected": report.counts.get("rejected", 0),
        "sim_error": report.counts.get("sim_error", 0),
        "divergences": report.counts.get("divergence", 0),
        "crashes": report.counts.get("crash", 0),
        "total_lines": sum(r["lines"] for r in report.records),
        "designs_per_second": round(
            FUZZ_BUDGET / max(best, 1e-9), 1),
        "normalized_cost": round(ratio, 4),
    }
    checks = {key: "exact" for key in values}
    checks["designs_per_second"] = "min"
    checks["normalized_cost"] = "max"
    timings = {"sweep_s": round(best, 6),
               "calibration_s": round(calib, 6)}
    metrics = {
        name: fam
        for name, fam in registry.snapshot()["metrics"].items()
        if name.startswith("fuzz_")
    }
    return envelope("bench", bench="fuzz", values=values,
                    checks=checks, timings=timings, metrics=metrics)


def scenario_trace():
    """The tracing gate.  Two invariants: (a) a kernel constructed
    with the disabled ``NULL_RECORDER`` must cost what it always cost
    — the disabled path is one hoisted bool test per cycle, pinned by
    ``normalized_cost_disabled`` (``max``); (b) with every timestep
    and resume traced (``trace_sample=1``) the span counts are a pure
    function of the design — ``exact`` — and the traced cost is
    pinned loosely (``max``, tracing is allowed to cost something)."""
    from repro.sim import Kernel
    from repro.trace import NULL_RECORDER, SpanContext, SpanRecorder, use
    from repro.vhdl.elaborate import Elaborator

    library = compile_library(pipeline_source())

    def run(trace=NULL_RECORDER):
        kernel = Kernel(trace=trace, trace_sample=1)
        sim = Elaborator(library, kernel=kernel).elaborate(PIPELINE_TOP)
        sim.run(until_fs=SIM_UNTIL_FS)
        return kernel

    ratio_off, best_off, calib, kernel_off = normalized_cost(run)

    def run_traced():
        recorder = SpanRecorder()
        with use(SpanContext()):
            kernel = run(trace=recorder)
        return recorder, kernel

    ratio_on, best_on, _, (recorder, _kernel_on) = normalized_cost(
        run_traced)

    events = recorder.events()
    timesteps = sum(1 for e in events if e.get("name") == "timestep")
    resumes = sum(1 for e in events
                  if e.get("name") == "process_resume")
    roots = sum(1 for e in events
                if e.get("ph") == "X" and not e.get("parent_id"))
    values = {
        "cycles": kernel_off.cycles,
        "span_timesteps": timesteps,
        "span_resumes": resumes,
        "orphan_spans": roots,
        "normalized_cost_disabled": round(ratio_off, 4),
        "normalized_cost_enabled": round(ratio_on, 4),
    }
    checks = {key: "exact" for key in values}
    checks["normalized_cost_disabled"] = "max"
    checks["normalized_cost_enabled"] = "max"
    timings = {"run_disabled_s": round(best_off, 6),
               "run_enabled_s": round(best_on, 6),
               "calibration_s": round(calib, 6)}
    return envelope("bench", bench="trace", values=values,
                    checks=checks, timings=timings)


def scenario_memory():
    """The memory gate: traced peaks of the three phases that
    byte-compile generated code, on the compiled backend's ring.  A
    compile byte-compiles its models after evaluation, elaboration
    again when it loads the model, and a cold ``compile_design`` its
    specialized module after rendering; each peak (``max``) must rest
    on live data only.  Traced bytes do not depend on host speed, so
    they are not calibration-normalized.  ``model_factories``
    (``exact``) counts the process factories in the ring's model: one
    per process shape, whatever the ring's size.
    ``model_bytes`` (``exact``) is the size of the ring's model,
    which keeps its cells as rows: the scenario fails unless the
    model of a 50-cell ring is the same text.
    ``parse_trees_at_model_compile`` (``exact``) counts the parse
    nodes alive, with the cyclic collector off, when the models are
    byte-compiled: 0 means the tree died before.
    ``cyclic_garbage_per_compile`` (``exact``) counts the repro-typed
    objects a full collection frees after one compile run with the
    collector off: 0 means the compiler, its library and every unit
    it holds were freed by reference counting.
    ``trace_ring_mb`` (``max``) is what a full span ring of the serve
    daemon's size holds: a traced event-kernel run of the ring (every
    timestep and resume sampled) and ten compiles wrap it, and it is
    the traced bytes that clearing it frees.  ``trace_ring_spans``
    (``exact``) counts its spans."""
    import gc
    import tracemalloc

    from repro.ag.lr.parser import ParseTree
    from repro.serve.app import TRACE_CAPACITY
    from repro.sim import CompiledKernel, Kernel
    from repro.trace import SpanContext, SpanRecorder, use
    from repro.vhdl import compiler as compiler_mod
    from repro.vhdl.compiler import Compiler
    from repro.vhdl.elaborate import Elaborator

    source = ring_vhdl(COMPILED_CELLS, COMPILED_TOKENS)

    def traced_peak_mb(work):
        gc.collect()
        tracemalloc.start()
        try:
            result = work()
            return result, tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def compile_ring():
        compiler = Compiler()
        compiler.compile(source, filename="ring.vhd")
        return compiler.library

    compile_ring()  # translator generation is not part of the peak
    library, compile_mb = traced_peak_mb(compile_ring)

    Elaborator(library).elaborate("ring")  # imports are not the peak
    clear_program_cache()
    kernel = CompiledKernel()
    sim, elaborate_mb = traced_peak_mb(
        lambda: Elaborator(library, kernel=kernel).elaborate("ring"))
    _, codegen_mb = traced_peak_mb(
        lambda: kernel.compile_design(sim.records))

    live = []
    compile_model = compiler_mod.compile_model

    def counting(*args, **kwargs):
        live.append(sum(1 for obj in gc.get_objects()
                        if type(obj) is ParseTree))
        return compile_model(*args, **kwargs)

    gc.collect()
    gc.disable()
    compiler_mod.compile_model = counting
    try:
        compile_ring()
    finally:
        compiler_mod.compile_model = compile_model
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        cyclic = sum(1 for obj in gc.garbage
                     if type(obj).__module__.startswith("repro."))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()

    ring = SpanRecorder(capacity=TRACE_CAPACITY)
    small = pipeline_source()
    gc.collect()
    tracemalloc.start()
    try:
        with use(SpanContext()):
            event_kernel = Kernel(trace=ring, trace_sample=1)
            Elaborator(library, kernel=event_kernel).elaborate(
                "ring").run(until_fs=COMPILED_WINDOW_FS)
            traced = Compiler(tracer=ring)
            for i in range(10):
                traced.compile(small, filename="p%d.vhd" % i)
        del event_kernel, traced
        gc.collect()
        full = tracemalloc.get_traced_memory()[0]
        ring_spans = len(ring)
        ring.clear()
        gc.collect()  # a full collection empties the free lists
        ring_mb = (full - tracemalloc.get_traced_memory()[0]) / 1e6
    finally:
        tracemalloc.stop()

    model = library.find_architecture("work", "ring", "rtl").py_source
    small_ring = Compiler()
    small_ring.compile(ring_vhdl(50, COMPILED_TOKENS), filename="ring.vhd")
    if small_ring.library.find_architecture(
            "work", "ring", "rtl").py_source != model:
        raise RuntimeError("the model of a 50-cell ring differs from "
                             "that of %d cells" % COMPILED_CELLS)
    values = {
        "cells": COMPILED_CELLS,
        "model_bytes": len(model.encode()),
        "model_factories": len(re.findall(r"^    def _f\d+\(", model,
                                          re.M)),
        "compiled_procs": kernel.compiled_procs,
        "parse_trees_at_model_compile": max(live),
        "cyclic_garbage_per_compile": cyclic,
        "compile_peak_mb": round(compile_mb, 2),
        "elaborate_peak_mb": round(elaborate_mb, 2),
        "codegen_peak_mb": round(codegen_mb, 2),
        "trace_ring_spans": ring_spans,
        "trace_ring_mb": round(ring_mb, 2),
    }
    checks = {key: "exact" for key in values}
    checks["compile_peak_mb"] = "max"
    checks["elaborate_peak_mb"] = "max"
    checks["codegen_peak_mb"] = "max"
    checks["trace_ring_mb"] = "max"
    return envelope("bench", bench="memory", values=values,
                    checks=checks, timings={})


SCENARIOS = {
    "simulation": scenario_simulation,
    "incremental": scenario_incremental,
    "lint": scenario_lint,
    "analysis": scenario_analysis,
    "kernel_scaling": scenario_kernel_scaling,
    "compiled_codegen": scenario_compiled_codegen,
    "compiled_warm": scenario_compiled_warm,
    "serve": scenario_serve,
    "fuzz": scenario_fuzz,
    "trace": scenario_trace,
    "memory": scenario_memory,
}
