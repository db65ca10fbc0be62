"""Kernel scaling: per-cycle cost must track the *active* set.

The paper's architecture ends in generated code "linked with a
simulation kernel" (§2), and §5.1 stresses that preemptive signal
assignment makes the kernel — not the compiler — carry the scheduling
burden.  This bench builds the sparse-activity workload the
activity-driven calendar exists for: a ring of ``N_CELLS`` cells (one
signal + one waiting process each) around which ``N_TOKENS`` tokens
circulate — each timestep wakes exactly ``N_TOKENS`` processes and
fires ``N_TOKENS`` transactions while the other ~99% of the design
sits idle.

The calendar kernel's cycle cost is O(active · log heap); the
reference :class:`ScanKernel` (the pre-calendar scheduler) pays
O(N_CELLS) scans per cycle.  Both must produce *identical* semantics —
same cycles, same resumes, same final signal values — the speedup is
pure scheduling.

The ring comes from ``scenarios.py`` (``build_ring`` and, for the
compiled backend, ``ring_vhdl``); the committed
``BENCH_kernel_scaling.json`` baseline gates the same design at 1500
cells and 15 tokens.
"""

import statistics
import time

from repro.sim import CompiledKernel, Kernel, ScanKernel

from scenarios import (
    NS,
    build_ring,
    clear_program_cache,
    compile_library,
    ring_vhdl,
)

N_CELLS = 2000  # signals (and processes) in the design
N_TOKENS = 20  # circulating tokens: ~1% of cells active per timestep
WINDOW_FS = 200 * NS  # 200 timesteps (tokens hop once per ns)

# The compiled-backend axis needs VHDL source (specialization starts
# from the elaborated records), and a longer window so the per-run
# wall clock is dominated by steady-state cycles, not startup noise.
COMPILED_WINDOW_FS = 1000 * NS  # 1000 timesteps


def _timed_run(kernel_cls, repeats):
    """Best-of wall-clock for the run phase only (build+initialize
    excluded — they are identical for both schedulers)."""
    best = None
    kernel = None
    for _ in range(repeats):
        k = build_ring(kernel_cls, N_CELLS, N_TOKENS)
        k.initialize()
        t0 = time.perf_counter()
        k.run(until=WINDOW_FS)
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best, kernel = dt, k
    return best, kernel


def test_kernel_scaling_sparse_activity(benchmark):
    def window():
        k = build_ring(Kernel, N_CELLS, N_TOKENS)
        k.run(until=WINDOW_FS)
        return k

    k_cal = benchmark(window)
    cal_s, k_cal_timed = _timed_run(Kernel, repeats=3)
    scan_s, k_scan = _timed_run(ScanKernel, repeats=2)

    # Identical semantics: the speedup is pure scheduling.
    assert k_scan.cycles == k_cal.cycles == k_cal_timed.cycles
    assert k_scan.delta_cycles == k_cal.delta_cycles == 0
    assert k_scan.now == k_cal.now == WINDOW_FS
    assert [s.value for s in k_scan.signals] == \
        [s.value for s in k_cal.signals]
    assert sum(s.events for s in k_scan.signals) == \
        sum(s.events for s in k_cal.signals)
    assert [p.resumes for p in k_scan.processes] == \
        [p.resumes for p in k_cal.processes]

    speedup = scan_s / cal_s
    active_fraction = N_TOKENS / float(N_CELLS)
    print()
    print("=== kernel scaling: sparse activity "
          "(%d cells, %d tokens = %.1f%% active) ==="
          % (N_CELLS, N_TOKENS, active_fraction * 100))
    print("  %d cycles over %d ns of model time"
          % (k_cal.cycles, WINDOW_FS // NS))
    print("  scan kernel      %.4fs  (O(design) per cycle)" % scan_s)
    print("  calendar kernel  %.4fs  (O(active log heap) per cycle)"
          % cal_s)
    print("  speedup          %.1fx" % speedup)
    print("  calendar peak %d, stale pops %d, fanout visits %d"
          % (k_cal_timed.calendar_peak, k_cal_timed.stale_pops,
             k_cal_timed.fanout_visits))
    benchmark.extra_info["cells"] = N_CELLS
    benchmark.extra_info["tokens"] = N_TOKENS
    benchmark.extra_info["cycles"] = k_cal.cycles
    benchmark.extra_info["speedup_vs_scan"] = round(speedup, 1)
    benchmark.extra_info["scan_s"] = round(scan_s, 6)
    benchmark.extra_info["calendar_s"] = round(cal_s, 6)
    benchmark.extra_info["fanout_visits"] = k_cal_timed.fanout_visits

    # The acceptance bar: the calendar must beat the scan by >= 5x on
    # the 1%-active workload (typically far more).
    assert speedup >= 5.0, "only %.1fx over the scan kernel" % speedup


def test_compiled_backend_speedup(benchmark):
    """The backend axis: on the same 2000-cell 1%-active ring the
    compiled backend must run >= 3x faster than the activity kernel.
    Codegen (cold) is timed separately — the speedup gate compares
    steady-state run phases only, so warm-cache runs stay honest."""
    from repro.vhdl.elaborate import Elaborator

    library = compile_library(ring_vhdl(N_CELLS, N_TOKENS),
                              filename="ring.vhd")

    def specialize(kernel):
        sim = Elaborator(library, kernel=kernel).elaborate("ring")
        t0 = time.perf_counter()
        kernel.compile_design(sim.records)
        return time.perf_counter() - t0

    def timed_run(kernel_cls, repeats, compiled=False):
        best = None
        kernel = None
        codegen_s = 0.0
        for _ in range(repeats):
            k = kernel_cls()
            if compiled:
                codegen_s = specialize(k)
            else:
                Elaborator(library, kernel=k).elaborate("ring")
            k.initialize()
            t0 = time.perf_counter()
            k.run(until=COMPILED_WINDOW_FS)
            dt = time.perf_counter() - t0
            if best is None or dt < best:
                best, kernel = dt, k
        return best, kernel, codegen_s

    # First specialization pays codegen cold; the cache makes the
    # timing repeats warm, which is exactly what we want to measure.
    clear_program_cache()
    cold_kernel = CompiledKernel()
    codegen_cold_s = specialize(cold_kernel)

    event_s, k_ev, _ = timed_run(Kernel, repeats=3)
    comp_s, k_co, _ = timed_run(CompiledKernel, repeats=3,
                                compiled=True)

    # Identical semantics: the speedup is pure dispatch + storage.
    assert k_ev.cycles == k_co.cycles
    assert k_ev.delta_cycles == k_co.delta_cycles == 0
    assert [s.value for s in k_ev.signals] == \
        [s.value for s in k_co.signals]
    assert [s.events for s in k_ev.signals] == \
        [s.events for s in k_co.signals]
    assert [p.resumes for p in k_ev.processes] == \
        [p.resumes for p in k_co.processes]
    assert k_co.compiled_procs == N_CELLS
    assert k_co.slot_signals == N_CELLS

    speedup = event_s / comp_s
    print()
    print("=== backend axis: event vs compiled "
          "(%d cells, %d tokens, %d cycles) ==="
          % (N_CELLS, N_TOKENS, k_ev.cycles))
    print("  codegen (cold)   %.4fs  (once per design fingerprint)"
          % codegen_cold_s)
    print("  event kernel     %.4fs" % event_s)
    print("  compiled kernel  %.4fs  (%d procs, %d slot signals)"
          % (comp_s, k_co.compiled_procs, k_co.slot_signals))
    print("  speedup          %.2fx" % speedup)
    benchmark.extra_info["backend_cells"] = N_CELLS
    benchmark.extra_info["backend_tokens"] = N_TOKENS
    benchmark.extra_info["codegen_cold_s"] = round(codegen_cold_s, 6)
    benchmark.extra_info["event_s"] = round(event_s, 6)
    benchmark.extra_info["compiled_s"] = round(comp_s, 6)
    benchmark.extra_info["speedup_vs_event"] = round(speedup, 2)
    benchmark.extra_info["compiled_procs"] = k_co.compiled_procs
    benchmark.extra_info["slot_signals"] = k_co.slot_signals

    def window():
        # Warm window: the fingerprint cache hit makes
        # ``compile_design`` a bind, so this measures elaborate +
        # bind + run — the steady-state cost of a repeat simulation.
        k = CompiledKernel()
        sim = Elaborator(library, kernel=k).elaborate("ring")
        k.compile_design(sim.records)
        k.run(until=COMPILED_WINDOW_FS)
        return k

    benchmark(window)

    # The acceptance bar: >= 3x over the activity kernel on the
    # 1%-active ring, run phase only (codegen reported separately).
    assert speedup >= 3.0, "only %.2fx over the event kernel" % speedup


def test_cycle_cost_tracks_active_set(benchmark):
    """Doubling the *design* at fixed activity must leave the
    calendar kernel's run time roughly flat (cost follows the active
    set, not design size)."""

    def run_sized(n):
        k = build_ring(Kernel, n, N_TOKENS)
        k.initialize()
        t0 = time.perf_counter()
        k.run(until=WINDOW_FS)
        return time.perf_counter() - t0, k

    # Each size's time is the median of interleaved runs that
    # alternate which size runs first, so host load shared by a pair
    # cancels out of the ratio.
    runs = {N_CELLS: [], 2 * N_CELLS: []}
    for i in range(7):
        for n in sorted(runs, reverse=i % 2 == 1):
            runs[n].append(run_sized(n))
    small_s, k_small = (statistics.median(t for t, _ in runs[N_CELLS]),
                        runs[N_CELLS][0][1])
    large_s, k_large = (statistics.median(t for t, _ in runs[2 * N_CELLS]),
                        runs[2 * N_CELLS][0][1])
    # Same activity -> same resumes after initialization.
    init_small = len(k_small.processes)
    init_large = len(k_large.processes)
    assert sum(p.resumes for p in k_small.processes) - init_small == \
        sum(p.resumes for p in k_large.processes) - init_large

    ratio = large_s / small_s
    print()
    print("=== O(active) check: 2x design, fixed activity ===")
    print("  %d cells: %.4fs   %d cells: %.4fs   ratio %.2fx"
          % (N_CELLS, small_s, 2 * N_CELLS, large_s, ratio))
    benchmark.extra_info["cost_ratio_2x_design"] = round(ratio, 2)

    def window():
        k = build_ring(Kernel, 2 * N_CELLS, N_TOKENS)
        k.run(until=WINDOW_FS)
        return k

    benchmark(window)
    # A full-scan kernel would double; allow generous noise headroom.
    assert ratio < 1.7, "per-cycle cost grew with design size"
