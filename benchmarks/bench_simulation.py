"""E10 — simulation-kernel throughput.

The paper's product was a *simulator*: the compiler's output runs on
the four-module virtual machine.  This bench compiles a clocked design
once and measures kernel throughput (simulation cycles per second,
process resumptions, signal events) — the operational sanity check
behind "a complete, tested, production-quality compiler that has
compiled hundreds of thousands of lines of customer's VHDL models".
"""

from repro.vhdl.elaborate import Elaborator

from scenarios import NS, PIPELINE_TOP, compile_library, pipeline_source


def build():
    return compile_library(pipeline_source(stages=4))


def test_simulation_throughput(benchmark):
    library = build()

    def run_window():
        sim = Elaborator(library).elaborate(PIPELINE_TOP)
        sim.run(until_fs=2000 * NS)  # 2 us, 200 clock edges
        return sim

    sim = benchmark(run_window)
    cycles = sim.kernel.cycles
    mean_s = benchmark.stats.stats.mean
    print()
    print("=== E10: simulation kernel throughput ===")
    print("  %d simulation cycles in 2 us of model time"
          % cycles)
    print("  %.0f cycles/second of wall time" % (cycles / mean_s))
    print("  %d signals, %d processes"
          % (len(sim.kernel.signals), len(sim.kernel.processes)))
    benchmark.extra_info["cycles"] = cycles
    benchmark.extra_info["cycles_per_sec"] = round(cycles / mean_s)
    # The pipeline actually pipelines: values advanced through stages.
    assert sim.value("d4") > 0
    assert cycles > 300  # clock edges plus delta cycles


def test_delta_cycle_cost(benchmark):
    """Zero-delay chains: delta-cycle machinery under stress."""
    from repro.sim import Kernel

    def deep_chain():
        k = Kernel()
        sigs = [k.signal("s%d" % i, 0) for i in range(50)]
        rt = k.rt

        def feeder():
            rt.assign(sigs[0], ((1, 0),))
            yield rt.wait([], None, None)

        def stage(i):
            def proc():
                while True:
                    yield rt.wait([sigs[i]])
                    rt.assign(sigs[i + 1], ((rt.read(sigs[i]), 0),))

            return proc

        k.process("feeder", feeder)
        for i in range(len(sigs) - 1):
            k.process("st%d" % i, stage(i))
        k.run()
        return k

    k = benchmark(deep_chain)
    assert k.signals[-1].value == 1
    assert k.now == 0  # everything happened in delta cycles


def test_metrics_overhead(benchmark):
    """Telemetry cost: the same window with a live MetricsRegistry vs
    the null registry.  The disabled path must be effectively free
    (it is the default for every kernel) and the enabled path cheap
    enough to leave on in CI — design target <= 5%, asserted loosely
    so a noisy host cannot flake the suite."""
    import time

    from repro.metrics import NULL_REGISTRY, MetricsRegistry
    from repro.sim import Kernel

    library = build()

    def window(metrics):
        kernel = Kernel(metrics=metrics)
        sim = Elaborator(library, kernel=kernel).elaborate(PIPELINE_TOP)
        sim.run(until_fs=2000 * NS)
        return kernel

    def best_of(metrics_fn, repeats=5):
        best = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            window(metrics_fn())
            dt = time.perf_counter() - t0
            if best is None or dt < best:
                best = dt
        return best

    benchmark(window, NULL_REGISTRY)
    off = best_of(lambda: NULL_REGISTRY)
    on = best_of(MetricsRegistry)
    overhead = on / off - 1.0
    print()
    print("=== metrics overhead (enabled vs null registry) ===")
    print("  disabled %.4fs   enabled %.4fs   overhead %+.1f%%"
          % (off, on, overhead * 100))
    benchmark.extra_info["overhead_pct"] = round(overhead * 100, 1)
    # Design target is <=5%; assert with generous slack for CI noise.
    assert overhead < 0.30, "metrics overhead %.1f%%" % (overhead * 100)
