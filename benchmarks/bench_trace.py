"""Tracing cost: the kernel with span tracing disabled vs enabled.

The causal-tracing layer (``repro.trace``) instruments the hottest
loop in the system — the simulation kernel's run loop — so its
disabled path must be indistinguishable from no instrumentation at
all: one hoisted bool test per cycle, one attribute test per process
resume.  Design target <=2% overhead with the disabled
``NULL_RECORDER`` (the default for every kernel); asserted loosely so
a noisy CI host cannot flake the suite.  The deterministic span-count and connectivity invariants
are pinned exactly (they cannot flake).
"""

import time

from repro.trace import NULL_RECORDER
from repro.vhdl.elaborate import Elaborator

from scenarios import NS, PIPELINE_TOP, compile_library, pipeline_source


def build():
    return compile_library(pipeline_source())


def window(library, trace=NULL_RECORDER, trace_sample=1):
    from repro.sim import Kernel

    kernel = Kernel(trace=trace, trace_sample=trace_sample)
    sim = Elaborator(library, kernel=kernel).elaborate(PIPELINE_TOP)
    sim.run(until_fs=2000 * NS)
    return kernel


def test_disabled_tracing_overhead(benchmark):
    """NULL_RECORDER must cost nothing measurable (<=2% design
    target)."""
    from repro.trace import SpanContext, SpanRecorder, use

    library = build()
    benchmark(window, library)

    def best_of(run, repeats=7):
        best = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            run()
            dt = time.perf_counter() - t0
            if best is None or dt < best:
                best = dt
        return best

    off = best_of(lambda: window(library))

    def traced():
        with use(SpanContext()):
            window(library, trace=SpanRecorder())

    on = best_of(traced)
    overhead = on / off - 1.0
    print()
    print("=== tracing overhead (kernel run loop) ===")
    print("  disabled %.4fs   per-cycle spans %.4fs   "
          "enabled-vs-disabled %+.1f%%" % (off, on, overhead * 100))
    benchmark.extra_info["disabled_s"] = round(off, 6)
    benchmark.extra_info["enabled_s"] = round(on, 6)
    benchmark.extra_info["enabled_overhead_pct"] = round(
        overhead * 100, 1)
    # The committed gate for the <=2% disabled-path target is the
    # bench-check 'trace' scenario (normalized_cost_disabled pins the
    # same number the untraced simulation scenario always had).  Here
    # we only assert the *enabled* path stays sane: full per-cycle
    # span recording may cost real time, but not an order of
    # magnitude.
    assert overhead < 9.0, "tracing overhead %.1f%%" % (overhead * 100)


def test_sampled_tracing_is_cheap(benchmark):
    """A 1-in-100 sample (the serve default) is near the noise floor."""
    from repro.trace import SpanContext, SpanRecorder, use

    library = build()
    tracers = []

    def sampled():
        tracer = SpanRecorder()
        tracers.append(tracer)
        with use(SpanContext()):
            return window(library, trace=tracer, trace_sample=100)

    kernel = benchmark(sampled)
    spans = [e for e in tracers[-1].events() if e["ph"] == "X"]
    # ~1/100th of the cycles + resumes, never zero (cycle 0 records).
    assert spans
    total_resumes = sum(p.resumes for p in kernel.processes)
    bound = (kernel.cycles // 100 + 1) + (total_resumes // 100 + 1)
    assert len(spans) <= bound, (len(spans), bound)
    benchmark.extra_info["sampled_spans"] = len(spans)


def test_enabled_spans_form_one_tree():
    """Every per-cycle span parents into the activated root context."""
    from repro.trace import SpanContext, SpanRecorder, use

    library = build()
    tracer = SpanRecorder()
    root = SpanContext()
    with use(root):
        kernel = window(library, trace=tracer, trace_sample=1)

    spans = [e for e in tracer.events() if e["ph"] == "X"]
    timesteps = [e for e in spans if e["name"] == "timestep"]
    resumes = [e for e in spans if e["name"] == "process_resume"]
    assert len(timesteps) == kernel.cycles
    total_resumes = sum(p.resumes for p in kernel.processes)
    assert len(resumes) == total_resumes
    ids = {e["span_id"] for e in spans}
    for event in spans:
        assert event["trace_id"] == root.trace_id
        # Parent is another recorded span or the root context itself.
        assert (event["parent_id"] in ids
                or event["parent_id"] == root.span_id)
