"""E3 — §2.2 compile throughput.

"The compiler compiles VHDL at a little more than 1000 lines per
minute on an Apollo DN4000."  Absolute numbers are machine-bound (a
1989 workstation vs CPython today); the reproducible content is that
throughput is roughly linear in source lines and that the front end is
not the bottleneck (E4 carries the breakdown).
"""

from repro.vhdl.compiler import Compiler

from workloads import count_lines, gen_design


def compile_workload(n_units):
    source = gen_design(n_packages=2, n_units=n_units, n_processes=3)
    compiler = Compiler()
    result = compiler.compile(source)
    assert result.ok, result.messages[:3]
    return result


def test_throughput_medium(benchmark):
    result = benchmark(compile_workload, 6)
    lines = result.source_lines
    mean_s = benchmark.stats.stats.mean
    lpm = lines / mean_s * 60
    print()
    print("=== E3 / section 2.2: compile throughput ===")
    print("workload: %d source lines (Figure 2 counting)" % lines)
    print("throughput: %d lines/minute (paper: ~1000 on a DN4000)"
          % lpm)
    benchmark.extra_info["lines"] = lines
    benchmark.extra_info["lines_per_minute"] = round(lpm)
    assert lpm > 1000  # four decades of hardware should beat a DN4000


def test_throughput_scales_linearly(benchmark):
    """Compile time should grow roughly linearly with source size."""
    import time

    def measure():
        points = []
        for n in (2, 4, 8):
            source = gen_design(n_packages=1, n_units=n)
            compiler = Compiler()
            t0 = time.perf_counter()
            result = compiler.compile(source)
            dt = time.perf_counter() - t0
            points.append((result.source_lines, dt))
        return points

    points = benchmark.pedantic(measure, rounds=3, iterations=1)
    print()
    print("=== compile-time scaling ===")
    for lines, dt in points:
        print("  %5d lines  %7.1f ms  (%.0f lines/min)"
              % (lines, dt * 1000, lines / dt * 60))
    # Per-line cost of the largest workload within 3x of the smallest:
    # roughly linear, no grammar-size blowup per unit compiled.
    small = points[0][1] / points[0][0]
    large = points[-1][1] / points[-1][0]
    assert large < small * 3
