"""Each event is counted in one record, and every view reads it.

A build's AG totals ride on its compiles' ``attribute_evaluation``
spans: fork workers (``--jobs 2``) report the same firings and memo
hits as a serial build, and both equal one in-process compiler over
the same files.  The kernels keep plain counts and never call the
metrics registry while they run: a registry that raises on any use
besides its ``enabled`` flag still lets a timed run finish.
"""

import os
from pathlib import Path

import pytest

from repro.build import IncrementalBuilder
from repro.metrics import MetricsRegistry
from repro.metrics.bridge import bridge_kernel
from repro.request import compile_sources, simulate
from repro.sim import CompiledKernel, Kernel
from repro.trace.analyze import ag_totals
from repro.vhdl.compiler import Compiler

ROOT = Path(__file__).parents[2]
FILES = [str(ROOT / "examples" / "metrics_demo.vhd")] + [
    str(ROOT / "tests" / "gen" / "corpus" / name)
    for name in ("compiled_case_and_loop.vhd", "transport_preemption.vhd",
                 "two_blocks_same_signal.vhd")]


def _build_totals(tmp_path, jobs):
    report = IncrementalBuilder(str(tmp_path / ("lib%d" % jobs)),
                                jobs=jobs).build(FILES)
    assert report.ok
    firings, hits = ag_totals(report.trace_events)
    pids = {e["pid"] for e in report.trace_events
            if e["name"] == "attribute_evaluation"}
    return dict(firings), hits, pids


def test_build_totals_agree_across_jobs_and_in_process(tmp_path):
    serial = _build_totals(tmp_path, 1)
    forked = _build_totals(tmp_path, 2)
    compiler = Compiler()
    for path in FILES:
        assert compiler.compile_file(path).ok
    observer = compiler.observer
    in_process = (observer.grammar_firings, observer.cache_hits)
    assert serial[:2] == forked[:2] == in_process
    assert in_process[0]["vhdl_principal"] > 0
    assert in_process[0]["vhdl_expr"] > 0
    # The serial build compiles in this process, the forked one in
    # its workers.
    assert serial[2] == {os.getpid()}
    if forked[2] != {os.getpid()}:  # fork available
        assert os.getpid() not in forked[2]


def test_each_compile_span_carries_its_share(tmp_path):
    compiler = Compiler()
    shares = []
    for path in FILES[:2]:
        result = compiler.compile_file(path)
        shares.append(ag_totals(result.trace_events))
    firings = shares[0][0] + shares[1][0]
    assert dict(firings) == compiler.observer.grammar_firings
    assert shares[0][1] + shares[1][1] == compiler.observer.cache_hits


class _Tripwire:
    """A metrics registry that is enabled and fails on any use."""

    enabled = True

    def __getattr__(self, name):
        raise AssertionError("the kernel used the registry: %s" % name)


@pytest.mark.parametrize("kernel_cls", [Kernel, CompiledKernel])
def test_a_timed_run_makes_no_registry_call(kernel_cls):
    built = compile_sources([FILES[0]])
    kernel = kernel_cls(metrics=_Tripwire())
    design = simulate(built.library, "metrics_demo", kernel,
                      until_fs=500 * 10**6)
    assert design.sim.ok
    assert kernel.cycles > 0 and kernel.delta_runs
    # Per-process wall clock is the one thing the flag turns on.
    assert any(p.exec_seconds > 0 for p in kernel.processes)
    snap = bridge_kernel(MetricsRegistry(), kernel).snapshot()["metrics"]
    assert snap["sim_cycles_total"]["samples"][0]["value"] == \
        kernel.cycles
    assert snap["sim_process_resumes_total"]["samples"][0]["value"] == \
        sum(p.resumes for p in kernel.processes)
    assert snap["sim_deltas_per_timestep"]["samples"][0]["count"] == \
        sum(kernel.delta_runs.values())
