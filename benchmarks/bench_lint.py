"""Static-lint pass cost over the synthetic workload.

The linter runs post-compile over the VIF (generated models), so its
cost scales with emitted model size, not VHDL surface syntax.  Two
questions matter for the CI gate:

- absolute: how many units/second does a whole-library
  ``LintEngine.lint_library()`` pass sustain on the standard
  multi-unit workload?
- marginal: what does ``build --lint`` add on a *warm* build, where
  every unit is a cache hit and lint is the only real work?

Results are emitted as JSON via ``benchmark.extra_info`` like the
other benches; ``--benchmark-json FILE`` saves them.  The committed
``BENCH_lint.json`` baseline is gated by the ``lint`` scenario in
``scenarios.py``, a different design: the simulation pipeline plus a
unit with seeded defects, so its finding counts are not zero.
"""

import json
import os
import shutil
import time

from repro.analysis import LintEngine
from repro.build import IncrementalBuilder
from repro.vhdl.compiler import Compiler

from workloads import count_lines, gen_entity_arch, gen_package

N_UNITS = 6


def make_sources():
    sources = [("pkg0.vhd", gen_package("pkg0"))]
    for i in range(N_UNITS):
        sources.append(("unit%d.vhd" % i, gen_entity_arch(
            "unit%d" % i, n_processes=4, pkg="pkg0")))
    return sources


def test_lint_library_pass(benchmark):
    sources = make_sources()
    lines = sum(count_lines(text) for _, text in sources)
    compiler = Compiler(strict=False)
    for name, text in sources:
        result = compiler.compile(text, filename=name)
        assert result.ok, result.messages[:3]

    def scenario():
        engine = LintEngine(library=compiler.library)
        return engine.lint_library()

    findings = benchmark.pedantic(scenario, rounds=5, iterations=1)
    units = len(compiler.library._units)
    mean_s = benchmark.stats.stats.mean
    results = {
        "source_lines": lines,
        "units": units,
        "findings": len(findings),
        "units_per_s": round(units / max(mean_s, 1e-9), 1),
        "lint_pass_s": round(mean_s, 4),
    }
    print()
    print("=== lint: whole-library pass ===")
    print(json.dumps(results, indent=2))
    benchmark.extra_info.update(results)
    # The workload is a clean design: zero findings, by construction.
    assert findings == []


def test_lint_overhead_on_warm_build(benchmark, tmp_path):
    base = str(tmp_path)
    files = []
    for name, text in make_sources():
        path = os.path.join(base, name)
        with open(path, "w") as f:
            f.write(text)
        files.append(path)
    root = os.path.join(base, "libs")

    from repro.vhdl.grammar import principal_grammar

    principal_grammar()  # Linguist runs before compiling (paper §2)
    shutil.rmtree(root, ignore_errors=True)
    report = IncrementalBuilder(root).build(files)  # cold, no lint
    assert report.ok, report.summary()

    def warm(lint=None):
        t0 = time.perf_counter()
        rep = IncrementalBuilder(root).build(files, lint=lint)
        dt = time.perf_counter() - t0
        assert rep.ok and rep.stats.get("ag_evaluations", 0) == 0
        return dt, rep

    def scenario():
        plain_s, _ = warm()
        linted_s, rep = warm(lint=LintEngine())
        return plain_s, linted_s, rep

    plain_s, linted_s, rep = benchmark.pedantic(
        scenario, rounds=3, iterations=1)
    results = {
        "files": len(files),
        "warm_s": round(plain_s, 4),
        "warm_lint_s": round(linted_s, 4),
        "lint_overhead_x": round(linted_s / max(plain_s, 1e-9), 2),
        "findings": len(rep.lint_findings),
    }
    print()
    print("=== lint: marginal cost on a warm build ===")
    print(json.dumps(results, indent=2))
    benchmark.extra_info.update(results)
    assert rep.lint_findings == []
