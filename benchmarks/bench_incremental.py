"""Incremental build: cold vs. warm vs. one-file-touched.

The paper's separate-compilation libraries (§2) make skip-unchanged
work possible; this bench quantifies it on the multi-unit workload.
The acceptance bar: a warm no-change rebuild performs zero AG
evaluations and is at least 5x faster than the cold build, and a
``--jobs N`` parallel cold build of the independent files is no
slower than serial (it only *wins* wall-clock when the host actually
has more than one CPU — workers are fork-based Python processes).

Results are emitted as JSON via ``benchmark.extra_info`` like the
other benches.
"""

import json
import os
import shutil
import statistics
import time

from repro.build import IncrementalBuilder

from workloads import count_lines, gen_entity_arch, gen_package

N_UNITS = 6

#: Serial/parallel pairs of :func:`test_parallel_vs_serial`; the pairs
#: alternate which side builds first, and each side is the median.
PAIRS = 7


def make_project(base):
    src = os.path.join(base, "src")
    os.makedirs(src, exist_ok=True)
    files = []
    path = os.path.join(src, "pkg0.vhd")
    with open(path, "w") as f:
        f.write(gen_package("pkg0"))
    files.append(path)
    for i in range(N_UNITS):
        path = os.path.join(src, "unit%d.vhd" % i)
        with open(path, "w") as f:
            f.write(gen_entity_arch(
                "unit%d" % i, n_processes=4, pkg="pkg0"))
        files.append(path)
    return files


def timed_build(root, files, jobs=1, force=False):
    t0 = time.perf_counter()
    report = IncrementalBuilder(root, jobs=jobs).build(
        files, force=force)
    dt = time.perf_counter() - t0
    assert report.ok, report.summary()
    return dt, report


def test_incremental_speedup(benchmark, tmp_path):
    base = str(tmp_path)
    files = make_project(base)
    lines = sum(count_lines(open(f).read()) for f in files)
    root = os.path.join(base, "libs")

    # Warm the generated grammar once so "cold" measures compilation,
    # not the Linguist run (the paper runs Linguist before compiling).
    from repro.vhdl.grammar import principal_grammar

    principal_grammar()

    def scenario():
        shutil.rmtree(root, ignore_errors=True)
        cold, cold_rep = timed_build(root, files)
        warm, warm_rep = timed_build(root, files)
        assert warm_rep.stats["ag_evaluations"] == 0, \
            warm_rep.summary()
        # Touch one leaf unit (a real edit, not just layout).
        with open(files[1]) as f:
            text = f.read()
        with open(files[1], "w") as f:
            f.write(text.replace(
                "signal acc : integer := 0;",
                "signal acc : integer := 1;"))
        touched, touch_rep = timed_build(root, files)
        assert len(touch_rep.paths("compiled")) == 1, \
            touch_rep.summary()
        with open(files[1], "w") as f:
            f.write(text)  # restore for the next round
        return cold, warm, touched

    cold, warm, touched = benchmark.pedantic(
        scenario, rounds=3, iterations=1)

    speedup_warm = cold / warm
    speedup_touch = cold / touched
    results = {
        "source_lines": lines,
        "files": len(files),
        "cold_s": round(cold, 4),
        "warm_s": round(warm, 4),
        "one_file_touched_s": round(touched, 4),
        "warm_speedup": round(speedup_warm, 1),
        "touch_speedup": round(speedup_touch, 1),
    }
    print()
    print("=== incremental build: cold vs warm vs 1-file-touched ===")
    print(json.dumps(results, indent=2))
    benchmark.extra_info.update(results)
    assert speedup_warm >= 5.0, (
        "warm no-change rebuild only %.1fx faster than cold"
        % speedup_warm)
    assert speedup_touch > 1.0


def test_parallel_vs_serial(benchmark, tmp_path):
    base = str(tmp_path)
    files = make_project(base)

    from repro.vhdl.grammar import principal_grammar

    principal_grammar()

    def pair(serial_first):
        ser_root = os.path.join(base, "ser")
        par_root = os.path.join(base, "par")
        shutil.rmtree(ser_root, ignore_errors=True)
        shutil.rmtree(par_root, ignore_errors=True)
        if serial_first:
            serial, _ = timed_build(ser_root, files, jobs=1)
        parallel, rep = timed_build(par_root, files, jobs=4)
        if not serial_first:
            serial, _ = timed_build(ser_root, files, jobs=1)
        # identical library contents regardless of jobs
        for lib in ("work",):
            a = sorted(os.listdir(os.path.join(ser_root, lib)))
            b = sorted(os.listdir(os.path.join(par_root, lib)))
            assert a == b
            for name in a:
                with open(os.path.join(ser_root, lib, name), "rb") as f:
                    sa = f.read()
                with open(os.path.join(par_root, lib, name), "rb") as f:
                    sb = f.read()
                assert sa == sb, "artifact %s differs" % name
        return serial, parallel

    def scenario():
        samples = [pair(i % 2 == 0) for i in range(PAIRS)]
        return (statistics.median(s for s, _ in samples),
                statistics.median(p for _, p in samples))

    serial, parallel = benchmark.pedantic(
        scenario, rounds=1, iterations=1)
    results = {
        "serial_s": round(serial, 4),
        "parallel_s": round(parallel, 4),
        "parallel_speedup": round(serial / parallel, 2),
        "cpus": os.cpu_count(),
    }
    print()
    print("=== parallel (-j4) vs serial cold build ===")
    print(json.dumps(results, indent=2))
    benchmark.extra_info.update(results)
    if (os.cpu_count() or 1) > 1:
        # Parallelism can only win wall-clock with real cores.
        assert parallel < serial, results
