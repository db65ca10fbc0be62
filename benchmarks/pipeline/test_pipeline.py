"""Self-tests of the pipeline benchmark, at tiny sizes.

    PYTHONPATH=src python -m pytest benchmarks/pipeline -q
"""

import json
import os
import shutil
import socket
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import designs  # noqa: E402
import reference  # noqa: E402
import run as bench  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

WORKLOADS = sorted(bench.WORKLOADS)
EXACT = [m["name"] for m in SPEC["per_layer"]
         if m["unit"] in compare.EXACT_UNITS
         and m["name"] not in compare.TIMING_DEPENDENT]

#: Each workload's shape at a fraction of its cost.
TINY = bench.Sizes(clients=6, fanin=3, ring_low=36, ring_high=44,
                   event_until_ns=10_000, cold_until_ns=2_000,
                   cold_starts=3, boots=2)

#: ``run.main`` at the TINY sizes, in a fresh interpreter.
TINY_DRIVER = ("import sys\n"
               "sys.path.insert(0, %r)\n"
               "import run\n"
               "run.SIZES = run.Sizes(*%r)\n"
               "sys.exit(run.main(sys.argv[1:]))\n" % (HERE, tuple(TINY)))


def run_bench(workload, seed, trace):
    return subprocess.run(
        [sys.executable, "-c", TINY_DRIVER, "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=600)


def summary(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_RUNS = {}


def cached(workload, seed, trace):
    key = (workload, seed, trace)
    if key not in _RUNS:
        _RUNS[key] = summary(run_bench(workload, seed, trace))
    return _RUNS[key]


def assert_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present(workload):
    result = cached(workload, 1, 0)
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_present_and_ledger_adds_up(workload):
    result = cached(workload, 1, 1)
    assert_metrics(result, SPEC["per_layer"])
    metrics = result["metrics"]
    assert metrics["trace.unresolved_parents"]["value"] == 0
    assert metrics["ledger.gap_pct_max"]["value"] <= 2.0
    shares = sum(m["value"] for name, m in metrics.items()
                 if name.endswith(".self_pct"))
    assert shares == pytest.approx(100.0, abs=2.0)
    path = os.path.join(REPO, "bench-out", "pipeline",
                        "%s-seed1.trace.json" % workload)
    from repro.cli import main

    out = []
    assert main(["trace", path, "--view", "rollup", "--limit", "3"],
                out=out.append) == 0
    assert "0 unresolved parent(s)" in out[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_exact_counters(workload):
    first = cached(workload, 1, 1)["metrics"]
    again = summary(run_bench(workload, 1, 1))["metrics"]
    assert {n: first[n]["value"] for n in EXACT} == \
        {n: again[n]["value"] for n in EXACT}


def test_different_seed_different_inputs_same_metrics():
    def project_files(seed):
        import random

        return designs.make_project(
            random.Random("%d:fanin:0" % seed), clients=6, fanin=3).files()

    assert project_files(1) == project_files(1)
    assert project_files(1) != project_files(2)
    assert designs.ring_sizes("1:ring") != designs.ring_sizes("2:ring")
    assert sorted(designs.ring_sizes("1:ring")) == \
        sorted(designs.ring_sizes("2:ring"))
    assert set(cached("fanin_compile", 2, 0)["metrics"]) == \
        set(cached("fanin_compile", 1, 0)["metrics"])


def test_reference_catches_corrupted_expectations(tmp_path):
    import random

    from repro.cli import main

    project = designs.make_project(random.Random("check"), clients=4,
                                   fanin=2)
    root = str(tmp_path / "lib")
    for name, text in project.files():
        path = tmp_path / name
        path.write_text(text)
        assert main(["--root", root, "compile", str(path)],
                    out=lambda line: None) == 0
    out = []
    assert main(["--root", root, "sim", "top", "--until", "1us"],
                out=out.append) == 0
    expected = reference.top_values(project.top, 1000)
    assert reference.check_report(out, expected, ":top", "1 us") == []
    corrupted = dict(expected, d0=expected["d0"] + 1)
    assert reference.check_report(out, corrupted, ":top", "1 us")
    assert reference.check_report(out, expected, ":top", "2 us")

    ring = tmp_path / "ring.vhd"
    ring.write_text(designs.ring_source(40))
    out = []
    assert main(["sim", str(ring), "--until", "500ns"], out=out.append) == 0
    values, cycles = reference.ring_values(40, 500)
    assert reference.check_report(out, values, ":ring", "500 ns",
                                  cycles) == []
    assert reference.check_report(out, values, ":ring", "500 ns",
                                  cycles + 1)
    flipped = dict(values, c_0=1 - values["c_0"])
    assert reference.check_report(out, flipped, ":ring", "500 ns", cycles)

    body = {"ok": True, "end_fs": 500 * 10**6, "signals": [
        [":ring:%s" % name, str(value)] for name, value in values.items()]}
    assert reference.check_sim_json(body, values, ":ring",
                                    500 * 10**6) == []
    assert reference.check_sim_json(body, flipped, ":ring", 500 * 10**6)


def test_compare_verdicts():
    def runs(metric, values, unit, seeds):
        samples = {}
        for seed, value in zip(seeds, values):
            samples.setdefault(seed, []).append((value, unit))
        return {("w", metric): samples}

    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def verdict(values, metric="setup_s", unit="s", a=base,
                seeds=range(10)):
        rows = compare.compare(runs(metric, a, unit, seeds),
                               runs(metric, values, unit, seeds), SPEC)
        return rows[0][5]

    assert verdict(base) == "unchanged"
    assert verdict([v * 1.5 for v in base]) == "worse"
    assert verdict([v * 0.7 for v in base]) == "improved"
    assert verdict([60, 140] * 5) == "unresolved"
    assert verdict(base, "scan.tokens", "count") == "unchanged"
    assert verdict(base[:-1] + [7], "scan.tokens", "count") == "changed"
    assert verdict(base, "scan.self_pct", "%") == "info"
    # Fewer than ten pairs never resolve, however large the change.
    assert verdict([v * 0.5 for v in base[:9]], a=base[:9]) == "unresolved"
    # Runs of one seed are all kept and paired in order.
    once = [0] * 10
    assert verdict([v * 0.7 for v in base], seeds=once) == "improved"
    assert verdict([v * 1.5 for v in base], seeds=once) == "worse"
    assert verdict([100] * 9 + [7], "scan.tokens", "count", a=[100] * 10,
                   seeds=once) == "changed"
    # Unbounded timings move only on the paired rule.
    ms = {"metric": "compile_ms_p50", "unit": "ms"}
    assert verdict(base, **ms) == "info"
    assert verdict([v * 1.2 for v in base], **ms) == "worse"
    assert verdict([v * 0.8 for v in base], **ms) == "improved"
    assert verdict([v * 1.2 for v in base[:9]], a=base[:9], **ms) == "info"
    assert verdict([v * 1.2 for v in base[:5]] + base[5:], **ms) == "info"


def test_compare_loads_every_run_of_a_seed(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        for i in range(10):
            (tmp_path / side / ("run%d.out" % i)).write_text(json.dumps(
                {"name": "setup_s", "workload": "w", "seed": 1,
                 "value": 100.0 + i, "unit": "s", "n": 1}) + "\n")
    samples = compare.load(str(tmp_path / "a"))
    assert len(samples[("w", "setup_s")][1]) == 10
    rows = compare.compare(samples, compare.load(str(tmp_path / "b")), SPEC)
    assert rows[0][5] == "unchanged"


def test_serve_subprocess_exits_and_frees_its_port(tmp_path):
    server = bench.Server(str(tmp_path / "state"))
    try:
        port = server.port
        conn = server.connect()
        status, reply = bench.http_json(conn, "GET", "/healthz")
        conn.close()
        assert status == 200 and reply["ok"]
    finally:
        server.stop()
    assert server.proc.returncode is not None
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=5).close()


def test_fails_without_the_program_source(tmp_path):
    bench_dir = tmp_path / "benchmarks" / "pipeline"
    shutil.copytree(HERE, bench_dir,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload",
         "fanin_compile", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
