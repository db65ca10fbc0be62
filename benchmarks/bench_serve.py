"""Throughput and latency of the ``repro serve`` daemon.

The service's reason to exist is amortization: a long-lived process
keeps the generated translator and per-session work libraries hot, so
a request costs one job, not one cold CLI start (grammar generation
plus library load plus compile).  Two numbers matter:

- sustained request throughput (rps) under a concurrent mixed burst
  with 8 in-flight clients, and its p50/p95 per-request latency;
- the amortization ratio: served compile+sim round-trips versus the
  equivalent one-shot CLI invocations in a fresh subprocess.

Results are emitted via ``benchmark.extra_info`` (``--benchmark-json
FILE`` saves them).  The committed ``BENCH_serve.json`` baseline is
gated by the ``serve`` scenario in ``scenarios.py``, which runs a
two-stage instance of the same pipeline design.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import BackgroundServer

from scenarios import PIPELINE_TOP, pipeline_source, serve_request

N_CLIENTS = 8
N_REQUESTS = 32  # per benchmark round, spread over the clients


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(workers=2, batch_window=0.005) as handle:
        # Prime one session per client so sims have a design.
        for i in range(N_CLIENTS):
            status, data = serve_request(
                handle.port, "POST", "/compile",
                {"session": "c%d" % i,
                 "files": [{"name": "pipe.vhd",
                            "text": pipeline_source(stages=1)}]})
            assert status == 200 and data["ok"], data
        yield handle


def percentile(latencies, q):
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1,
                       (len(ordered) * q) // 100)]


def test_mixed_burst_throughput(benchmark, server):
    """N_CLIENTS concurrent clients firing sim + healthz requests."""
    port = server.port
    jobs = []
    for n in range(N_REQUESTS):
        sid = "c%d" % (n % N_CLIENTS)
        if n % 4 == 3:
            jobs.append(("GET", "/healthz", None))
        else:
            jobs.append(("POST", "/sim",
                         {"session": sid, "top": PIPELINE_TOP,
                          "until": "200ns"}))

    def burst():
        latencies = []

        def one(job):
            method, path, body = job
            t0 = time.perf_counter()
            status, data = serve_request(port, method, path, body)
            latencies.append(time.perf_counter() - t0)
            assert status == 200, data
            return data
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
            results = list(pool.map(one, jobs))
        return time.perf_counter() - t0, latencies, results

    wall, latencies, results = benchmark(burst)
    sims = [r for r in results if r.get("kind") == "sim"]
    assert sims and all(r["ok"] for r in sims)

    benchmark.extra_info["clients"] = N_CLIENTS
    benchmark.extra_info["requests"] = N_REQUESTS
    benchmark.extra_info["rps"] = round(N_REQUESTS / wall, 1)
    benchmark.extra_info["p50_ms"] = round(
        percentile(latencies, 50) * 1e3, 3)
    benchmark.extra_info["p95_ms"] = round(
        percentile(latencies, 95) * 1e3, 3)
    benchmark.extra_info["sim_cycles"] = sims[0]["cycles"]


def test_batched_compile_amortization(benchmark, server):
    """K clients posting distinct files at once: the batch layer must
    hand the scheduler one merged build, not K serial ones."""
    port = server.port
    counter = {"round": 0}

    def burst():
        counter["round"] += 1
        tag = counter["round"]

        def one(i):
            # Fresh file names each round force real compiles; one
            # shared session so concurrent posts can merge batches.
            name = "gen_r%d_c%d.vhd" % (tag, i)
            text = ("entity g_r%d_c%d is end g_r%d_c%d;\n"
                    % (tag, i, tag, i))
            status, data = serve_request(
                port, "POST", "/compile",
                {"session": "batchbench",
                 "files": [{"name": name, "text": text}]})
            assert status == 200 and data["ok"], data
            return data
        with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
            return list(pool.map(one, range(N_CLIENTS)))

    results = benchmark(burst)
    benchmark.extra_info["clients"] = N_CLIENTS
    benchmark.extra_info["compiles_per_round"] = len(results)
    benchmark.extra_info["max_batch_jobs"] = max(
        r["timing"]["batch_jobs"] for r in results)
