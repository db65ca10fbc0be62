#!/usr/bin/env python3
"""The pipeline benchmark: seeded VHDL source to a checked result.

Run from the repository root::

    python3 benchmarks/pipeline/run.py --workload fanin_compile \\
        --seed 1 --seconds 20 --trace 0

One invocation is one run of one workload in a fresh process.  It
generates its VHDL from ``--seed``, drives the program only through the
entry points users call -- ``repro.cli.main([...])`` in-process, or
HTTP against a ``repro serve`` subprocess -- and checks every result
against :mod:`reference`.  Jobs are closed-loop: the next call starts
when the previous one has returned.  Work comes in passes (a project,
a ring, an edit iteration); passes run until ``--seconds`` have
elapsed, and the pass in progress finishes.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps each layer's entry point (:mod:`ledger`), traces
every other pass, writes the merged Chrome trace to
``bench-out/pipeline/<workload>-seed<N>.trace.json`` and reports the
per-layer metrics.

Stdout: one JSON line per metric (``name``, ``workload``, ``seed``,
``value``, ``unit``, ``n``), then the summary object
``{"correct", "attempted", "failed", "metrics"}`` as the last line.
"""

import argparse
import http.client
import json
import os
import queue
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter, namedtuple
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
OUT_DIR = os.path.join(REPO, "bench-out", "pipeline")

sys.path.insert(0, HERE)

import designs  # noqa: E402
import ledger as ledger_mod  # noqa: E402
import reference  # noqa: E402

#: The end-to-end metrics of BENCHMARK.json; ``end_to_end`` also
#: prints the timings, whose run-to-run spread on a shared host is
#: wider than their 10% bound (README, "Bounds").
END_TO_END = ("setup_s", "peak_rss_mb")

#: A CLI run reads its memory high-water mark after this many passes,
#: or at its end when it has fewer: the compiled backend keeps every
#: distinct design's program, so a later reading would grow with the
#: passes a run fits in; an earlier one still climbs with the inputs.
PEAK_PASSES = 16

COLD_START = ("import repro.cli\n"
              "from repro.vhdl.grammar import principal_grammar\n"
              "principal_grammar()\n")


#: Work per pass, and set-ups per run.
Sizes = namedtuple("Sizes", "clients fanin ring_low ring_high "
                   "event_until_ns cold_until_ns cold_starts boots")

SIZES = Sizes(clients=60, fanin=8, ring_low=360, ring_high=440,
              event_until_ns=100_000, cold_until_ns=2_000,
              cold_starts=9, boots=5)

#: Simulated horizons of the fanin and serve workloads.
FANIN_UNTIL_NS = 1_000
EDIT_UNTIL_NS = 200


def time_image(ns):
    """How ``repro sim`` prints a stop time: the largest unit that
    divides it."""
    for unit, scale in (("ms", 10**6), ("us", 10**3)):
        if ns % scale == 0:
            return "%d %s" % (ns // scale, unit)
    return "%d ns" % ns


def src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Run:
    """Samples and outcomes of one run."""

    def __init__(self, seed, seconds, sizes, ledger, scratch):
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.ledger = ledger
        self.scratch = scratch
        self.setup_s = []
        self.compile_s = []
        self.sim_s = []
        self.lines = 0
        self.attempted = 0
        self.failures = []
        #: pass seconds, keyed by whether the pass was traced
        self.pass_s = {True: [], False: []}
        self.loop_s = 0.0
        self.peak_rss_kb = None
        self.serve_metrics = {}
        self._lock = threading.Lock()

    def record(self, kind, seconds, problems, what, lines=0):
        with self._lock:
            self.attempted += 1
            self.lines += lines
            if kind in ("compile", "sim"):
                (self.compile_s if kind == "compile"
                 else self.sim_s).append(seconds)
            if problems:
                self.failures.append("%s %s: %s" % (
                    kind, what, "; ".join(str(p) for p in problems[:3])))

    def add_pass(self, traced, seconds):
        with self._lock:
            self.pass_s[traced].append(seconds)

    def job(self, kind, traced):
        if traced:
            return self.ledger.job(kind)
        return nullcontext(None)

    def workdir(self):
        return tempfile.mkdtemp(dir=self.scratch)


# -- CLI workloads ------------------------------------------------------------


def cli_call(run, kind, argv, check, traced, lines=0):
    """One in-process ``repro`` invocation, timed and checked."""
    from repro.cli import main

    out = []
    t0 = time.perf_counter()
    try:
        with run.job(kind, traced):
            rc = main(argv, out=out.append)
    except Exception:  # a traceback is a failed job, not a lost run
        rc = traceback.format_exc(limit=4)
    seconds = time.perf_counter() - t0
    problems = check(out) if rc == 0 else ["rc %s" % (rc,)] + out[-3:]
    run.record(kind, seconds, problems, " ".join(argv[-3:]), lines)
    return seconds


def compiled_ok(path):
    def check(out):
        if out and out[0].startswith("%s: ok " % path):
            return []
        return out[:3] or ["no output"]
    return check


def write_file(directory, name, text):
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def fanin_pass(run, k, traced):
    """One project, each file compiled by its own ``repro --root R
    compile F`` into a fresh disk library, then ``repro sim top``."""
    project = designs.make_project(
        random.Random("%d:fanin:%d" % (run.seed, k)),
        clients=run.sizes.clients, fanin=run.sizes.fanin)
    expected = reference.top_values(project.top, FANIN_UNTIL_NS)
    work = run.workdir()
    root = os.path.join(work, "lib")
    files = [(write_file(work, name, text), designs.count_lines(text))
             for name, text in project.files()]
    seconds = 0.0
    for path, lines in files:
        seconds += cli_call(run, "compile",
                            ["--root", root, "compile", path],
                            compiled_ok(path), traced, lines)
    end = time_image(FANIN_UNTIL_NS)
    seconds += cli_call(
        run, "sim",
        ["--root", root, "sim", "top", "--until", "%dns" % FANIN_UNTIL_NS],
        lambda out: reference.check_report(out, expected, ":top", end),
        traced)
    shutil.rmtree(work)
    return seconds


def ring_pass(backend, until_attr):
    """One seeded ring: ``repro --root R compile ring.vhd``, then
    ``repro --root R sim ring`` on ``backend``."""

    def one(run, k, traced):
        n = run.ring_sizes[k]
        until_ns = getattr(run.sizes, until_attr)
        values, cycles = reference.ring_values(n, until_ns)
        work = run.workdir()
        root = os.path.join(work, "lib")
        text = designs.ring_source(n)
        path = write_file(work, "ring.vhd", text)
        seconds = cli_call(run, "compile", ["--root", root, "compile", path],
                           compiled_ok(path), traced,
                           designs.count_lines(text))
        end = time_image(until_ns)
        seconds += cli_call(
            run, "sim",
            ["--root", root, "sim", "ring", "--backend", backend,
             "--until", "%dns" % until_ns],
            lambda out: reference.check_report(out, values, ":ring", end,
                                               cycles),
            traced)
        shutil.rmtree(work)
        return seconds

    return one


def run_passes(run, one_pass, limit=None):
    """Closed-loop passes until the deadline (and, when tracing, at
    least one traced and one untraced pass).  Traced passes alternate
    with untraced ones, so both see the same mix of inputs."""
    ledger = run.ledger
    start = time.perf_counter()
    deadline = start + run.seconds
    least = 2 if ledger is not None else 1
    k = 0
    while True:
        traced = ledger is not None and k % 2 == 0
        if ledger is not None:
            ledger.recording = traced
        try:
            seconds = one_pass(run, k, traced)
        finally:
            if ledger is not None:
                ledger.recording = False
        if traced:
            ledger.close_pass()
        run.add_pass(traced, seconds)
        k += 1
        if k == PEAK_PASSES:
            run.peak_rss_kb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
        if (time.perf_counter() >= deadline and k >= least) or k == limit:
            break
    run.loop_s = time.perf_counter() - start


def cold_start():
    """A fresh interpreter: import plus translator generation."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", COLD_START], cwd=REPO,
                            env=src_env(), stdout=subprocess.DEVNULL)
    # A blocking wait: waiting with a timeout polls, in steps of up to
    # 50 ms, which would quantize the measurement.
    guard = threading.Timer(120, proc.kill)
    guard.start()
    try:
        rc = proc.wait()
    finally:
        guard.cancel()
    seconds = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError("cold start failed (rc %d)" % rc)
    return seconds


def cli_setup(run):
    return [cold_start() for _ in range(run.sizes.cold_starts)]


def fanin_measure(run):
    run_passes(run, fanin_pass)


def ring_measure(backend, until_attr):
    def measure(run):
        run.ring_sizes = designs.ring_sizes(
            "%d:ring" % run.seed, run.sizes.ring_low, run.sizes.ring_high)
        # Every ring size once at most: a repeated size would find its
        # generated code cached and no longer measure a cold codegen.
        run_passes(run, ring_pass(backend, until_attr),
                   limit=len(run.ring_sizes))
    return measure


# -- serve_edit_loop ----------------------------------------------------------


class Server:
    """A ``repro serve --port 0 --workers 2`` subprocess."""

    def __init__(self, state_dir, timeout=60):
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--state-dir", state_dir],
            cwd=REPO, env=src_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.host = self.port = None
        deadline = time.monotonic() + timeout
        try:
            while self.port is None:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
                if line is None:
                    raise RuntimeError("repro serve exited before "
                                       "listening (rc %s)"
                                       % self.proc.wait())
                if "listening on http://" in line:
                    address = line.split("http://", 1)[1].split()[0]
                    host, port = address.rstrip(",").rsplit(":", 1)
                    self.host, self.port = host, int(port)
        except BaseException:
            self.stop()
            raise

    def _read(self):
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def connect(self):
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def peak_rss_kb(self):
        """The server's high-water resident set (``VmHWM``)."""
        with open("/proc/%d/status" % self.proc.pid) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return None

    def stop(self, timeout=30):
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=timeout)
        self._reader.join(timeout=timeout)
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def http_json(conn, method, path, body=None, headers=None):
    """``(status, decoded JSON body)`` of one request."""
    data = None if body is None else json.dumps(body).encode()
    all_headers = {"Content-Type": "application/json"}
    all_headers.update(headers or {})
    conn.request(method, path, body=data, headers=all_headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def compile_reply_ok(reply):
    if reply.get("ok"):
        return []
    return ["compile not ok: %s" % [r.get("messages")
                                    for r in reply.get("results", ())]]


def serve_boot(run, i):
    """spawn -> listening -> /healthz -> one primed session."""
    design = designs.EditDesign(random.Random("%d:boot:%d" % (run.seed, i)))
    state = run.workdir()
    t0 = time.perf_counter()
    with Server(state) as server:
        conn = server.connect()
        try:
            status, reply = http_json(conn, "GET", "/healthz")
            if status != 200 or not reply.get("ok"):
                raise RuntimeError("healthz: %s %s" % (status, reply))
            status, reply = http_json(conn, "POST", "/compile", {
                "session": "boot", "files": design.files()})
            seconds = time.perf_counter() - t0
        finally:
            conn.close()
    if status != 200 or compile_reply_ok(reply):
        raise RuntimeError("priming compile failed: %s" % reply)
    shutil.rmtree(state)
    return seconds


def serve_setup(run):
    return [serve_boot(run, i) for i in range(run.sizes.boots)]


def serve_call(run, conn, kind, path, body, check, traced, lines=0):
    """One timed request; a traced one carries its job span as the
    ``traceparent`` and fetches the server's spans afterwards."""
    problems = []
    reply = None
    t0 = time.perf_counter()
    try:
        with run.job(kind, traced) as ctx:
            headers = {}
            if ctx is not None:
                headers["traceparent"] = ctx.to_traceparent()
            status, reply = http_json(conn, "POST", path, body, headers)
        seconds = time.perf_counter() - t0
        if status != 200:
            problems = ["HTTP %d: %s" % (status, reply.get("error"))]
        else:
            problems = check(reply)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        seconds = time.perf_counter() - t0
        problems = ["%s: %s" % (type(exc).__name__, exc)]
    run.record(kind, seconds, problems, path, lines)
    if traced and not problems:
        _, spans = http_json(conn, "GET",
                             "/trace?trace_id=%s" % ctx.trace_id)
        run.ledger.add_events(spans.get("spans", ()))
        if kind == "sim":
            deltas = reply["delta_cycles"]
            run.ledger.count("kernel_run.timesteps",
                             reply["cycles"] - deltas)
            run.ledger.count("kernel_run.delta_cycles", deltas)
    return seconds


def serve_client(run, server, index, deadline, barrier):
    """One closed-loop client with its own session: prime, then edit
    the leaf, compile it, and simulate the top twice, until the
    deadline."""
    design = designs.EditDesign(
        random.Random("%d:serve:%d" % (run.seed, index)))
    session = "client%d" % index
    conn = server.connect()
    try:
        status, reply = http_json(conn, "POST", "/compile", {
            "session": session, "files": design.files()})
        if status != 200 or compile_reply_ok(reply):
            raise RuntimeError("priming compile failed: %s" % reply)
        least = 2 if run.ledger is not None else 1
        k = 0
        while True:
            traced = run.ledger is not None and k % 2 == 0
            design.edit()
            expected = reference.top_values(design.top, EDIT_UNTIL_NS)
            text = design.leaf.render()
            seconds = serve_call(
                run, conn, "compile", "/compile",
                {"session": session, "files": [{
                    "name": "leaf.vhd", "text": text}]},
                compile_reply_ok, traced, designs.count_lines(text))
            for _ in range(2):
                seconds += serve_call(
                    run, conn, "sim", "/sim",
                    {"session": session, "top": design.top.name,
                     "until": "%dns" % EDIT_UNTIL_NS},
                    lambda reply: reference.check_sim_json(
                        reply, expected, ":%s" % design.top.name,
                        EDIT_UNTIL_NS * 10**6),
                    traced)
            run.add_pass(traced, seconds)
            if k == 0 and barrier is not None:
                barrier.wait(timeout=120)
            k += 1
            if time.perf_counter() >= deadline and k >= least:
                break
    except Exception:  # the client thread must report, not vanish
        run.record("client", 0.0, [traceback.format_exc(limit=4)],
                   "client%d" % index)
        if barrier is not None:
            barrier.abort()
    finally:
        conn.close()


def scrape_metrics(server):
    """Unlabelled samples of the server's ``/metrics``."""
    conn = server.connect()
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
    finally:
        conn.close()
    samples = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and not line.startswith("#") \
                and "{" not in parts[0]:
            samples[parts[0]] = float(parts[1])
    return samples


def serve_measure(run):
    state = run.workdir()
    with Server(state) as server:
        barrier = None
        if run.ledger is not None:
            # Both clients' first iterations form the first pass.
            barrier = threading.Barrier(2, action=run.ledger.close_pass)
        start = time.perf_counter()
        clients = [threading.Thread(
            target=serve_client,
            args=(run, server, i, start + run.seconds, barrier))
            for i in range(2)]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=run.seconds + 150)
        run.loop_s = time.perf_counter() - start
        if any(client.is_alive() for client in clients):
            raise RuntimeError("serve client did not finish")
        if run.ledger is not None:
            run.serve_metrics = scrape_metrics(server)
        run.peak_rss_kb = server.peak_rss_kb()
    shutil.rmtree(state)


WORKLOADS = {
    "fanin_compile": (cli_setup, fanin_measure),
    "ring_event": (cli_setup, ring_measure("event", "event_until_ns")),
    "ring_compiled_cold": (cli_setup,
                           ring_measure("compiled", "cold_until_ns")),
    "serve_edit_loop": (serve_setup, serve_measure),
}


# -- metrics ------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(run):
    """``[(name, value, unit, n)]``: every end-to-end figure; the
    summary carries those in ``END_TO_END``."""
    n_calls = len(run.compile_s) + len(run.sim_s)
    rows = [
        ("setup_s", median(run.setup_s), "s", len(run.setup_s)),
        ("compile_ms_p50", median(run.compile_s) * 1e3, "ms",
         len(run.compile_s)),
        ("sim_ms_p50", median(run.sim_s) * 1e3, "ms", len(run.sim_s)),
        ("lines_per_s", run.lines / sum(run.compile_s)
         if run.compile_s else 0.0, "lines/s", len(run.compile_s)),
        ("req_per_s", n_calls / run.loop_s, "req/s", n_calls),
        ("peak_rss_mb", (run.peak_rss_kb or 0) / 1024.0, "MB", 1),
    ]
    # A p90 needs at least ten samples beyond it.
    for name, samples in (("compile_ms_p90", run.compile_s),
                          ("sim_ms_p90", run.sim_s)):
        if len(samples) >= 100:
            rows.append((name, p90(samples) * 1e3, "ms", len(samples)))
    rows.append(("fail_ratio", len(run.failures) / max(1, run.attempted),
                 "ratio", run.attempted))
    return rows


def per_layer(run):
    """``[(name, value, unit, n)]`` from the traced passes."""
    from repro.trace import analyze

    ledger = run.ledger
    events = ledger.events
    self_us = ledger_mod.layer_self_us(events)
    walls = ledger_mod.job_walls_us(events)
    total = sum(walls) or 1.0
    first_calls = Counter(ledger_mod.layer_of(name)
                          for name in ledger.first_names()
                          if name not in ledger_mod.KERNEL_SAMPLES)
    first = ledger.first_pass or Counter()
    rows = []
    for layer in ledger_mod.LAYERS + ledger_mod.SERVE_LAYERS:
        if not layer.startswith("serve."):
            rows.append(("%s.calls" % layer, first_calls[layer], "count",
                         len(walls)))
        rows.append(("%s.self_pct" % layer, 100.0 * self_us[layer] / total,
                     "%", len(walls)))
    for name, unit in ledger_mod.COUNTERS:
        rows.append((name, first[name], unit, 1))
    processes = first["codegen.processes"]
    rows.append(("codegen.compiled_ratio",
                 first["codegen.compiled_procs"] / processes
                 if processes else 0.0, "ratio", 1))
    timesteps = ledger.counters["kernel_run.timesteps"]
    rows.append(("kernel_run.us_per_timestep",
                 self_us["kernel_run"] / timesteps if timesteps else 0.0,
                 "us", timesteps))
    metrics = run.serve_metrics
    batches = metrics.get("serve_batches_total", 0.0)
    files = metrics.get("serve_batch_files_count", 0.0)
    rows.append(("serve.batches", batches, "count", 1))
    rows.append(("serve.files_per_batch",
                 metrics.get("serve_batch_files_sum", 0.0) / files
                 if files else 0.0, "files", int(files)))
    traced, plain = run.pass_s[True], run.pass_s[False]
    rows.append(("trace.overhead_ratio",
                 median(traced) / median(plain) if plain else 0.0,
                 "ratio", len(traced) + len(plain)))
    rows.append(("trace.unresolved_parents",
                 analyze.validate(events)["unresolved_parents"], "count",
                 len(events)))
    rows.append(("ledger.gap_pct_max", 100.0 * ledger_mod.max_gap(events),
                 "%", len(walls)))
    rows.append(("ledger.job_s", total / 1e6, "s", len(walls)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("pipeline benchmark: no program source under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    setup, measure = WORKLOADS[args.workload]
    ledger = ledger_mod.Ledger() if args.trace else None
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        run = Run(args.seed, args.seconds, SIZES, ledger, scratch)
        if ledger is None:
            run.setup_s = setup(run)
        else:
            ledger.install()
        try:
            measure(run)
        finally:
            if ledger is not None:
                ledger.uninstall()
        if run.peak_rss_kb is None:  # a CLI run of few passes
            run.peak_rss_kb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
        if ledger is None:
            rows = end_to_end(run)
            reported = set(END_TO_END)
        else:
            rows = per_layer(run)
            reported = {row[0] for row in rows}
            path = os.path.join(OUT_DIR, "%s-seed%d.trace.json"
                                % (args.workload, args.seed))
            ledger.write(path)
            print("trace written to %s" % os.path.relpath(path, REPO),
                  file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in run.failures[:10]:
        print("FAILED %s" % failure, file=sys.stderr)
    for name, value, unit, n in rows:
        print(json.dumps({"name": name, "workload": args.workload,
                          "seed": args.seed, "value": value, "unit": unit,
                          "n": n}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows if name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
