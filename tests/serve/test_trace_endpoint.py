"""End-to-end causal tracing over the wire.

The PR's acceptance test: one compile + sim exchange, stitched by the
client sending the same ``traceparent`` on both requests, produces ONE
connected span tree — every ``parent_id`` resolves inside the set or
at the client's root span — crossing the server process, a fork
worker, and the kernel run.
"""

import http.client
import json
import os

import pytest

from repro.build.scheduler import _fork_available
from repro.serve import BackgroundServer
from repro.trace import SpanContext

COUNTER = """
entity ticker is end ticker;
architecture rtl of ticker is
  signal n : integer := 0;
begin
  process
  begin
    n <= n + 1;
    wait for 10 ns;
  end process;
end rtl;
"""

FILLER = """entity pad%(n)d is end pad%(n)d;
architecture a of pad%(n)d is
  signal x : integer := %(n)d;
begin
end a;
"""


#: The keys of every span ``/trace`` serves, in the order the recorder
#: hands them out (a ``request`` root has no ``parent_id``; ``args``
#: comes last), and each span name's ``args`` keys in their order.
SPAN_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid",
             "trace_id", "span_id")
SPAN_ARGS = {
    "analyze": (),
    "attribute_evaluation": ("file",),
    "batch": ("index", "files"),
    "batch_member": ("job", "batch_trace", "batch_span"),
    "build": ("files",),
    "codegen": (),
    "compile_batch": ("files", "jobs"),
    "compile_file": ("file",),
    "elaborate": (),
    "fingerprint": ("files",),
    "kernel_run": (),
    "lint": ("files",),
    "model_compile": ("file",),
    "parse": ("file",),
    "process_resume": ("process",),
    "queue_wait": ("job",),
    "read_sources": ("files",),
    "request": ("route", "method", "status"),
    "save_manifest": (),
    "scan": ("file",),
    "sim": ("job", "top"),
    "timestep": ("t_fs", "step"),
    "translator_generation": (),
}


def span_keys(span):
    """The keys ``span`` must have, in order."""
    keys = SPAN_KEYS
    if "parent_id" in span or span["name"] != "request":
        keys += ("parent_id",)
    if SPAN_ARGS[span["name"]]:
        keys += ("args",)
    return keys


def request(port, method, path, body=None, headers=None,
            timeout=120):
    """Like the basic helper but returns response headers too."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload,
                     headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def request_json(port, method, path, body=None, headers=None):
    status, resp_headers, raw = request(port, method, path, body,
                                        headers)
    return status, resp_headers, json.loads(raw)


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(workers=2, batch_window=0.005) as handle:
        yield handle


def compile_and_sim(port, headers, session):
    """One compile (3 files, so the batch forks) and one sim."""
    files = [{"name": "ticker.vhd", "text": COUNTER}]
    for i in (1, 2):
        files.append({"name": "pad%d.vhd" % i,
                      "text": FILLER % {"n": i}})
    status, resp_headers, data = request_json(
        port, "POST", "/compile",
        {"session": session, "files": files}, headers=headers)
    assert status == 200 and data["ok"] is True, data
    first = resp_headers
    status, resp_headers, data = request_json(
        port, "POST", "/sim",
        {"session": session, "top": "ticker", "until": "500ns"},
        headers=headers)
    assert status == 200 and data["ok"] is True, data
    return first, resp_headers


class TestOneConnectedTree:
    def test_compile_sim_exchange_is_one_tree(self, server):
        client = SpanContext()
        headers = {"traceparent": client.to_traceparent()}
        first, second = compile_and_sim(server.port, headers,
                                        "trace-e2e")
        # Both responses echo a traceparent in the client's trace.
        for resp_headers in (first, second):
            remote = SpanContext.from_traceparent(
                resp_headers.get("traceparent"))
            assert remote is not None
            assert remote.trace_id == client.trace_id

        status, _, data = request_json(
            server.port, "GET",
            "/trace?trace_id=" + client.trace_id)
        assert status == 200 and data["ok"] is True
        spans = [e for e in data["spans"] if e.get("ph") == "X"]
        assert spans, "trace ring must hold this trace's spans"

        # One connected tree: every parent resolves inside the set,
        # except the two request roots which hang off the client span.
        ids = {e["span_id"] for e in spans}
        dangling = set()
        for event in spans:
            assert event["trace_id"] == client.trace_id
            parent = event.get("parent_id")
            assert parent, "no span may float unparented: %r" % event
            if parent not in ids:
                dangling.add(parent)
        assert dangling == {client.span_id}

        names = {e["name"] for e in spans}
        # The full causal path: HTTP request -> batch -> worker
        # compile -> sim phases -> kernel timestep.
        for expected in ("request", "queue_wait", "compile_batch",
                         "compile_file", "sim", "elaborate",
                         "kernel_run", "timestep"):
            assert expected in names, (expected, sorted(names))

        pids = {e["pid"] for e in spans}
        if _fork_available():
            # server process + >= 2 fork workers for the 3-file batch
            assert len(pids) >= 3, pids

    def test_trace_filter_excludes_other_traces(self, server):
        mine = SpanContext()
        theirs = SpanContext()
        for ctx, session in ((mine, "trace-mine"),
                             (theirs, "trace-theirs")):
            compile_and_sim(server.port,
                            {"traceparent": ctx.to_traceparent()},
                            session)
        status, _, data = request_json(
            server.port, "GET", "/trace?trace_id=" + mine.trace_id)
        assert status == 200
        got = {e.get("trace_id") for e in data["spans"]}
        assert got == {mine.trace_id}

    def test_unfiltered_trace_dump(self, server):
        status, _, data = request_json(server.port, "GET", "/trace")
        assert status == 200 and data["ok"] is True
        assert data["count"] == len(data["spans"]) > 0
        assert data["dropped"] >= 0

    def test_key_order_of_each_span_name(self, server):
        compile_and_sim(server.port,
                        {"traceparent": SpanContext().to_traceparent()},
                        "trace-keys")
        # The ring /trace reads keeps each name's key order ...
        seen = set()
        for span in server.server.app.trace.events():
            seen.add(span["name"])
            assert tuple(span) == span_keys(span), span
            assert tuple(span.get("args", ())) == \
                SPAN_ARGS[span["name"]], span
        assert {"request", "queue_wait", "compile_batch", "compile_file",
                "sim", "timestep", "process_resume"} <= seen
        # ... and the body lists the same keys, sorted.
        status, _, data = request_json(server.port, "GET", "/trace")
        assert status == 200
        for span in data["spans"]:
            assert list(span) == sorted(span_keys(span)), span
            assert list(span.get("args", ())) == \
                sorted(SPAN_ARGS[span["name"]]), span


class TestTraceparentRobustness:
    @pytest.mark.parametrize("bad", [
        "not-a-traceparent",
        "00-zzzz-zzzz-01",
        "00-" + "0" * 32 + "-" + "0" * 16 + "-01",
        "ff-" + "1" * 32 + "-" + "2" * 16 + "-01",
    ])
    def test_malformed_header_never_fails_a_request(self, server,
                                                    bad):
        status, resp_headers, data = request_json(
            server.port, "GET", "/healthz",
            headers={"traceparent": bad})
        assert status == 200 and data["ok"] is True
        # The server starts a fresh trace instead.
        remote = SpanContext.from_traceparent(
            resp_headers.get("traceparent"))
        assert remote is not None

    def test_absent_header_starts_fresh_trace(self, server):
        _, h1, _ = request_json(server.port, "GET", "/healthz")
        _, h2, _ = request_json(server.port, "GET", "/healthz")
        c1 = SpanContext.from_traceparent(h1.get("traceparent"))
        c2 = SpanContext.from_traceparent(h2.get("traceparent"))
        assert c1 is not None and c2 is not None
        assert c1.trace_id != c2.trace_id
