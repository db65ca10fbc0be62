"""Route-level tests for ServeApp, driven without sockets."""

import asyncio
import json

import pytest

from repro.serve.app import ServeApp
from repro.serve.http import PROMETHEUS_CONTENT_TYPE, Request

ENTITY = "entity e%d is end e%d;\n"

BLINK = """
entity blink is end blink;
architecture rtl of blink is
  signal led : bit := '0';
begin
  process
  begin
    led <= not led;
    wait for 10 ns;
  end process;
end rtl;
"""


def mkreq(method, path, body=None):
    payload = b"" if body is None else json.dumps(body).encode()
    return Request(method, path, {}, {}, payload)


def run(app, *requests):
    """Dispatch requests concurrently inside one event loop."""

    async def go():
        return await asyncio.gather(
            *(app.handle(r) for r in requests))

    return asyncio.run(go())


@pytest.fixture()
def app(tmp_path):
    instance = ServeApp(state_dir=str(tmp_path / "state"),
                        workers=2, batch_window=0.001)
    yield instance
    asyncio.run(instance.shutdown())


def body_of(response):
    return json.loads(response.body)


class TestBasicRoutes:
    def test_healthz(self, app):
        (resp,) = run(app, mkreq("GET", "/healthz"))
        assert resp.status == 200
        data = body_of(resp)
        assert data["ok"] is True
        assert data["draining"] is False

    def test_root_is_healthz(self, app):
        (resp,) = run(app, mkreq("GET", "/"))
        assert resp.status == 200
        assert body_of(resp)["ok"] is True

    def test_unknown_route_404(self, app):
        (resp,) = run(app, mkreq("GET", "/nope"))
        assert resp.status == 404

    def test_wrong_method_405(self, app):
        (resp,) = run(app, mkreq("GET", "/compile"))
        assert resp.status == 405

    def test_stats_route(self, app):
        (resp,) = run(app, mkreq("GET", "/stats"))
        data = body_of(resp)
        names = [g["name"] for g in data["grammars"]]
        assert "vhdl_principal" in names

    def test_metrics_route(self, app):
        run(app, mkreq("GET", "/healthz"))
        (resp,) = run(app, mkreq("GET", "/metrics"))
        assert resp.status == 200
        assert resp.content_type == PROMETHEUS_CONTENT_TYPE
        text = resp.body.decode()
        assert 'serve_requests_total{route="healthz",status="200"}' \
            in text
        assert "serve_uptime_seconds" in text
        assert "serve_request_seconds" in text


class TestSessions:
    def test_create_list_drop(self, app):
        (resp,) = run(app, mkreq("POST", "/session",
                                 {"session": "alice"}))
        assert resp.status == 201
        (resp,) = run(app, mkreq("GET", "/sessions"))
        assert "alice" in body_of(resp)["sessions"]
        (resp,) = run(app, mkreq("DELETE", "/session/alice"))
        assert resp.status == 200
        (resp,) = run(app, mkreq("DELETE", "/session/alice"))
        assert resp.status == 404

    def test_bad_session_id(self, app):
        (resp,) = run(app, mkreq("POST", "/session",
                                 {"session": "../evil"}))
        assert resp.status == 400

    def test_session_must_be_string(self, app):
        (resp,) = run(app, mkreq("POST", "/session", {"session": 7}))
        assert resp.status == 400


class TestCompileRoute:
    def test_requires_files(self, app):
        (resp,) = run(app, mkreq("POST", "/compile", {}))
        assert resp.status == 400
        (resp,) = run(app, mkreq("POST", "/compile", {"files": []}))
        assert resp.status == 400

    def test_bad_source_name(self, app):
        (resp,) = run(app, mkreq("POST", "/compile", {
            "files": [{"name": "../../etc/passwd", "text": ""}]}))
        assert resp.status == 400

    def test_invalid_json_body(self, app):
        (resp,) = run(app, Request("POST", "/compile", {}, {},
                                   b"{nope"))
        assert resp.status == 400

    def test_compile_ok(self, app):
        (resp,) = run(app, mkreq("POST", "/compile", {
            "files": [{"name": "e1.vhd", "text": ENTITY % (1, 1)}]}))
        assert resp.status == 200
        data = body_of(resp)
        assert data["ok"] is True
        assert data["kind"] == "compile"
        assert data["results"][0]["action"] == "compiled"
        assert ["work", "e1"] in data["results"][0]["units"]
        assert data["timing"]["batch_jobs"] >= 1

    def test_compile_error_reported_per_file(self, app):
        (resp,) = run(app, mkreq("POST", "/compile", {
            "files": [{"name": "bad.vhd",
                       "text": "entity broken is"}]}))
        assert resp.status == 200
        data = body_of(resp)
        assert data["ok"] is False
        assert data["results"][0]["action"] == "failed"
        assert data["results"][0]["messages"]

    def test_concurrent_compiles_share_one_batch(self, app):
        reqs = [mkreq("POST", "/compile", {
            "files": [{"name": "e%d.vhd" % i,
                       "text": ENTITY % (i, i)}]})
            for i in range(4)]
        responses = run(app, *reqs)
        for resp in responses:
            assert body_of(resp)["ok"] is True
        batches = app.registry.get("serve_batches_total")
        assert batches.value == 1
        # ... and each job only saw its own files.
        for i, resp in enumerate(responses):
            data = body_of(resp)
            assert [r["path"] for r in data["results"]] \
                == ["e%d.vhd" % i]
            assert data["timing"]["batch_files"] == 4


class TestSimRoute:
    def test_requires_top(self, app):
        (resp,) = run(app, mkreq("POST", "/sim", {}))
        assert resp.status == 400

    def test_bad_until(self, app):
        (resp,) = run(app, mkreq("POST", "/sim",
                                 {"top": "x", "until": "one parsec"}))
        assert resp.status == 400

    @pytest.mark.parametrize("until", ["-5ns", "inf ns", "1e400ns"])
    def test_negative_or_non_finite_until(self, app, until):
        (resp,) = run(app, mkreq("POST", "/sim",
                                 {"top": "x", "until": until}))
        assert resp.status == 400

    def test_unknown_top_is_job_failure_not_500(self, app):
        (resp,) = run(app, mkreq("POST", "/sim", {"top": "ghost"}))
        assert resp.status == 200
        data = body_of(resp)
        assert data["ok"] is False
        assert "ghost" in data["error"]

    def test_compile_then_sim(self, app):
        responses = run(
            app,
            mkreq("POST", "/compile", {
                "session": "s1",
                "files": [{"name": "blink.vhd", "text": BLINK}]}))
        assert body_of(responses[0])["ok"] is True
        (resp,) = run(app, mkreq("POST", "/sim", {
            "session": "s1", "top": "blink", "until": "25ns"}))
        data = body_of(resp)
        assert data["ok"] is True
        assert data["cycles"] > 0
        assert data["report_lines"][0].startswith(
            "simulation stopped at 25 ns")

    # ``wait on`` (not ``wait for``): timeout waits stay generic, so
    # this variant actually exercises the specialized dispatch.
    TICKER = """
    entity blink is end blink;
    architecture rtl of blink is
      signal led : bit := '0';
    begin
      process
      begin
        led <= not led after 10 ns;
        wait on led;
      end process;
    end rtl;
    """

    def test_sim_backend_compiled(self, app):
        run(app, mkreq("POST", "/compile", {
            "session": "sc", "files": [
                {"name": "blink.vhd", "text": self.TICKER}]}))
        event, compiled = run(
            app,
            mkreq("POST", "/sim", {"session": "sc", "top": "blink",
                                   "until": "25ns"}),
            mkreq("POST", "/sim", {"session": "sc", "top": "blink",
                                   "until": "25ns",
                                   "backend": "compiled"}))
        ev, co = body_of(event), body_of(compiled)
        assert ev["ok"] and co["ok"]
        assert ev["backend"] == "event"
        assert co["backend"] == "compiled"
        assert co["codegen"]["compiled_procs"] >= 1
        # Semantics are backend-independent.
        assert co["cycles"] == ev["cycles"]
        assert co["delta_cycles"] == ev["delta_cycles"]

    def test_sim_bad_backend(self, app):
        # ``scan`` is the fuzz oracle's kernel, not a served backend.
        for backend in ("turbo", "scan", ["event"]):
            (resp,) = run(app, mkreq("POST", "/sim",
                                     {"top": "x",
                                      "backend": backend}))
            assert resp.status == 400


class TestLintRoute:
    def test_lint_posted_files(self, app):
        (resp,) = run(app, mkreq("POST", "/lint", {
            "files": [{"name": "e.vhd",
                       "text": "entity e is end e;"}]}))
        data = body_of(resp)
        assert data["kind"] == "lint"
        assert data["findings"] == 0

    def test_lint_session_library(self, app):
        run(app, mkreq("POST", "/compile", {
            "session": "lintme",
            "files": [{"name": "blink.vhd", "text": BLINK}]}))
        (resp,) = run(app, mkreq("POST", "/lint",
                                 {"session": "lintme"}))
        data = body_of(resp)
        assert resp.status == 200
        assert "findings_jsonl" in data


LOOP_DESIGN = """
entity inv is
  port (a : in bit; b : out bit);
end inv;
architecture rtl of inv is
begin
  b <= not a;
end rtl;

entity looptop is
end looptop;
architecture top of looptop is
  component inv
    port (a : in bit; b : out bit);
  end component;
  signal x, y : bit;
begin
  u1 : inv port map (a => x, b => y);
  u2 : inv port map (a => y, b => x);
end top;
"""


class TestAnalyzeRoute:
    def test_analyze_posted_files_finds_the_loop(self, app):
        (resp,) = run(app, mkreq("POST", "/analyze", {
            "files": [{"name": "loop.vhd", "text": LOOP_DESIGN}]}))
        data = body_of(resp)
        assert resp.status == 200
        assert data["kind"] == "analyze"
        assert data["ok"] is False
        assert data["top"] == "looptop"
        assert data["findings"] >= 1
        codes = [json.loads(line)["code"] for line in
                 data["findings_jsonl"].splitlines()]
        assert "RPE001" in codes
        assert data["levels"]["schema"] == "repro-levels/1"
        assert data["levels"]["cyclic"] == \
            [":looptop:x", ":looptop:y"]

    def test_analyze_session_library(self, app):
        run(app, mkreq("POST", "/compile", {
            "session": "anlz",
            "files": [{"name": "blink.vhd", "text": BLINK}]}))
        (resp,) = run(app, mkreq("POST", "/analyze",
                                 {"session": "anlz",
                                  "top": "blink"}))
        data = body_of(resp)
        assert resp.status == 200
        assert data["ok"] is True
        assert "levels" in data

    def test_analyze_without_files_needs_top(self, app):
        (resp,) = run(app, mkreq("POST", "/analyze", {
            "session": "anlz2"}))
        data = body_of(resp)
        assert data["ok"] is False
        assert "top" in data["error"]

    def test_analyze_select_filters_rules(self, app):
        (resp,) = run(app, mkreq("POST", "/analyze", {
            "files": [{"name": "loop.vhd", "text": LOOP_DESIGN}],
            "select": ["RPE004"]}))
        data = body_of(resp)
        codes = {json.loads(line)["code"] for line in
                 data["findings_jsonl"].splitlines()}
        assert codes <= {"RPE004"}

    def test_analyze_rejects_get(self, app):
        (resp,) = run(app, mkreq("GET", "/analyze"))
        assert resp.status == 405


class TestDraining:
    def test_draining_rejects_new_jobs(self, app):
        app.draining = True
        (resp,) = run(app, mkreq("POST", "/compile", {
            "files": [{"name": "e.vhd",
                       "text": "entity e is end e;"}]}))
        assert resp.status == 503
        (resp,) = run(app, mkreq("GET", "/healthz"))
        assert resp.status == 200
        assert body_of(resp)["draining"] is True


class TestMetricsBookkeeping:
    def test_requests_counted_by_route_and_status(self, app):
        run(app, mkreq("GET", "/healthz"))
        run(app, mkreq("GET", "/nope"))
        family = app.registry.get("serve_requests_total")
        values = {labels: child.value
                  for labels, child in family._children.items()}
        assert values[(("route", "healthz"),
                       ("status", "200"))] == 1
        assert values[(("route", "other"),
                       ("status", "404"))] == 1
        assert app.total_requests() == 2

    def test_inflight_settles_to_zero(self, app):
        run(app, mkreq("GET", "/healthz"))
        assert app.registry.get("serve_inflight").value == 0
