"""One failure shape for every front end.

A parse error and a semantic error are reported the same way by the
CLI, the serve routes, the fuzz oracle and the build worker, each with
a structured diagnostic.  A source file that cannot be read or decoded
ends in a diagnostic and a nonzero exit code, never a traceback.  So
does a design that does not elaborate or whose simulation fails.
"""

import asyncio
import json

import pytest

from repro.build.scheduler import compile_file_task
from repro.cli import main
from repro.gen.oracle import check_source
from repro.serve.app import ServeApp
from repro.serve.http import Request

#: kind -> (source, the code of its structured diagnostic)
FAILURES = {
    "parse": ("entity x is end;\n"
              "architecture a of x is begin foo bar; end;\n",
              "PARSE001"),
    "semantic": ("entity x is end;\n"
                 "architecture a of x is signal s : bit;\n"
                 "begin s <= q; end;\n",
                 "SEM001"),
}

#: The exit code each command gives a source that does not compile.
CLI_EXIT = {"compile": 1, "lint": 2, "analyze": 2, "sim": 1}


def run_cli(argv):
    lines = []
    rc = main(argv, out=lambda text="": lines.append(str(text)))
    return rc, lines


@pytest.fixture(params=sorted(FAILURES))
def failing(request, tmp_path):
    source, code = FAILURES[request.param]
    path = tmp_path / "x.vhd"
    path.write_text(source)
    return str(path), source, code


@pytest.mark.parametrize("command", sorted(CLI_EXIT))
def test_cli_exit_code_and_error_line(failing, command):
    path, _source, _code = failing
    rc, lines = run_cli([command, path])
    assert rc == CLI_EXIT[command]
    assert "%s: 1 error(s)" % path in lines


@pytest.mark.parametrize("route", ["/lint", "/analyze"])
def test_serve_ok_and_error_fields(failing, route, tmp_path):
    _path, source, _code = failing
    app = ServeApp(state_dir=str(tmp_path / "state"), workers=1)
    body = {"files": [{"name": "x.vhd", "text": source}]}
    request = Request("POST", route, {}, {}, json.dumps(body).encode())
    try:
        data = json.loads(asyncio.run(app.handle(request)).body)
    finally:
        asyncio.run(app.shutdown())
    assert data["ok"] is False
    assert data["error"] == "x.vhd: 1 compile error(s)"


def test_oracle_rejects_with_a_diagnostic(failing):
    _path, source, code = failing
    result = check_source(source, "x")
    assert result.outcome == "rejected"
    assert [d.code for d in result.diagnostics] == [code]


def test_build_worker_fails_with_a_diagnostic(failing, tmp_path):
    path, _source, code = failing
    result = compile_file_task(str(tmp_path / "lib"), "work", (), path)
    assert result["ok"] is False
    assert result["units"] == []
    assert [d["code"] for d in result["diagnostics"]] == [code]


# -- unreadable and undecodable sources ---------------------------------

#: The exit code each command gives a source it cannot read.
BAD_INPUT_EXIT = dict(CLI_EXIT, build=2)


@pytest.fixture(params=["missing", "undecodable"])
def bad_input(request, tmp_path):
    path = tmp_path / "bad.vhd"
    if request.param == "undecodable":
        path.write_bytes(b"\xff\xfe entity")
    return str(path)


@pytest.mark.parametrize("command", sorted(BAD_INPUT_EXIT))
def test_cli_bad_input_is_a_diagnostic(bad_input, command, tmp_path):
    rc, lines = run_cli(["--root", str(tmp_path / "lib"), command,
                         bad_input])
    assert rc == BAD_INPUT_EXIT[command]
    assert any(bad_input in line for line in lines)


def test_unreadable_file_is_a_lex_diagnostic(bad_input, tmp_path):
    result = compile_file_task(str(tmp_path / "lib"), "work", (),
                               bad_input)
    assert result["ok"] is False
    (diag,) = result["diagnostics"]
    assert diag["code"] == "LEX001"
    assert diag["severity"] == "error"
    assert diag["span"]["file"] == bad_input


# -- designs that compile but do not simulate ---------------------------

STORM = """
entity storm is end storm;
architecture rtl of storm is
  signal a1 : bit := '0';
begin
  p : a1 <= not a1;
end rtl;
"""

BOOM = """
entity boom is end boom;
architecture rtl of boom is
  signal x : integer := 0;
begin
  stim : process
  begin
    wait for 10 ns;
    x <= 1;
    wait;
  end process;
  watch : assert x = 0 report "x moved" severity failure;
end rtl;
"""

INDEX = """
entity idx is end idx;
architecture rtl of idx is
  type word is array (0 to 3) of integer;
  signal mem : word := (others => 0);
  signal i : integer := 0;
begin
  stim : process
  begin
    wait for 10 ns;
    i <= 7;
    wait for 1 ns;
    mem(i) <= 1;
    wait;
  end process;
end rtl;
"""

#: A path assignment of a value outside its element's subtype, which
#: is range-checked as the scalar ``n := n - 1`` on a natural is.
ELEMENT_RANGE = """
entity elr is end elr;
architecture rtl of elr is
  type nvec is array (0 to 2) of natural;
begin
  stim : process
    variable v : nvec := (others => 0);
  begin
    wait for 10 ns;
    v(1) := -1;
    wait;
  end process;
end rtl;
"""

#: Elaboration code (a constant's initializer) failing a check.
ELAB_CHECKS = """
entity ec is end ec;
architecture rtl of ec is
  type word is array (0 to 3) of integer;
  constant w : word := (others => 1);
  function f(x : integer) return integer is
  begin
    assert x > 0 report "bad x" severity failure;
    return x;
  end f;
  signal s : integer := w(%s);
begin
end rtl;
"""

#: kind -> (source, top, the code of its diagnostic)
SIM_FAILURES = {
    "unknown_top": (BOOM, "nosuch", "ELAB001"),
    "elaboration_assert": (ELAB_CHECKS % "f(0)", "ec", "ELAB001"),
    "elaboration_index": (ELAB_CHECKS % "5", "ec", "ELAB001"),
    "zero_delay_loop": (STORM, "storm", "SIM001"),
    "assert_failure": (BOOM, "boom", "SIM002"),
    "index_range": (INDEX, "idx", "SIM003"),
    "element_range": (ELEMENT_RANGE, "elr", "SIM003"),
}


@pytest.fixture(params=sorted(SIM_FAILURES))
def sim_failure(request):
    return SIM_FAILURES[request.param]


@pytest.mark.parametrize("backend", ["event", "compiled"])
def test_cli_sim_failure_is_a_diagnostic(sim_failure, backend, tmp_path):
    source, top, code = sim_failure
    path = tmp_path / "d.vhd"
    path.write_text(source)
    root = str(tmp_path / "lib")
    assert run_cli(["--root", root, "compile", str(path)])[0] == 0
    rc, lines = run_cli(["--root", root, "sim", top, "--until", "100ns",
                         "--backend", backend])
    text = "\n".join(lines)
    assert rc == 1
    assert "error[%s]" % code in text
    assert "Traceback" not in text
    # A run that failed still reports the state at its stop.
    stopped = any(line.startswith("simulation stopped at ")
                  for line in lines)
    assert stopped == (code != "ELAB001")


def test_serve_sim_failure_is_ok_false(sim_failure, tmp_path):
    source, top, code = sim_failure
    app = ServeApp(state_dir=str(tmp_path / "state"), workers=1)

    def post(route, body):
        request = Request("POST", route, {}, {},
                          json.dumps(body).encode())
        return asyncio.run(app.handle(request))

    try:
        post("/compile", {"session": "s",
                          "files": [{"name": "d.vhd", "text": source}]})
        response = post("/sim", {"session": "s", "top": top,
                                 "until": "100ns"})
    finally:
        asyncio.run(app.shutdown())
    assert response.status == 200
    data = json.loads(response.body)
    assert data["ok"] is False
    assert data["error"]
    codes = [json.loads(line)["code"]
             for line in data["diagnostics_jsonl"].splitlines()]
    assert codes == [code]
    assert ("end_fs" in data) == (code != "ELAB001")


def test_oracle_sim_failure_is_sim_error(sim_failure):
    source, top, _code = sim_failure
    result = check_source(source, top, until_ns=100, compiled=True)
    assert result.outcome == "sim_error", result.detail


# -- a failed compile stores nothing -------------------------------------


def test_failed_compile_leaves_nothing_to_simulate(tmp_path):
    # The process reads a name no declaration makes visible: the
    # compile fails, stores neither unit, and a sim of the design is a
    # diagnostic (ELAB001), not a run of the broken model.
    path = tmp_path / "bad.vhd"
    path.write_text(
        "entity bad is end bad;\n"
        "architecture rtl of bad is\n"
        "  signal s : integer := 0;\n"
        "begin\n"
        "  p : process begin wait for 1 ns; "
        "s <= s + undefined_name; end process;\n"
        "end rtl;\n")
    root = str(tmp_path / "lib")
    rc, lines = run_cli(["--root", root, "compile", str(path)])
    assert rc == 1
    assert not list(tmp_path.glob("lib/*/*.vif.json"))
    rc, lines = run_cli(["--root", root, "sim", "bad"])
    assert rc == 1
    assert any("ELAB001" in line for line in lines)
