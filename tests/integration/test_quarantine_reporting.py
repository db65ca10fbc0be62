"""A corrupt library unit is named on every path that reads the library.

The library moves a unit whose VIF does not parse aside and keeps a
LIB001 warning for it.  The request layer reports that warning, so
``repro sim``, ``repro analyze --top`` and serve ``/sim`` and
``/analyze`` all carry it, while a design that does not need the unit
still runs.
"""

import asyncio
import json
import os

from repro.cli import main
from repro.serve.jobs import JobRunner
from repro.serve.session import Workspace
from repro.vhdl.compiler import Compiler
from repro.vhdl.library import unit_filename

SOURCE = """
entity top is end top;
architecture a of top is
  signal n : integer := 0;
begin
  tick : process
  begin
    wait for 10 ns;
    n <= n + 1;
  end process;
end a;

entity other is end other;
architecture a of other is
  signal s : bit := '0';
begin
end a;
"""


def corrupt_other(root):
    """Overwrite the unneeded unit ``a(other)`` with bad JSON."""
    path = os.path.join(root, "work", unit_filename("a(other)", "vif.json"))
    with open(path, "w") as fh:
        fh.write("{ not json")
    return path


def lib001(lines):
    return [line for line in lines if "LIB001" in line]


class TestCli:
    def run(self, tmp_path, *argv):
        root = str(tmp_path / "lib")
        assert Compiler(root=root).compile(SOURCE, "two.vhd").ok
        path = corrupt_other(root)
        lines = []
        rc = main(["--root", root] + list(argv), out=lines.append)
        assert os.path.exists(path + ".corrupt")
        return rc, [str(line) for line in lines]

    def test_sim_reports_the_quarantine_and_still_runs(self, tmp_path):
        rc, lines = self.run(tmp_path, "sim", "top", "--until", "50ns")
        assert rc == 0
        [diag] = lib001(lines)
        assert "a(other).vif.json: warning[LIB001]: corrupt library " \
            "artifact quarantined" in diag
        assert "simulation stopped at 50 ns" in "\n".join(lines)

    def test_analyze_top_reports_the_quarantine(self, tmp_path):
        rc, lines = self.run(tmp_path, "analyze", "--top", "top")
        assert rc == 0
        assert len(lib001(lines)) == 1


def test_serve_sim_and_analyze_carry_the_quarantine(tmp_path):
    ws = Workspace("q1", str(tmp_path))
    (path,) = ws.write_sources([{"name": "two.vhd", "text": SOURCE}])
    assert ws.builder().build([path]).ok
    corrupt_other(ws.root)
    ws.invalidate()
    runner = JobRunner()

    async def requests():
        return (await runner.simulate(ws, "top", until_fs=50 * 10**6),
                await runner.analyze(ws, top="top"))

    try:
        results = asyncio.run(requests())
    finally:
        runner.executor.shutdown()
    for result in results:
        assert result["ok"], result
        [diag] = [json.loads(line) for line in
                  result["diagnostics_jsonl"].splitlines()]
        assert diag["code"] == "LIB001"
        assert diag["severity"] == "warning"
