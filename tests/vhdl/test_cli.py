"""Tests for the script-driven interface (python -m repro)."""

import os

import pytest

from repro.cli import COMMANDS, _parse_time, _parser, main


@pytest.fixture()
def collect():
    lines = []

    def out(text=""):
        lines.append(str(text))

    out.lines = lines
    return out


BLINK = """
entity blink is end blink;
architecture rtl of blink is
  signal led : bit := '0';
  signal n : integer := 0;
begin
  process
  begin
    led <= not led;
    n <= n + 1;
    wait for 10 ns;
  end process;
end rtl;
"""


@pytest.fixture()
def project(tmp_path):
    src = tmp_path / "blink.vhd"
    src.write_text(BLINK)
    root = tmp_path / "libs"
    return str(src), str(root)


class TestParseTime:
    def test_units(self):
        assert _parse_time("10ns") == 10 * 10**6
        assert _parse_time("1 us") == 10**9
        assert _parse_time("2ms") == 2 * 10**12
        assert _parse_time("5000") == 5000

    def test_fractional(self):
        assert _parse_time("1.5ns") == 1_500_000


class TestCompileCommand:
    def test_compile_ok(self, project, collect):
        src, root = project
        rc = main(["--root", root, "compile", src], out=collect)
        assert rc == 0
        assert any("ok" in line for line in collect.lines)
        assert os.path.isdir(os.path.join(root, "work"))

    def test_compile_errors_reported(self, tmp_path, collect):
        bad = tmp_path / "bad.vhd"
        bad.write_text("""
            entity e is end e;
            architecture a of e is
              signal s : no_such_type;
            begin
            end a;
        """)
        rc = main(["compile", str(bad)], out=collect)
        assert rc == 1
        assert any("no_such_type" in line for line in collect.lines)

    def test_keep_going(self, tmp_path, collect):
        bad = tmp_path / "bad.vhd"
        bad.write_text("entity e is end e;\narchitecture a of ghost is"
                       "\nbegin\nend a;\n")
        rc = main(["compile", "--keep-going", str(bad)], out=collect)
        assert rc == 0


class TestListAndDump:
    def test_list(self, project, collect):
        src, root = project
        main(["--root", root, "compile", src], out=lambda *_: None)
        rc = main(["--root", root, "list"], out=collect)
        assert rc == 0
        assert "work.blink" in collect.lines
        assert "work.rtl(blink)" in collect.lines

    def test_dump(self, project, collect):
        src, root = project
        main(["--root", root, "compile", src], out=lambda *_: None)
        rc = main(["--root", root, "dump", "work", "rtl(blink)"],
                  out=collect)
        assert rc == 0
        assert any("ArchUnit" in line for line in collect.lines)


class TestSimulateCommand:
    def test_simulate_with_trace_and_vcd(self, project, tmp_path,
                                         collect):
        src, root = project
        main(["--root", root, "compile", src], out=lambda *_: None)
        vcd = str(tmp_path / "wave.vcd")
        rc = main([
            "--root", root, "simulate", "blink", "--until", "95ns",
            "--trace", "led", "--vcd", vcd,
        ], out=collect)
        assert rc == 0
        assert any("95 ns" in line for line in collect.lines)
        assert any(":blink:n" in line and "10" in line
                   for line in collect.lines)
        with open(vcd) as f:
            assert "$enddefinitions" in f.read()


ZPKG = """
package zpkg is
  constant base : integer := 5;
  function scaled (x : integer) return integer;
end zpkg;
"""

ZPKG_BODY = """
package body zpkg is
  function scaled (x : integer) return integer is
  begin
    return x * base;
  end scaled;
end zpkg;
"""

ZCLIENT = """
use work.zpkg.all;
entity zclient is end zclient;
architecture rtl of zclient is
  signal n : integer := 0;
begin
  process
  begin
    n <= scaled(n + 1) + base;
    wait for 10 ns;
  end process;
end rtl;
"""


class TestReopenedLibrary:
    def test_package_body_elaborates_after_its_declaration(
            self, tmp_path, collect):
        """``body(zpkg)`` sorts before ``zpkg`` by file name; reopening
        the library must still elaborate the declaration first."""
        root = str(tmp_path / "libs")
        for name, text in (("zpkg.vhd", ZPKG), ("zpkg_body.vhd", ZPKG_BODY),
                           ("zclient.vhd", ZCLIENT)):
            path = tmp_path / name
            path.write_text(text)
            assert main(["--root", root, "compile", str(path)],
                        out=lambda *_: None) == 0
        rc = main(["--root", root, "sim", "zclient", "--until", "25ns",
                   "--trace", "n"], out=collect)
        assert rc == 0, collect.lines
        # n: 0 -> 1*5+5 = 10 -> 11*5+5 = 60 -> 61*5+5 = 310
        assert any(":zclient:n" in line and "310" in line
                   for line in collect.lines), collect.lines

    def test_reopened_order_puts_dependencies_first(self, tmp_path):
        from repro.vhdl.library import LibraryManager

        root = str(tmp_path / "libs")
        for name, text in (("zpkg.vhd", ZPKG), ("zpkg_body.vhd", ZPKG_BODY),
                           ("zclient.vhd", ZCLIENT)):
            path = tmp_path / name
            path.write_text(text)
            main(["--root", root, "compile", str(path)],
                 out=lambda *_: None)
        order = [key for lib, key in LibraryManager(root=root).compile_order
                 if lib == "work"]
        assert order.index("zpkg") < order.index("body(zpkg)")
        assert order.index("zpkg") < order.index("zclient")
        assert order.index("zclient") < order.index("rtl(zclient)")


class TestParserReuse:
    def test_calls_share_no_parsed_state(self, monkeypatch):
        seen = []
        monkeypatch.setitem(
            COMMANDS, "list",
            lambda args, out: seen.append((args.ref, args.root)) or 0)
        assert main(["--ref", "lib_a", "--root", "/r1", "list"]) == 0
        assert main(["list"]) == 0
        assert main(["--ref", "lib_b", "list"]) == 0
        assert seen == [(["lib_a"], "/r1"), ([], None), (["lib_b"], None)]
        assert _parser() is _parser()


class TestStats:
    def test_stats_table(self, collect):
        rc = main(["stats"], out=collect)
        assert rc == 0
        text = "\n".join(collect.lines)
        assert "vhdl_principal" in text
        assert "max visits" in text


class TestBuildCommand:
    def test_build_requires_root(self, project, collect):
        src, _root = project
        rc = main(["build", src], out=collect)
        assert rc == 2
        assert any("--root" in line for line in collect.lines)

    def test_build_then_warm_rebuild(self, project, collect):
        src, root = project
        rc = main(["--root", root, "build", src], out=collect)
        assert rc == 0
        assert any(line.startswith("compiled") for line in collect.lines)
        assert any("cache:" in line and "1 miss(es)" in line
                   for line in collect.lines)
        del collect.lines[:]
        rc = main(["--root", root, "build", src], out=collect)
        assert rc == 0
        assert any(line.startswith("hit") for line in collect.lines)
        assert any("0 AG evaluation(s)" in line
                   for line in collect.lines)

    def test_build_force_and_jobs_flags(self, project, collect):
        src, root = project
        main(["--root", root, "build", src], out=lambda *_: None)
        rc = main(["--root", root, "build", src, "--force",
                   "--jobs", "2"], out=collect)
        assert rc == 0
        assert any(line.startswith("compiled") and "forced" in line
                   for line in collect.lines)

    def test_build_reports_failures(self, tmp_path, collect):
        bad = tmp_path / "bad.vhd"
        bad.write_text("entity e is port ( x : in nosuch ); end e;")
        root = str(tmp_path / "libs")
        rc = main(["--root", root, "build", str(bad)], out=collect)
        assert rc == 1
        assert any(line.startswith("failed") for line in collect.lines)
