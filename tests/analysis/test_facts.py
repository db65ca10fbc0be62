"""Dataflow facts read from the compiled units' VIF tables."""

import json
import os

from repro.analysis import extract_unit_facts
from repro.cli import main
from repro.vhdl.compiler import Compiler
from repro.vhdl.library import LibraryManager, unit_filename

from .conftest import compile_source

SRC = """
entity facts_demo is
  port (clk : in bit; dout : out bit);
end facts_demo;

architecture rtl of facts_demo is
  signal d, q : bit;
begin
  reg : process (clk)
  begin
    if clk'event and clk = '1' then
      q <= d;
    end if;
  end process;

  drive : process
  begin
    d <= '1' after 3 ns;
    wait for 20 ns;
    wait;
  end process;

  outp : process (q)
  begin
    dout <= q;
  end process;
end rtl;
"""


def arch_facts(src=SRC, key="rtl(facts_demo)"):
    compiler = compile_source(src, "facts_demo.vhd")
    node = compiler.library._units[("work", key)]
    return extract_unit_facts(node)


class TestObjectTable:
    def test_signals_and_ports_with_lines(self):
        facts = arch_facts()
        kinds = {o.name: o.kind for o in facts.objects.values()}
        assert kinds == {"clk": "port", "dout": "port",
                         "d": "signal", "q": "signal"}
        modes = {o.name: o.mode for o in facts.objects.values()
                 if o.kind == "port"}
        assert modes == {"clk": "in", "dout": "out"}
        lines = {o.name: o.line for o in facts.objects.values()}
        assert lines["clk"] == 3
        assert lines["d"] == 7  # "signal d, q : bit;"
        assert all(isinstance(v, int) for v in lines.values())

    def test_file_attribution(self):
        facts = arch_facts()
        assert facts.file == "facts_demo.vhd"

    def test_resolution_detection(self, ):
        src = """
package p is
  function any1 (vals : bit_vector) return bit;
end p;
package body p is
  function any1 (vals : bit_vector) return bit is
  begin
    return '1';
  end any1;
end p;
entity e is end e;
use work.p.all;
architecture a of e is
  signal r : any1 bit;
  signal plain : bit;
begin
  p1 : process begin r <= '1'; plain <= '0'; wait; end process;
  m : process (r, plain) begin assert r = '1'; end process;
end a;
"""
        facts = arch_facts(src, key="a(e)")
        by_name = {o.name: o for o in facts.objects.values()}
        assert by_name["r"].resolved
        assert not by_name["plain"].resolved


class TestProcessFacts:
    def test_sensitivity_and_guarded_reads(self):
        facts = arch_facts()
        reg = [p for p in facts.processes if p.label == "reg"][0]
        names = lambda pys: {facts.objects[n].name for n in pys}
        assert names(reg.sensitivity) == {"clk"}
        # the data read sits under the clk'event guard...
        assert names(reg.guarded_reads) == {"d"}
        # ...while the clock-level test reads clk plainly.
        assert names(reg.plain_reads) == {"clk"}
        assert names(reg.attr_uses) == {"clk"}
        assert names(reg.drives) == {"q"}

    def test_wait_topology(self):
        facts = arch_facts()
        drive = [p for p in facts.processes
                 if p.label == "drive"][0]
        assert drive.sensitivity is None
        assert len(drive.waits) == 2
        timed, forever = drive.waits
        assert timed.has_timeout and not timed.forever
        assert forever.forever

    def test_sensitivity_process_gets_trailing_wait(self):
        facts = arch_facts()
        outp = [p for p in facts.processes if p.label == "outp"][0]
        # the compiler ends sensitivity processes with wait-on-list
        assert outp.waits
        assert {facts.objects[n].name
                for n in outp.waits[-1].signals} == {"q"}

    def test_waitless_loop_and_unreachable(self):
        src = """
entity e is end e;
architecture a of e is
  signal x : bit;
begin
  spin : process
  begin
    wait for 1 ns;
    loop
      x <= not x;
    end loop;
    x <= '0';
  end process;
  m : process (x) begin assert x = '0' or x = '1'; end process;
end a;
"""
        facts = arch_facts(src, key="a(e)")
        spin = [p for p in facts.processes if p.label == "spin"][0]
        assert spin.waitless_loops == 1
        assert spin.unreachable_stmts == 1


class TestInstanceFacts:
    def test_connections(self):
        src = """
entity leaf is
  port (i : in bit; o : out bit);
end leaf;
architecture a of leaf is
begin
  p : process (i) begin o <= i; end process;
end a;
entity top is end top;
architecture s of top is
  component leaf
    port (i : in bit; o : out bit);
  end component;
  signal a, b : bit;
begin
  u1 : leaf port map (i => a, o => b);
  m : process (b) begin a <= b; end process;
end s;
"""
        facts = arch_facts(src, key="s(top)")
        assert len(facts.instances) == 1
        inst = facts.instances[0]
        assert inst.label == "u1"
        assert inst.component == "leaf"
        conn = {f: facts.objects[py].name
                for f, py in inst.connections.items()}
        assert conn == {"i": "a", "o": "b"}


class TestRobustness:
    def test_entity_without_code_yields_empty_facts(self):
        compiler = compile_source(SRC, "facts_demo.vhd")
        entity = compiler.library._units[("work", "facts_demo")]
        facts = extract_unit_facts(entity)
        assert facts.objects == {}
        assert facts.processes == []

    def test_stale_payload_is_a_lib_diagnostic(self, tmp_path):
        """An architecture stored before its payload carried the
        dataflow record must not read as a unit with no processes: the
        library refuses it with a LIB001 diagnostic that names the unit
        and asks for a rebuild, and analysis fails instead of passing."""
        root = str(tmp_path)
        Compiler(root=root).compile(SRC, "facts_demo.vhd")
        path = os.path.join(root, "work",
                            unit_filename("rtl(facts_demo)", "vif.json"))
        with open(path) as fh:
            payload = json.load(fh)
        for kind, fields in payload["nodes"]:
            if kind == "ArchUnit":
                del fields["processes"]
        with open(path, "w") as fh:
            json.dump(payload, fh)

        lines = []
        rc = main(["--root", root, "analyze", "--top", "facts_demo"],
                  out=lines.append)
        text = "\n".join(lines)
        assert rc == 2
        assert "Traceback" not in text
        [diag] = [line for line in lines if "LIB001" in line]
        assert "work.rtl(facts_demo)" in diag
        assert "lacks field(s) processes" in diag
        assert "rebuild" in diag
        # The refused payload was moved aside: the unit reads as
        # missing until it is rebuilt.
        assert os.path.exists(path + ".corrupt")
        assert ("work", "rtl(facts_demo)") not in \
            LibraryManager(root=root)._units

    def test_old_process_record_format_is_a_lib_diagnostic(self,
                                                           tmp_path):
        """A payload from before drive records carried their waveform
        and call facts (three values per drive, VIF format ``VIF-1``)
        is refused as a whole with a LIB001 diagnostic asking for a
        rebuild, never read as six-value records."""
        root = str(tmp_path)
        Compiler(root=root).compile(SRC, "facts_demo.vhd")
        path = os.path.join(root, "work",
                            unit_filename("rtl(facts_demo)", "vif.json"))
        with open(path) as fh:
            payload = json.load(fh)
        payload["format"] = "VIF-1"
        for kind, fields in payload["nodes"]:
            if kind == "ArchUnit":
                for record in fields["processes"]:
                    drives = record[8]
                    record[8] = [x for i in range(0, len(drives), 6)
                                 for x in drives[i:i + 3]]
        with open(path, "w") as fh:
            json.dump(payload, fh)

        lines = []
        rc = main(["--root", root, "analyze", "--top", "facts_demo"],
                  out=lines.append)
        assert rc == 2
        assert "Traceback" not in "\n".join(lines)
        [diag] = [line for line in lines if "LIB001" in line]
        assert "work.rtl(facts_demo)" in diag
        assert "'VIF-1'" in diag and "rebuild the library" in diag
        assert ("work", "rtl(facts_demo)") not in \
            LibraryManager(root=root)._units
