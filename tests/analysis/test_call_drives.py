"""Drives made through subprogram calls.

A procedure call drives the signal actuals of its ``out``/``inout``
signal formals and whatever the callee's body assigns.  The principal
AG records those drives in the calling process's ``Flow`` record, so
lint (RPL002), analyze (RPE002) and the compiled backend's slot
classification all see the same drivers the event kernel creates at
run time.  The invariant test checks that claim on real designs: every
``(process, signal)`` driver the event kernel made is a drive of the
design graph.
"""

import glob
import os

import pytest

from repro.analysis import LintEngine, build_netlist
from repro.cli import main
from repro.gen.corpus import iter_corpus
from repro.gen.grammar import generate_for
from repro.gen.oracle import _compare, _simulate
from repro.request import analyze, simulate
from repro.sim import CompiledKernel, Kernel, compiled
from repro.vhdl.compiler import Compiler
from repro.vhdl.elaborate import Elaborator
from repro.vhdl.library import LibraryManager

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
CORPUS = os.path.join(REPO, "tests", "gen", "corpus")

#: ``stim`` has a variable, so the compiled backend keeps it generic;
#: its only drive of ``x`` is the call, and ``other`` drives ``x`` too.
SIGNAL_PARAMETER = """
entity fz_top is
end fz_top;
architecture bench of fz_top is
  signal x : integer := 0;
  signal t : integer := 0;
  procedure bump(signal s : out integer; v : in integer) is
  begin
    s <= v + 1;
  end;
begin
  stim : process
    variable n : integer := 0;
  begin
    wait for 5 ns;
    n := n + 1;
    bump(x, n);
    if n > 5 then
      wait;
    end if;
  end process;
  other : process (t)
  begin
    x <= t;
  end process;
  tick : t <= t + 1 after 3 ns;
end bench;
"""

#: The same race through a procedure that assigns ``x`` itself.
ARCHITECTURE_PROCEDURE = SIGNAL_PARAMETER.replace(
    "procedure bump(signal s : out integer; v : in integer) is",
    "procedure bump(v : in integer) is").replace(
    "s <= v + 1;", "x <= v + 1;").replace("bump(x, n);", "bump(n);")

#: One driver of ``x``: a canonical process that calls a procedure.
SINGLE_DRIVER = """
entity fz_top is
end fz_top;
architecture bench of fz_top is
  signal x : integer := 0;
  signal t : integer := 0;
  procedure poke(v : in integer) is
  begin
    x <= v * 2 after 1 ns;
  end;
begin
  caller : process (t)
  begin
    poke(t);
  end process;
  tick : t <= t + 1 after 3 ns;
end bench;
"""

RACES = {"signal_parameter": SIGNAL_PARAMETER,
         "architecture_procedure": ARCHITECTURE_PROCEDURE}


def _library(source):
    library = LibraryManager(root=None)
    result = Compiler(library=library).compile(source, filename="t.vhd")
    assert result.ok, result.messages
    return library


def _run(kernel_cls, library, until_fs):
    sim = Elaborator(library, kernel=kernel_cls()).elaborate("fz_top")
    assert sim.ok, sim.error
    stop = sim.run(until_fs=until_fs)
    return sim, stop


@pytest.mark.parametrize("name", sorted(RACES))
class TestMultiDriverThroughACall:
    def test_lint_reports_rpl002(self, name):
        library = _library(RACES[name])
        findings = LintEngine(library=library).lint_library()
        [finding] = [d for d in findings if d.code == "RPL002"]
        assert "'x'" in finding.message

    def test_analyze_reports_rpe002(self, name):
        design = analyze(_library(RACES[name]), "fz_top")
        [finding] = [d for d in design.findings if d.code == "RPE002"]
        assert ":fz_top:x" in finding.message

    def test_compiled_backend_stops_like_the_event_kernel(self, name):
        library = _library(RACES[name])
        until = 30 * 10**6
        event, event_stop = _run(Kernel, library, until)
        comp, comp_stop = _run(CompiledKernel, library, until)
        assert [d.code for d in event.diagnostics] == ["SIM003"]
        assert [d.code for d in comp.diagnostics] == ["SIM003"]
        assert comp_stop == event_stop < until
        assert str(comp.error) == str(event.error)
        # A signal driven through a call is never a slot.
        x = event.names.lookup(":fz_top:x")
        assert x.index not in comp.kernel.program.slot_indices


class TestSingleDriverThroughACall:
    def test_compiled_backend_matches_the_event_kernel(self):
        library = _library(SINGLE_DRIVER)
        until = 40 * 10**6
        event = _simulate(Kernel, library, "fz_top", until)
        comp = _simulate(CompiledKernel, library, "fz_top", until)
        assert event["error"] is None
        assert _compare(event, comp, "Kernel", "CompiledKernel") is None
        assert event["vcd"] == comp["vcd"]
        assert dict(event["values"])[":fz_top:x"] == "26"

    def test_the_calling_process_is_compiled(self):
        kernel = CompiledKernel()
        sim = Elaborator(_library(SINGLE_DRIVER),
                         kernel=kernel).elaborate("fz_top")
        compiled._PROGRAM_CACHE.clear()
        program = kernel.compile_design(sim.records)
        caller = [p for p in kernel.processes
                  if p.name.endswith(":caller")][0]
        assert caller.index in program.plans
        assert not program.plans[caller.index].pure
        x = sim.names.lookup(":fz_top:x")
        assert x.index not in program.slot_indices


#: Subprograms whose drives a call cannot see: refused at compile time.
UNSEEN_DRIVES = {
    "function": ("""
entity fz_top is end fz_top;
architecture bench of fz_top is
  signal x : integer := 0;
  function f(v : integer) return integer is
  begin
    x <= v;
    return v;
  end;
begin
  p : process begin wait for 5 ns; x <= f(1); end process;
end bench;
""", "function f cannot assign signals"),
    "package_procedure": ("""
package pk is
  signal psig : integer := 0;
  procedure poke(v : in integer);
end pk;
package body pk is
  procedure poke(v : in integer) is
  begin
    psig <= v;
  end;
end pk;
""", "procedure poke may assign only its signal parameters"),
}


@pytest.mark.parametrize("name", sorted(UNSEEN_DRIVES))
def test_drives_a_call_cannot_see_are_compile_errors(name):
    source, message = UNSEEN_DRIVES[name]
    result = Compiler(library=LibraryManager(root=None)).compile(
        source, filename="t.vhd")
    assert not result.ok
    assert any(message in m for m in result.messages), result.messages


def test_an_out_port_is_an_out_signal_actual(tmp_path):
    """The top's ``out`` port ``x`` is the actual of ``poke``'s ``out``
    signal formal: a drive target, not a read, so compile, sim on both
    backends and analyze accept the design."""
    path = os.path.join(CORPUS, "out_port_via_procedure.vhd")
    root = str(tmp_path / "libs")
    for args in (["compile", path], ["analyze", path],
                 ["sim", path, "--until", "100ns"],
                 ["sim", path, "--until", "100ns", "--backend",
                  "compiled"]):
        lines = []
        assert main(["--root", root] + args, out=lines.append) == 0, \
            (args, lines)
        assert not any("cannot be read" in str(line) for line in lines)
        if args[0] == "sim":
            assert any(str(line).split() == [":fz_top:x", "=", "40"]
                       for line in lines), lines


def _designs():
    """(name, source, top, until_ns) of every design the invariant
    covers: the pinned corpus, the example designs (top named like the
    file) and the first 40 fuzz designs of seed 7."""
    out = [(e.name, e.source, e.top, e.until_ns)
           for e in iter_corpus(CORPUS)]
    for path in sorted(glob.glob(os.path.join(REPO, "examples",
                                              "*.vhd"))):
        with open(path) as fh:
            name = os.path.basename(path)
            out.append((name, fh.read(), name[:-len(".vhd")], 500))
    for index in range(40):
        design = generate_for(7, index)
        out.append(("gen:7:%d" % index, design.source, design.top,
                    design.until_ns))
    return out


@pytest.mark.parametrize("name, source, top, until_ns", _designs(),
                         ids=[d[0] for d in _designs()])
def test_every_runtime_driver_is_a_graph_drive(name, source, top,
                                               until_ns):
    library = LibraryManager(root=None)
    result = Compiler(library=library).compile(source, filename=name)
    if not result.ok:
        pytest.skip("does not compile")
    design = simulate(library, top, Kernel(),
                      until_fs=until_ns * 10**6, max_cycles=100000)
    if not design.ran:
        pytest.skip("does not elaborate")
    sim = design.sim
    graph = build_netlist(sim.records)
    drives = {(drive.proc.process, drive.target.signal)
              for net in graph.processes for drive in net.drives}
    missing = [(proc.name, sig.name)
               for sig in sim.kernel.signals for proc in sig.drivers
               if (proc, sig) not in drives]
    assert not missing
