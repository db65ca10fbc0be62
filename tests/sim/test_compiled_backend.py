"""Differential suite: the compiled backend vs the activity kernel.

Every pinned corpus design replays through the three-legged oracle
(event / scan / compiled) and must reach its pinned outcome with zero
divergence; one rich design is additionally compared observable by
observable (trace history, VCD bytes, bridged ``sim_*`` metric
families).  A combinational loop exercises the cyclic-quarantine
fallback: the loop signals must stay calendar-managed while the rest
of the design still compiles, and the quarantine set must come out of
:func:`repro.analysis.levelize` deterministically sorted by signal
index (the ``repro-levels/1`` byte-stability fix).
"""

import os
import subprocess
import sys
from collections import OrderedDict

import pytest

import repro
from repro.analysis import build_netlist, levelize
from repro.gen.corpus import iter_corpus
from repro.gen.oracle import (
    _METRIC_FAMILIES,
    _compare,
    _simulate,
    check_source,
)
from repro.sim import CompiledKernel, Kernel, Signal, codegen, compiled
from repro.sim.compiled import _PROGRAM_CACHE
from repro.vhdl.compiler import Compiler
from repro.vhdl.elaborate import Elaborator
from repro.vhdl.library import LibraryManager

CORPUS_DIR = os.path.join(
    os.path.dirname(__file__), "..", "gen", "corpus")


def compile_lib(source, filename="<test>"):
    library = LibraryManager(root=None)
    result = Compiler(library=library).compile(
        source, filename=filename)
    assert result.ok, result.messages
    return library


def _entries():
    entries = iter_corpus(CORPUS_DIR)
    assert entries, "the committed corpus must not be empty"
    return entries


@pytest.mark.parametrize("entry", _entries(), ids=lambda e: e.name)
class TestCorpusReplay:
    """Each pinned design, three backends, pinned outcome, zero
    divergence (``check_source`` compares the legs pairwise)."""

    def test_three_legs_agree(self, entry):
        result = check_source(entry.source, entry.top,
                              until_ns=entry.until_ns,
                              filename=entry.path, compiled=True)
        assert result.outcome == entry.expect, result.detail


class TestObservableIdentity:
    """Field-by-field identity on a rich hierarchy design: VCD bytes,
    signal images, per-process resumes, and the ``sim_*`` metric
    families the oracle pins."""

    @pytest.fixture(scope="class")
    def observations(self):
        entry = {e.name: e for e in _entries()}[
            "full_hierarchy_config_spec"]
        library = compile_lib(entry.source, entry.path)
        until_fs = entry.until_ns * 10**6
        event = _simulate(Kernel, library, entry.top, until_fs)
        compiled = _simulate(CompiledKernel, library, entry.top,
                             until_fs)
        assert event.get("error") is None
        assert compiled.get("error") is None
        return event, compiled

    def test_no_observable_differs(self, observations):
        event, compiled = observations
        assert _compare(event, compiled, "Kernel",
                        "CompiledKernel") is None

    def test_vcd_bytes_identical(self, observations):
        event, compiled = observations
        assert event["vcd"] == compiled["vcd"]

    def test_metric_families_identical(self, observations):
        event, compiled = observations
        for family in _METRIC_FAMILIES:
            assert event["metrics"].get(family) == \
                compiled["metrics"].get(family), family


COMB_LOOP = """
entity looped is end looped;
architecture rtl of looped is
  signal a : bit := '0';
  signal b : bit := '0';
  signal kick : bit := '0';
  signal tap : bit := '0';
begin
  -- A two-signal zero-delay loop: levelization must quarantine
  -- both.  It is stable at the initial values, so the design still
  -- settles — the quarantine is structural, not behavioral.
  fwd : a <= b;
  bwd : b <= a;
  -- An acyclic cone off the loop input stays compilable.
  probe : tap <= not kick;
  stim : process
  begin
    kick <= '1' after 10 ns;
    wait;
  end process;
end rtl;
"""


class TestQuarantineFallback:
    def test_loop_signals_fall_back_to_the_calendar(self):
        library = compile_lib(COMB_LOOP)
        kernel = CompiledKernel()
        sim = Elaborator(library, kernel=kernel).elaborate("looped")
        kernel.compile_design(sim.records)
        loop = {s.index for s in kernel.signals
                if s.name.split(":")[-1] in ("a", "b")}
        assert loop
        # Quarantined signals never get flat-slot storage: their
        # transactions go through Driver objects and the calendar.
        assert not (loop & kernel.program.slot_indices)

    def test_loop_design_semantics_identical(self):
        result = check_source(COMB_LOOP, "looped", until_ns=100,
                              compiled=True)
        assert result.outcome == "ok", result.detail

    def test_quarantine_sorted_by_signal_index(self):
        library = compile_lib(COMB_LOOP)
        sim = Elaborator(library, kernel=Kernel()).elaborate("looped")
        graphs = [build_netlist(sim.records) for _ in range(2)]
        runs = [levelize(g)[2] for g in graphs]
        for cyclic in runs:
            assert isinstance(cyclic, list)
            assert [s.index for s in cyclic] == \
                sorted(s.index for s in cyclic)
        assert [s.path for s in runs[0]] == [s.path for s in runs[1]]


RING = """
entity miniring is end miniring;
architecture rtl of miniring is
  signal c_0 : integer := 0;
  signal c_1 : integer := 0;
  signal c_2 : integer := 0;
  signal c_3 : integer := 0;
begin
  p_0: process (c_0) begin c_1 <= 1 - c_1 after 1 ns; end process;
  p_1: process begin wait on c_1; c_2 <= 1 - c_2 after 1 ns;
       end process;
  p_2: process begin wait on c_2; c_3 <= 1 - c_3 after 1 ns;
       end process;
  p_3: process begin wait on c_3; c_0 <= 1 - c_0 after 1 ns;
       end process;
end rtl;
"""


class TestFastDispatch:
    """The per-signal dispatch table: with every process compiled
    pure (single-signal permanent wait, no condition) and no metrics
    or waveform recorders attached, ``_cycle`` takes the table-driven
    lane — and must still be state-identical to the event kernel."""

    def _run(self, kernel_cls, library, compiled):
        kernel = kernel_cls()
        sim = Elaborator(library, kernel=kernel).elaborate("miniring")
        if compiled:
            kernel.compile_design(sim.records)
        kernel.initialize()
        kernel.run(until=50 * 10**6)  # 50 ns
        return kernel

    def test_fast_lane_matches_the_event_kernel(self):
        library = compile_lib(RING)
        k_ev = self._run(Kernel, library, compiled=False)
        k_co = self._run(CompiledKernel, library, compiled=True)
        assert k_co._fast_dispatch, \
            "the ring must qualify for table dispatch"
        assert k_co.cycles == k_ev.cycles
        assert k_co.delta_cycles == k_ev.delta_cycles
        assert [s.value for s in k_co.signals] == \
            [s.value for s in k_ev.signals]
        assert [s.events for s in k_co.signals] == \
            [s.events for s in k_ev.signals]
        assert [s.transactions for s in k_co.signals] == \
            [s.transactions for s in k_ev.signals]
        assert [p.resumes for p in k_co.processes] == \
            [p.resumes for p in k_ev.processes]


CACHED = """
entity cached is end cached;
architecture rtl of cached is
  signal tick : bit := '0';
begin
  clock : process
  begin
    tick <= not tick after 5 ns;
    wait on tick;
  end process;
end rtl;
"""


class TestProgramCache:
    def test_second_elaboration_reuses_the_program(self):
        library = compile_lib(CACHED)

        def specialize():
            kernel = CompiledKernel()
            sim = Elaborator(library,
                             kernel=kernel).elaborate("cached")
            kernel.compile_design(sim.records)
            return kernel

        _PROGRAM_CACHE.clear()
        first = specialize()
        assert len(_PROGRAM_CACHE) == 1
        second = specialize()
        # Same fingerprint -> the very same Program object; only the
        # per-elaboration bind (environment capture) re-runs.
        assert second.program is first.program
        assert len(_PROGRAM_CACHE) == 1

    def test_designs_apart_only_in_their_rows_never_share_a_program(self):
        """Two rings of one size whose models are the same text: one
        wired with its starter cells moved, one with another initial
        value.  Only their rows tell them apart, and each runs its own
        program to the event kernel's end state."""
        def ring(starters, init=0):
            n = len(starters)
            lines = ["entity ring is end ring;",
                     "architecture rtl of ring is"]
            lines += ["  signal c_%d : integer := %d;"
                      % (i, init if i == 5 else 0) for i in range(n)]
            lines.append("begin")
            for i, starter in enumerate(starters):
                j = (i + 1) % n
                lines.append(
                    "  p_%d: process (c_%d) begin c_%d <= 1 - c_%d "
                    "after 1 ns; end process;" % (i, i, j, j)
                    if starter else
                    "  p_%d: process begin wait on c_%d; c_%d <= 1 - "
                    "c_%d after 1 ns; end process;" % (i, i, j, j))
            lines.append("end rtl;")
            return "\n".join(lines)

        base = [i % 4 == 0 for i in range(12)]
        moved = [i in (0, 3, 8) for i in range(12)]
        designs = [ring(base), ring(moved), ring(base, init=1)]
        _PROGRAM_CACHE.clear()
        programs = []
        for source in designs:
            library = compile_lib(source)
            arch = library.find_architecture("work", "ring", "rtl")
            ends = {}
            for kernel in (Kernel(), CompiledKernel()):
                sim = Elaborator(library, kernel=kernel).elaborate("ring")
                sim.run(until_fs=20 * 10**6)
                ends[type(kernel)] = [(s.name, s.value, s.events)
                                      for s in kernel.signals]
            assert ends[Kernel] == ends[CompiledKernel]
            programs.append((arch.py_source, kernel.program))
        assert len({text for text, _ in programs}) == 1
        assert len({id(program) for _, program in programs}) == 3

    def test_compile_design_rejected_after_initialize(self):
        library = compile_lib(CACHED)
        kernel = CompiledKernel()
        sim = Elaborator(library, kernel=kernel).elaborate("cached")
        kernel.initialize()
        with pytest.raises(Exception):
            kernel.compile_design(sim.records)


def _ring(n):
    """An ``n``-cell token ring: cell 0 runs first (a sensitivity
    list), every other cell waits first."""
    lines = ["entity ring is end ring;", "architecture rtl of ring is"]
    lines += ["  signal c_%d : integer := 0;" % i for i in range(n)]
    lines.append("begin")
    for i in range(n):
        j = (i + 1) % n
        wait = "(c_%d) begin" % i if i == 0 else \
            "begin wait on c_%d;" % i
        lines.append("  p_%d: process %s c_%d <= 1 - c_%d after 1 ns;"
                     " end process;" % (i, wait, j, j))
    lines.append("end rtl;")
    return "\n".join(lines)


GENERIC_PAIR = """
entity adder is
  generic ( k : integer := 1 );
  port ( a : in integer; y : out integer );
end adder;
architecture rtl of adder is
begin
  add : process (a) begin y <= a + k after 2 ns; end process;
end rtl;

entity pair is end pair;
architecture rtl of pair is
  component adder
    generic ( k : integer := 1 );
    port ( a : in integer; y : out integer );
  end component;
  signal x, y3, y5 : integer := 0;
begin
  u3 : adder generic map ( k => 3 ) port map ( a => x, y => y3 );
  u5 : adder generic map ( k => 5 ) port map ( a => x, y => y5 );
  stim : process begin wait for 5 ns; x <= x + 10; end process;
end rtl;
"""

#: Processes inside nested blocks; ``q``'s multi-line ``if`` is its
#: last statement, so a slice cut short would drop the ``else``.
NESTED = """
entity nested is end nested;
architecture rtl of nested is
  signal clk : bit := '0';
  signal a, b, q : integer := 0;
begin
  outer : block
    signal inner : integer := 0;
  begin
    p : process begin wait on a; inner <= a + 1 after 1 ns;
        end process;
    deep : block
    begin
      q_reg : process
      begin
        wait until clk = '1';
        if inner > 2 then
          q <= inner;
        else
          q <= 0 - inner;
        end if;
      end process;
      r : process (inner) begin b <= inner after 2 ns; end process;
    end block deep;
  end block outer;
  clock : process begin wait for 5 ns; clk <= not clk; end process;
  count : process begin wait for 7 ns; a <= a + 1; end process;
end rtl;
"""


def _specialized(library, top):
    kernel = CompiledKernel()
    sim = Elaborator(library, kernel=kernel).elaborate(top)
    kernel.compile_design(sim.records)
    return kernel


#: Two instances of one entity, so two processes of one model factory:
#: ``plain`` is a slot, ``wired`` is resolved, so only one of them gets
#: slot writes.
SLOT_AND_RESOLVED = """
entity buf is
  port ( a : in integer; y : out integer );
end buf;
architecture rtl of buf is
begin
  drive : process (a) begin y <= a + 1 after 1 ns; end process;
end rtl;

entity split is end split;
architecture rtl of split is
  type int_vec is array (natural range <>) of integer;
  function total (v : int_vec) return integer is
    variable sum : integer := 0;
  begin
    for i in v'range loop
      sum := sum + v(i);
    end loop;
    return sum;
  end total;
  subtype rint is total integer;
  component buf
    port ( a : in integer; y : out integer );
  end component;
  signal x, plain : integer := 0;
  signal wired : rint := 0;
begin
  u1 : buf port map ( a => x, y => plain );
  u2 : buf port map ( a => x, y => wired );
  stim : process begin wait for 5 ns; x <= x + 10; end process;
end rtl;
"""


def _build(library, top, monkeypatch):
    """A cold specialization of ``top``: (kernel, program)."""
    monkeypatch.setattr(compiled, "_PROGRAM_CACHE", OrderedDict())
    kernel = _specialized(library, top)
    return kernel, kernel.program


def _resume_codes(kernel):
    """The code object of each compiled process's resume function."""
    return [fn.__code__ for fn in kernel._c_resume.values()]


class TestShapes:
    """One code object per process shape: the processes of one model
    factory share a specialized factory, and so do factories whose
    rewrites read alike."""

    def test_ring_shares_one_code_object(self, monkeypatch):
        monkeypatch.setattr(compiled, "_PROGRAM_CACHE", OrderedDict())
        kernel = _specialized(compile_lib(_ring(12)), "ring")
        assert kernel.compiled_procs == 12
        assert kernel.program.stats["shapes"] == 1
        assert len({fn.__code__
                    for fn in kernel._c_resume.values()}) == 1

    def test_generic_instances_match_the_event_kernel(self):
        library = compile_lib(GENERIC_PAIR)
        kernel = CompiledKernel()
        sim = Elaborator(library, kernel=kernel).elaborate("pair")
        kernel.compile_design(sim.records)
        adds = [p for p in kernel.processes
                if p.name.endswith(":add")]
        plans = [kernel.program.plans[p.index] for p in adds]
        # Both instances share one factory; each passes it the value
        # of its own generic, and its signals by index.
        assert len(plans) == 2
        assert plans[0].resume == plans[1].resume
        operands = {record.processes[label]: values
                    for record in sim.records
                    for label, (_, values) in record.factories.items()}
        passed = [[codegen.operand(name, operands[p])
                   for name in plan.args]
                  for p, plan in zip(adds, plans)]
        assert [[v for v in values if not isinstance(v, Signal)]
                for values in passed] == [[3], [5]]
        assert kernel._c_resume[adds[0].index].__code__ is \
            kernel._c_resume[adds[1].index].__code__
        until_fs = 60 * 10**6
        event = _simulate(Kernel, library, "pair", until_fs)
        comp = _simulate(CompiledKernel, library, "pair", until_fs)
        assert _compare(event, comp, "Kernel", "CompiledKernel") is None
        assert event["vcd"] == comp["vcd"]
        values = dict(event["values"])
        assert int(values[":pair:y3"]) + 2 == int(values[":pair:y5"])

    def test_block_nested_processes_are_sliced(self):
        library = compile_lib(NESTED)
        kernel = _specialized(library, "nested")
        names = {p.name.rsplit(":", 1)[-1]
                 for p in kernel.processes
                 if p.index in kernel.program.plans}
        assert {"p", "q_reg", "r"} <= names
        result = check_source(NESTED, "nested", until_ns=100,
                              compiled=True)
        assert result.outcome == "ok", result.detail

    def test_a_slot_flag_renders_a_factory_again(self, monkeypatch):
        library = compile_lib(SLOT_AND_RESOLVED)
        kernel, program = _build(library, "split", monkeypatch)
        p1, p2 = [p for p in kernel.processes
                  if p.name.endswith(":drive")]
        # The instances share their model's byte-compiled factories.
        assert p1.generator.gi_code is p2.generator.gi_code
        # One model factory, two slot flags: two texts, two code objects.
        assert program.stats["shapes"] == 2
        assert program.plans[p1.index].resume != \
            program.plans[p2.index].resume
        codes = _resume_codes(kernel)
        assert len(codes) == 2 and codes[0] is not codes[1]
        until_fs = 60 * 10**6
        event = _simulate(Kernel, library, "split", until_fs)
        comp = _simulate(CompiledKernel, library, "split", until_fs)
        assert _compare(event, comp, "Kernel", "CompiledKernel") is None
        assert event["vcd"] == comp["vcd"]


#: ``exit`` outside a loop leaves the process loop itself, skipping the
#: wait: ``quit`` must keep its generator; ``inner`` exits its own loop.
EXITS = """
entity exits is end exits;
architecture rtl of exits is
  signal k, s : integer := 0;
begin
  tick : process begin wait for 3 ns; k <= k + 1; end process;
  inner : process (k) begin
    for i in 1 to 3 loop
      if k > i then exit; end if;
    end loop;
  end process;
end rtl;
"""


class TestJumpsOutsideLoops:
    """IEEE 1076 allows ``next`` and ``exit`` only inside a loop: one
    of the process loop itself is a compile error, not a process that
    ends (``exit``) or never suspends again (``next``)."""

    @pytest.mark.parametrize("jump", ["exit", "next", "exit when k > 2"])
    def test_a_jump_outside_a_loop_is_a_compile_error(self, jump):
        source = EXITS.replace(
            "begin\n  tick", "begin\n  quit : process begin wait on k;"
            " %s; s <= 1; end process;\n  tick" % jump)
        result = Compiler(library=LibraryManager(root=None)).compile(
            source, filename="<test>")
        which = jump.split()[0]
        assert result.messages == [
            "line 6: %s statement is not inside a loop" % which]

    def test_a_jump_in_a_subprogram_body_outside_a_loop(self):
        source = EXITS.replace(
            "begin\n  tick", "  procedure stop is begin next; end stop;"
            "\nbegin\n  tick")
        result = Compiler(library=LibraryManager(root=None)).compile(
            source, filename="<test>")
        assert result.messages == [
            "line 5: next statement is not inside a loop"]

    def test_an_exit_of_a_loop_compiles(self, monkeypatch):
        kernel, program = _build(compile_lib(EXITS), "exits", monkeypatch)
        outcome = {p.name.rsplit(":", 1)[-1]:
                   program.rejects.get(p.index, "compiled")
                   for p in kernel.processes}
        assert outcome == {"tick": "wait", "inner": "compiled"}
        result = check_source(EXITS, "exits", until_ns=30, compiled=True)
        assert result.outcome == "ok", result.detail


class TestOneParsePerProcess:
    """Codegen parses no process text: it takes each process's shape
    from its model factory's slot form, which the AG stored with the
    model, so the processes of one factory and set of slot flags share
    one rendered text and one code object."""

    def test_cold_build_splits_each_factory_once(self, monkeypatch):
        library = compile_lib(NESTED + _ring(6))
        for top in ("nested", "ring"):
            kernel, program = _build(library, top, monkeypatch)
            codes = _resume_codes(kernel)
            resumes = {plan.resume for plan in program.plans.values()}
            assert len(set(codes)) == len(resumes)
            conds = {plan.cond for plan in program.plans.values()
                     if plan.cond}
            assert program.stats["shapes"] == len(resumes) + len(conds)
        # The ring: six processes of two model factories, one shape.
        assert len(codes) == 6 and len(set(codes)) == 1
        assert len({p.generator.gi_code for p in kernel.processes}) == 2

    def test_cold_build_renders_each_shape_once(self, monkeypatch):
        library = compile_lib(_ring(12))
        kernel, program = _build(library, "ring", monkeypatch)
        assert program.stats["compiled"] == 12
        # The starter and the waiting cells: two model factories, one
        # rendered text.
        assert len({p.generator.gi_code for p in kernel.processes}) == 2
        assert program.stats["shapes"] == 1
        assert len(set(_resume_codes(kernel))) == 1

    def test_the_process_analysis_pass_is_gone(self):
        for name in ("Analysis", "SiteInfo", "analyze_process",
                     "_ops_call", "_call_risk", "_helper_may_assign",
                     "_render_all", "_body_is_pure", "_split", "_Shape",
                     "_memo", "_ALLOWED", "_SIGNAL_READS", "_Rewriter",
                     "_Binder", "_rewrite_stmts", "_rewrite_assign",
                     "_def", "_render", "_factory", "_process_texts",
                     "ast", "textwrap", "capture", "_signal_of",
                     "_MISSING", "_FACTORY"):
            assert not hasattr(codegen, name), name


#: A cold compiled-backend run of a ring in a fresh interpreter; prints
#: how many processes compiled and whether ``ast`` was ever imported.
COLD_RUN_SCRIPT = """
import sys
from repro.request import compile_sources, simulate
from repro.sim import CompiledKernel
built = compile_sources([("ring.vhd", sys.stdin.read())])
kernel = CompiledKernel()
simulate(built.library, "ring", kernel, until_fs=50 * 10**6)
print(kernel.compiled_procs, "ast" in sys.modules)
"""


def test_cold_compiled_run_never_loads_ast():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", COLD_RUN_SCRIPT],
                          input=_ring(8), env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["8", "False"]
