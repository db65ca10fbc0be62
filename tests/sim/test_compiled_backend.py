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
from collections import OrderedDict

import pytest

from repro.analysis import build_netlist, levelize
from repro.gen.corpus import iter_corpus
from repro.gen.oracle import (
    _METRIC_FAMILIES,
    _compare,
    _simulate,
    check_source,
)
from repro.sim import CompiledKernel, Kernel, compiled
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


class TestShapes:
    """One code object per process shape: processes that differ only
    in integer literals and captured names share a factory."""

    def test_ring_shares_one_code_object(self, monkeypatch):
        monkeypatch.setattr(compiled, "_PROGRAM_CACHE", OrderedDict())
        kernel = _specialized(compile_lib(_ring(12)), "ring")
        assert kernel.compiled_procs == 12
        assert kernel.program.stats["shapes"] == 1
        assert len({fn.__code__
                    for fn in kernel._c_resume.values()}) == 1

    def test_generic_instances_match_the_event_kernel(self):
        library = compile_lib(GENERIC_PAIR)
        kernel = _specialized(library, "pair")
        adds = [p for p in kernel.processes
                if p.name.endswith(":add")]
        plans = [kernel.program.plans[p.index] for p in adds]
        # Both instances lift their own generic into one factory.
        assert len(plans) == 2 and all(plan.env for plan in plans)
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


class TestOneParsePerProcess:
    """Codegen reads drive facts from the AG's process records, so a
    cold build parses each process once, in the rewrite."""

    def test_cold_build_splits_each_process_once(self, monkeypatch):
        from repro.sim import codegen

        library = compile_lib(NESTED + _ring(6))
        for top in ("nested", "ring"):
            kernel = CompiledKernel()
            sim = Elaborator(library, kernel=kernel).elaborate(top)
            graph = build_netlist(sim.records)
            _levels, _order, cyclic = levelize(graph)
            calls = []
            real_split = codegen._split

            def counting_split(text, name):
                calls.append(name)
                return real_split(text, name)

            monkeypatch.setattr(codegen, "_split", counting_split)
            program = codegen.build_program(kernel, sim.records, graph,
                                            cyclic)
            monkeypatch.setattr(codegen, "_split", real_split)
            with_fn = [p for p in kernel.processes if p.fn is not None]
            assert len(calls) == len(with_fn) == program.stats["procs"]
            assert sorted(calls) == sorted(p.fn.__code__.co_name
                                           for p in with_fn)

    def test_cold_build_renders_each_shape_once(self, monkeypatch):
        import ast

        from repro.sim import codegen

        library = compile_lib(_ring(12))
        kernel = CompiledKernel()
        sim = Elaborator(library, kernel=kernel).elaborate("ring")
        graph = build_netlist(sim.records)
        _levels, _order, cyclic = levelize(graph)
        calls = []
        real_unparse = ast.unparse

        def counting_unparse(node):
            calls.append(node.name)
            return real_unparse(node)

        monkeypatch.setattr(ast, "unparse", counting_unparse)
        program = codegen.build_program(kernel, sim.records, graph, cyclic)
        monkeypatch.setattr(ast, "unparse", real_unparse)
        assert program.stats["compiled"] == 12
        assert len(calls) == program.stats["shapes"] < 12

    def test_the_process_analysis_pass_is_gone(self):
        from repro.sim import codegen

        for name in ("Analysis", "SiteInfo", "analyze_process",
                     "_ops_call", "_call_risk", "_helper_may_assign",
                     "_render_all", "_body_is_pure"):
            assert not hasattr(codegen, name), name
