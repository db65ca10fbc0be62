"""Integration tests: the whole paper pipeline, end to end.

Each test exercises source → principal AG (+ cascaded expression AG) →
VIF in a library → generated model → elaboration → kernel — with
cross-checks between stages (VIF round-trips, name-server contents,
traced waveforms).
"""

import json

import pytest

from repro.sim.tracing import WaveformRecorder
from repro.vhdl.compiler import Compiler
from repro.vhdl.elaborate import Elaborator
from repro.vhdl.library import LibraryManager

NS = 10**6

DESIGN = """
    package alu_pkg is
      type opcode is (op_add, op_sub, op_and);
      constant word_bits : integer := 8;
    end alu_pkg;

    use work.alu_pkg.all;

    entity alu is
      port ( op : in opcode; a : in integer; b : in integer;
             y : out integer );
    end alu;

    architecture behave of alu is
    begin
      process (op, a, b)
      begin
        case op is
          when op_add => y <= a + b;
          when op_sub => y <= a - b;
          when op_and => y <= 0;
        end case;
      end process;
    end behave;

    use work.alu_pkg.all;

    entity harness is end harness;

    architecture tb of harness is
      component alu
        port ( op : in opcode; a : in integer; b : in integer;
               y : out integer );
      end component;
      signal op : opcode := op_add;
      signal a : integer := 20;
      signal b : integer := 22;
      signal y : integer := 0;
    begin
      dut : alu port map ( op => op, a => a, b => b, y => y );
      drive : process
      begin
        wait for 10 ns;
        op <= op_sub;
        wait for 10 ns;
        a <= 100;
        wait;
      end process;
    end tb;
"""


@pytest.fixture(scope="module")
def compiled():
    compiler = Compiler()
    result = compiler.compile(DESIGN)
    assert result.ok, result.messages
    return compiler, result


class TestPipeline:
    def test_all_units_registered(self, compiled):
        compiler, result = compiled
        keys = [k for lib, k in compiler.library.compile_order
                if lib == "work"]
        assert keys == ["alu_pkg", "alu", "behave(alu)", "harness",
                        "tb(harness)"]

    def test_simulation_results(self, compiled):
        compiler, _ = compiled
        sim = Elaborator(compiler.library).elaborate("harness")
        sim.run(until_fs=5 * NS)
        assert sim.value("y") == 42      # op_add: 20 + 22
        sim.run(until_fs=15 * NS)
        assert sim.value("y") == -2      # op_sub: 20 - 22
        sim.run(until_fs=25 * NS)
        assert sim.value("y") == 78      # op_sub: 100 - 22

    def test_trace_records_the_story(self, compiled):
        compiler, _ = compiled
        sim = Elaborator(compiler.library).elaborate("harness")
        y = sim.signal("y")
        tracer = WaveformRecorder(sim.kernel, [y])
        sim.run(until_fs=30 * NS)
        values = [v for _, v in tracer.changes(y)]
        assert values == [0, 42, -2, 78]

    def test_vif_payload_roundtrips_through_json(self, compiled):
        """The stored form survives a byte-level round trip and a
        fresh session can elaborate from it alone."""
        compiler, _ = compiled
        stored = {
            (lib, key): json.loads(json.dumps(
                compiler.library.payload_of(lib, key)))
            for lib, key in compiler.library.compile_order
            if lib == "work"
        }
        fresh = LibraryManager()
        for (lib, key), payload in stored.items():
            fresh._store.payloads[(lib, key)] = payload
            fresh._libraries.add(lib)
            node = fresh.reader.read_unit(lib, key)["unit"]
            fresh.install_unit(lib, key, node)
        sim = Elaborator(fresh).elaborate("harness")
        sim.run(until_fs=5 * NS)
        assert sim.value("y") == 42

    def test_hierarchical_names(self, compiled):
        compiler, _ = compiled
        sim = Elaborator(compiler.library).elaborate("harness")
        assert sim.names.lookup(":harness:dut") is not None
        assert sim.names.by_suffix("y") == [":harness:y"]
        tree = sim.names.tree()
        assert "dut [instance]" in tree

    def test_expression_ag_invoked_per_maximal_expression(self,
                                                          compiled):
        """§4.1: the second evaluator 'operates once for each maximal
        expression in the source program'."""
        _, result = compiled
        # The design has dozens of maximal expressions (types, bounds,
        # initializers, conditions, waveforms, choices, targets).
        assert result.expr_evals >= 25

    def test_phase_timings_recorded(self, compiled):
        _, result = compiled
        assert set(result.timings) == {
            "scan", "parse", "attribute_evaluation", "model_compile"}
        assert all(t >= 0 for t in result.timings.values())

    def test_timings_are_a_view_of_trace_events(self, compiled):
        """timings are the per-name sums of the result's own spans,
        and the compiler records no ``vif`` phase (VIF writing happens
        inside attribute evaluation)."""
        _, result = compiled
        sums = {}
        for event in result.trace_events:
            sums[event["name"]] = (sums.get(event["name"], 0.0)
                                   + event["dur"] / 1e6)
        assert result.timings == sums
        assert "vif" not in result.timings
        assert "vif" not in {e["name"] for e in result.trace_events}


class TestRecompilationIsolation:
    def test_recompile_does_not_mutate_old_nodes(self):
        """VIF immutability: recompiling a unit builds fresh nodes;
        units compiled against the old one keep their pointers."""
        compiler = Compiler()
        compiler.compile("""
            package p is
              constant k : integer := 1;
            end p;
        """)
        old_pkg = compiler.library.find_unit("work", "p")
        compiler.compile("""
            use work.p.all;
            entity e is end e;
            architecture a of e is
              signal s : integer := k;
            begin
            end a;
        """)
        compiler.compile("""
            package p is
              constant k : integer := 99;
            end p;
        """)
        new_pkg = compiler.library.find_unit("work", "p")
        assert new_pkg is not old_pkg
        assert old_pkg.decls[0].value == 1
        assert new_pkg.decls[0].value == 99


class TestErrorRecovery:
    def test_errors_in_one_unit_do_not_corrupt_library(self):
        compiler = Compiler()
        ok = compiler.compile("entity good is end good;")
        assert ok.ok
        bad = compiler.compile("""
            architecture a of good is
              signal s : mystery;
            begin
            end a;
        """)
        assert not bad.ok
        # The good entity remains usable.
        again = compiler.compile("""
            architecture b of good is
              signal s : integer := 1;
            begin
            end b;
        """)
        assert again.ok, again.messages

    def test_many_errors_all_collected(self):
        compiler = Compiler()
        result = compiler.compile("""
            entity e is end e;
            architecture a of e is
              signal s1 : ghost1;
              signal s2 : ghost2;
              signal s3 : integer := ghost3;
            begin
            end a;
        """)
        text = "\n".join(result.messages)
        assert "ghost1" in text and "ghost2" in text \
            and "ghost3" in text
