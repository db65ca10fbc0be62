"""Design-scope dataflow rules and the levelization pass.

Everything here runs on the flattened :class:`DesignGraph`; the key
property exercised throughout is that these checks see *through*
instance boundaries — per-unit lint on the same sources stays silent
while the design-scope rules fire.
"""

import json

from repro.analysis import LintEngine
from repro.analysis.dataflow import (
    combinational_loops,
    cyclic_signals,
    levelize,
    levels_artifact,
    tarjan_scc,
)
from repro.request import analyze

from .conftest import compile_source
from .test_netlist import CLOCKED_CHAIN, TWO_INSTANCE_LOOP, graph_for


def design_findings(source, top, select=(), ignore=()):
    compiler = compile_source(source)
    return analyze(compiler.library, top, select=select,
                   ignore=ignore).findings


def codes(findings):
    return sorted(d.code for d in findings)


class TestTarjan:
    @staticmethod
    def sccs_of(graph):
        return tarjan_scc(list(graph), lambda n: graph[n])

    def test_two_cycles_and_a_bridge(self):
        graph = {1: [2], 2: [1, 3], 3: [4], 4: [3], 5: []}
        sccs = [sorted(c) for c in self.sccs_of(graph)]
        nontrivial = sorted(c for c in sccs if len(c) > 1)
        assert nontrivial == [[1, 2], [3, 4]]

    def test_self_loop_is_a_component(self):
        sccs = self.sccs_of({1: [1], 2: [1]})
        assert [1] in sccs

    def test_acyclic_graph_has_only_singletons(self):
        graph = {i: [i + 1] for i in range(50)}
        graph[50] = []
        assert all(len(c) == 1 for c in self.sccs_of(graph))

    def test_deep_chain_does_not_recurse(self):
        # Iterative implementation: a 10k-node path must not hit the
        # interpreter recursion limit.
        n = 10_000
        graph = {i: [i + 1] for i in range(n)}
        graph[n] = [0]  # close one giant cycle
        (scc,) = [c for c in self.sccs_of(graph) if len(c) > 1]
        assert len(scc) == n + 1


class TestCombinationalLoops:
    def test_cross_instance_loop_found(self):
        graph = graph_for(TWO_INSTANCE_LOOP, "looptop")
        (loop,) = combinational_loops(graph)
        signals, procs = loop
        assert [s.path for s in signals] == [":looptop:x", ":looptop:y"]
        assert len(procs) == 2
        assert {s.path for s in cyclic_signals(graph)} == \
            {":looptop:x", ":looptop:y"}

    def test_per_unit_lint_is_silent_on_the_same_sources(self):
        # The loop only exists once the port maps are resolved: each
        # unit on its own is a perfectly clean inverter/netlist.
        compiler = compile_source(TWO_INSTANCE_LOOP)
        engine = LintEngine(library=compiler.library)
        unit_findings = engine.lint_library()
        assert "RPE001" not in codes(unit_findings)

    def test_clocked_feedback_is_not_a_loop(self):
        graph = graph_for(CLOCKED_CHAIN, "chain")
        assert combinational_loops(graph) == []

    def test_rpe001_severity_and_span(self):
        findings = design_findings(TWO_INSTANCE_LOOP, "looptop")
        (loop,) = [d for d in findings if d.code == "RPE001"]
        assert loop.severity == "error"
        assert ":looptop:x" in loop.message
        assert ":looptop:y" in loop.message
        assert loop.related, "cycle-closing processes must be cited"

    def test_rpe001_message_elides_long_cycles(self):
        n = 24
        assigns = "\n".join(
            "  a%d : c%d <= not c%d;" % (i, (i + 1) % n, i)
            for i in range(n))
        decls = ", ".join("c%d" % i for i in range(n))
        source = ("entity ring is end ring;\n"
                  "architecture a of ring is\n"
                  "  signal %s : bit;\nbegin\n%s\nend a;\n"
                  % (decls, assigns))
        findings = design_findings(source, "ring", select=("RPE001",))
        (loop,) = findings
        assert "(%d more)" % (n - 8) in loop.message
        assert len(loop.related) <= 8


RACE = """
entity race is end race;
architecture a of race is
  signal x : integer := 0;
begin
  p1 : process
  begin
    x <= 1;
    wait for 10 ns;
  end process;
  p2 : process
  begin
    x <= 2;
    wait for 10 ns;
  end process;
end a;
"""


class TestStaticRace:
    def test_two_unresolved_drivers_is_an_error(self):
        findings = design_findings(RACE, "race", select=("RPE002",))
        (race,) = findings
        assert race.severity == "error"
        assert "x" in race.message
        assert len(race.related) >= 1

    def test_resolved_signal_downgrades_to_note(self):
        resolved_decl = (
            "function pick (vals : intvec) return integer is\n"
            "  begin\n"
            "    return vals(vals'left);\n"
            "  end pick;\n"
            "  subtype rint is pick integer;\n"
            "  signal x : rint := 0;")
        source = RACE.replace(
            "signal x : integer := 0;", resolved_decl).replace(
            "architecture a of race is",
            "architecture a of race is\n"
            "  type intvec is array (natural range <>) of integer;")
        findings = design_findings(source, "race", select=("RPE002",))
        (race,) = findings
        assert race.severity == "note"
        assert "resolved" in race.message

    def test_single_driver_is_clean(self):
        findings = design_findings(CLOCKED_CHAIN, "chain",
                                   select=("RPE002",))
        assert findings == []


CDC = """
entity cdc is end cdc;
architecture a of cdc is
  signal clka : bit := '0';
  signal clkb : bit := '0';
  signal da : integer := 0;
  signal db : integer := 0;
begin
  gena : process begin clka <= not clka after 3 ns; wait on clka; end process;
  genb : process begin clkb <= not clkb after 7 ns; wait on clkb; end process;
  rega : process (clka)
  begin
    if clka'event and clka = '1' then da <= da + 1; end if;
  end process;
  regb : process (clkb)
  begin
    if clkb'event and clkb = '1' then db <= da + db; end if;
  end process;
end a;
"""


class TestClockDomains:
    def test_cross_clock_transfer_warns(self):
        findings = design_findings(CDC, "cdc", select=("RPE003",))
        (cdc,) = findings
        assert cdc.severity == "warning"
        assert "da" in cdc.message
        assert "clk" in cdc.message

    def test_two_flop_synchronizer_is_exempt(self):
        # A reader whose only data read is the crossing signal and
        # which drives a single target is the first stage of a
        # synchronizer — the standard idiom, not a bug.
        source = CDC.replace("db <= da + db;", "db <= da;")
        findings = design_findings(source, "cdc", select=("RPE003",))
        assert findings == []

    def test_same_domain_transfer_is_clean(self):
        source = CDC.replace("process (clkb)", "process (clka)") \
                    .replace("clkb'event and clkb", "clka'event and clka")
        findings = design_findings(source, "cdc", select=("RPE003",))
        assert findings == []


DEAD_CONE = """
entity cone is end cone;
architecture a of cone is
  signal cst : integer := 3;
  signal alive : integer := 0;
  signal dead : integer := 0;
begin
  drv : process (cst)
  begin
    alive <= cst + 1;
    dead <= cst - 1;
  end process;
  obs : process (alive)
  begin
    assert alive >= 0;
  end process;
end a;
"""


class TestDeadCone:
    def test_dead_and_constant_signals_noted(self):
        findings = design_findings(DEAD_CONE, "cone",
                                   select=("RPE004",))
        by_code = {}
        for d in findings:
            by_code.setdefault(d.code, []).append(d.message)
        messages = by_code["RPE004"]
        assert any("dead cone" in m and ":cone:dead" in m
                   for m in messages)
        assert any("statically" in m and ":cone:cst" in m
                   for m in messages)
        assert not any(":cone:alive" in m for m in messages)
        assert all(d.severity == "note" for d in findings)

    def test_top_ports_are_live_by_definition(self):
        source = """
        entity io is
          port (din : in integer; dout : out integer);
        end io;
        architecture a of io is
        begin
          dout <= din + 1;
        end a;
        """
        findings = design_findings(source, "io", select=("RPE004",))
        assert findings == []


class TestLevelization:
    def test_levels_topologically_sort_the_comb_edges(self):
        graph = graph_for(CLOCKED_CHAIN, "chain")
        levels, order, cyclic = levelize(graph)
        assert cyclic == []
        for src, dst, _proc in graph.comb_edges():
            assert levels[dst] > levels[src], (src.path, dst.path)

    def test_chain_levels_and_eval_order(self):
        graph = graph_for(CLOCKED_CHAIN, "chain")
        levels, order, _ = levelize(graph)
        by_path = {s.path: lvl for s, lvl in levels.items()}
        assert by_path[":chain:count"] == 0
        assert by_path[":chain:s1"] == 1
        assert by_path[":chain:s2"] == 2
        assert [p.label for p in order] == ["c1", "c2"]

    def test_cyclic_signals_are_quarantined(self):
        graph = graph_for(TWO_INSTANCE_LOOP, "looptop")
        levels, order, cyclic = levelize(graph)
        assert {s.path for s in cyclic} == \
            {":looptop:x", ":looptop:y"}
        assert order == []
        assert all(s in cyclic or lvl >= 0
                   for s, lvl in levels.items())

    def test_levels_artifact_schema_and_roundtrip(self):
        graph = graph_for(CLOCKED_CHAIN, "chain")
        artifact = levels_artifact(graph)
        # Must be JSON-serializable as produced.
        blob = json.loads(json.dumps(artifact))
        assert blob["schema"] == "repro-levels/1"
        assert blob["top"] == ":chain"
        assert blob["cyclic"] == []
        assert blob["signals"] == 4
        assert blob["processes"] == 5
        level_of = {}
        for entry in blob["levels"]:
            for path in entry["signals"]:
                level_of[path] = entry["level"]
        assert level_of[":chain:s2"] == 2
        assert blob["eval_order"] == [":chain:c1", ":chain:c2"]


class TestEngineIntegration:
    def test_lint_design_runs_all_rules_with_spans(self):
        findings = design_findings(TWO_INSTANCE_LOOP, "looptop")
        assert "RPE001" in codes(findings)
        # Every design-scope finding is anchored to a source span so
        # renderers (and SARIF) can point at the declaration.
        assert all(d.span is not None for d in findings)
        assert {d.severity for d in findings} == {"error", "note"}

    def test_select_and_ignore_apply_to_design_scope(self):
        only = design_findings(TWO_INSTANCE_LOOP, "looptop",
                               select=("RPE001",))
        assert codes(only) == ["RPE001"]
        none = design_findings(TWO_INSTANCE_LOOP, "looptop",
                               ignore=("RPE001", "RPE004"))
        assert codes(none) == []
