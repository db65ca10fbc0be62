"""Fixture-driven rule tests: one defective + one clean design per
rule, asserting true-positive and true-negative behaviour."""

import pytest

from repro.analysis import REGISTRY, LintEngine
from repro.diag.diagnostic import CODE_DESCRIPTIONS, ERROR, WARNING

from .conftest import lint_fixture

#: (defective fixture, expected rule ids) — RPL006 designs also
#: trip RPL004 by construction (same wait-less loop).
BAD_FIXTURES = [
    ("rpl001_bad.vhd", {"RPL001"}),
    ("rpl002_bad.vhd", {"RPL002"}),
    ("rpl003_bad.vhd", {"RPL003"}),
    ("rpl004_bad.vhd", {"RPL004", "RPL006"}),
    ("rpl005_bad.vhd", {"RPL005"}),
    ("rpl006_bad.vhd", {"RPL004", "RPL006"}),
    ("rpl006_case_bad.vhd", {"RPL004", "RPL006"}),
]

CLEAN_FIXTURES = [
    "rpl001_clean.vhd",
    "rpl002_clean.vhd",
    "rpl003_clean.vhd",
    "rpl004_clean.vhd",
    "rpl005_clean.vhd",
    "rpl006_clean.vhd",
]


class TestSeededDefects:
    @pytest.mark.parametrize("fixture,expected", BAD_FIXTURES)
    def test_defect_flagged_with_expected_rule(self, fixture,
                                               expected):
        findings = lint_fixture(fixture)
        assert {d.code for d in findings} == expected

    @pytest.mark.parametrize("fixture,expected", BAD_FIXTURES)
    def test_findings_are_anchored(self, fixture, expected):
        for diag in lint_fixture(fixture):
            assert diag.span is not None
            assert diag.span.file.endswith(fixture)
            assert diag.span.line is not None

    @pytest.mark.parametrize("fixture", CLEAN_FIXTURES)
    def test_clean_design_has_zero_findings(self, fixture):
        assert lint_fixture(fixture) == []


class TestRpl003CrossUnit:
    """Signals used only *through an instance port map in another
    unit* are used: RPL003 must look at the whole library, not just
    the declaring unit."""

    def test_port_mapped_package_signal_is_not_unused(self):
        assert lint_fixture("rpl003_xunit_clean.vhd") == []

    def test_truly_unreferenced_package_signal_still_fires(self):
        findings = lint_fixture("rpl003_xunit_bad.vhd")
        assert [(d.code, d.message) for d in findings] == \
            [("RPL003", "signal 'bus_s' is never used")]


class TestRuleDetails:
    def test_rpl001_names_the_missing_signal(self):
        (diag,) = lint_fixture("rpl001_bad.vhd")
        assert "'b_in'" in diag.message
        assert "comb" in diag.message
        # related location points at the declaration
        assert any("b_in" in m for m, _ in diag.related)

    def test_rpl002_cites_the_declaration_line(self):
        (diag,) = lint_fixture("rpl002_bad.vhd")
        assert diag.severity == ERROR
        assert diag.span.line == 7  # "signal x : bit;"
        assert "2 drivers" in diag.message
        # both driving processes appear as related locations
        related = " / ".join(m for m, _ in diag.related)
        assert "p1" in related and "p2" in related

    def test_rpl002_counts_instance_drivers(self, lint_source):
        src = """
entity drv is
  port (o : out bit);
end drv;
architecture a of drv is
begin
  p : process begin o <= '1'; wait; end process;
end a;
entity top is end top;
architecture s of top is
  component drv
    port (o : out bit);
  end component;
  signal net, obs : bit;
begin
  u1 : drv port map (o => net);
  u2 : drv port map (o => net);
  m : process (net) begin obs <= net; end process;
  m2 : process (obs) begin assert obs = '0' or obs = '1';
  end process;
end s;
"""
        findings = lint_source(src)
        assert {d.code for d in findings} == {"RPL002"}
        (diag,) = findings
        assert "net" in diag.message

    @pytest.mark.parametrize("fixture,count", [
        ("rpl004_bad.vhd", 1),
        ("rpl006_bad.vhd", 2),
        # one VHDL case statement, whatever its generated code takes
        ("rpl006_case_bad.vhd", 1),
    ])
    def test_rpl006_counts_vhdl_statements(self, fixture, count):
        (diag,) = [d for d in lint_fixture(fixture) if d.code == "RPL006"]
        assert diag.message == (
            "process 'spin' has %d unreachable statement(s) after a "
            "wait-less infinite loop" % count)

    def test_rpl005_both_directions(self, lint_source):
        src = """
entity e is
  port (d : in bit; q : out bit);
end e;
architecture a of e is
begin
  p : process (q)
  begin
    d <= '0';
  end process;
end a;
"""
        findings = lint_source(src)
        codes = sorted(d.code for d in findings)
        assert codes == ["RPL005", "RPL005"]
        texts = " / ".join(d.message for d in findings)
        assert "drives port 'd'" in texts
        assert "waits on port 'q'" in texts

    def test_severities(self):
        assert REGISTRY["RPL001"].severity == WARNING
        assert REGISTRY["RPL002"].severity == ERROR
        assert REGISTRY["RPL003"].severity == WARNING
        assert REGISTRY["RPL004"].severity == ERROR
        assert REGISTRY["RPL005"].severity == ERROR
        assert REGISTRY["RPL006"].severity == WARNING


class TestSelection:
    def test_select_prefix(self):
        findings = lint_fixture("rpl004_bad.vhd",
                                select=["RPL004"])
        assert {d.code for d in findings} == {"RPL004"}

    def test_ignore_prefix(self):
        findings = lint_fixture("rpl004_bad.vhd", ignore=["RPL"])
        assert findings == []

    def test_ignore_beats_select(self):
        findings = lint_fixture("rpl004_bad.vhd", select=["RPL"],
                                ignore=["RPL006"])
        assert {d.code for d in findings} == {"RPL004"}


class TestRegistry:
    def test_all_rule_ids_catalogued_for_sarif(self):
        for rule_id, rule in REGISTRY.items():
            assert rule_id in CODE_DESCRIPTIONS
            assert CODE_DESCRIPTIONS[rule_id] == rule.summary

    def test_expected_rules_registered(self):
        assert {"RPL001", "RPL002", "RPL003", "RPL004", "RPL005",
                "RPL006", "RPA001", "RPA002",
                "RPA003"} <= set(REGISTRY)

    def test_examples_directory_is_lint_clean(self, lint_source):
        import glob
        import os

        from .conftest import FIXTURES

        examples = os.path.join(os.path.dirname(FIXTURES),
                                "..", "..", "examples")
        for path in sorted(glob.glob(os.path.join(examples,
                                                  "*.vhd"))):
            with open(path) as fh:
                assert lint_source(fh.read(), path) == [], path


class TestMetrics:
    def test_findings_counted_per_rule(self):
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()
        lint_fixture("rpl004_bad.vhd", metrics=registry)
        snap = registry.snapshot()
        assert snap["schema"] == "repro-metrics/1"
        metric = snap["metrics"]["lint_findings_total"]
        assert metric["type"] == "counter"
        by_rule = {
            s["labels"]["rule"]: s["value"]
            for s in metric["samples"] if s.get("labels")
        }
        assert by_rule == {"RPL004": 1, "RPL006": 1}
