"""AG-spec lint rules (RPA001/002/003) over toy grammars and the
compiler's own built-in grammars."""

import pytest

from repro.ag import AGSpec, INH, SYN
from repro.analysis import LintEngine


def toy_grammar(extra_syn=False):
    g = AGSpec("toy")
    g.terminals("NUM")
    attrs = [("val", SYN), ("env", INH)]
    if extra_syn:
        attrs.append(("aux", SYN))
    g.nonterminal("expr", *attrs)
    p = g.production("num", "expr -> NUM")
    p.rule("expr.val", "NUM.value", "expr.env",
           fn=lambda v, e: v + e.get("bias", 0))
    if extra_syn:
        p.const("expr.aux", 0)
    return g.finish()


def copy_chain_grammar():
    """``s -> a -> b -> c -> NUM``: ``a`` sets the inherited ``DEPTH``,
    implicit copy rules carry it down to ``b`` and ``c``, and nothing
    a goal needs reads it."""
    g = AGSpec("chain")
    g.terminals("NUM")
    g.attr_class("DEPTH", INH)
    g.nonterminal("s", ("val", SYN))
    for nt in ("a", "b", "c"):
        g.nonterminal(nt, ("val", SYN), "DEPTH")
    p = g.production("s_a", "s -> a")
    p.copy("s.val", "a.val")
    p.const("a.DEPTH", 0)
    p = g.production("a_b", "a -> b")
    p.copy("a.val", "b.val")
    p = g.production("b_c", "b -> c")
    p.copy("b.val", "c.val")
    p = g.production("c_num", "c -> NUM")
    p.rule("c.val", "NUM.value", fn=lambda v: v)
    return g.finish()


def circular_grammar():
    g = AGSpec("circ")
    g.terminals("A")
    g.nonterminal("s", ("x", SYN))
    g.nonterminal("t", ("down", INH), ("up", SYN))
    p = g.production("s_t", "s -> t")
    p.copy("s.x", "t.up")
    p.copy("t.down", "t.up")
    p = g.production("t_a", "t -> A")
    p.copy("t.up", "t.down")
    return g.finish()


class TestRPA001:
    def test_entry_supplied_inherited_is_clean(self):
        findings = LintEngine().lint_ag(
            toy_grammar(), entry_inherited=["env"], goals=["val"])
        assert findings == []

    def test_unsupplied_inherited_is_flagged(self):
        findings = LintEngine(select=["RPA001"]).lint_ag(
            toy_grammar(), goals=["val"])
        assert [d.code for d in findings] == ["RPA001"]
        assert "expr.env" in findings[0].message


class TestRPA002:
    def test_computed_but_never_read_is_flagged(self):
        findings = LintEngine(select=["RPA002"]).lint_ag(
            toy_grammar(extra_syn=True),
            entry_inherited=["env"], goals=["val"])
        assert [d.code for d in findings] == ["RPA002"]
        assert "expr.aux" in findings[0].message

    def test_goal_attributes_are_exempt(self):
        findings = LintEngine(select=["RPA002"]).lint_ag(
            toy_grammar(extra_syn=True),
            entry_inherited=["env"], goals=["val", "aux"])
        assert findings == []

    def test_copy_chain_no_goal_reads_is_flagged_whole(self):
        # Each DEPTH copy reads the one above it, so a check of reads
        # alone would flag only c.DEPTH, the end of the chain.
        findings = LintEngine(select=["RPA002"]).lint_ag(
            copy_chain_grammar(), goals=["val"])
        assert [d.message for d in findings] == [
            "attribute %s.DEPTH is not reachable from any goal" % nt
            for nt in ("a", "b", "c")]

    def test_empty_goals_means_all_root_outputs(self):
        findings = LintEngine(select=["RPA002"]).lint_ag(
            toy_grammar(extra_syn=True), entry_inherited=["env"])
        assert findings == []


class TestRPA003:
    def test_circular_grammar_flagged_as_error(self):
        findings = LintEngine(select=["RPA003"]).lint_ag(
            circular_grammar())
        assert [d.code for d in findings] == ["RPA003"]
        assert findings[0].severity == "error"
        assert "circular" in findings[0].message

    def test_noncircular_grammar_is_clean(self):
        findings = LintEngine(select=["RPA003"]).lint_ag(
            toy_grammar(), entry_inherited=["env"])
        assert findings == []

    def test_reported_cycle_is_deterministic(self):
        messages = {
            LintEngine(select=["RPA003"]).lint_ag(
                circular_grammar())[0].message
            for _ in range(5)
        }
        assert len(messages) == 1


class TestBuiltinGrammars:
    def test_principal_grammar_has_no_rpa001_or_rpa003(self):
        from repro.vhdl.grammar import principal_grammar

        findings = LintEngine(
            select=["RPA001", "RPA003"]).lint_ag(
            principal_grammar(), entry_inherited=["CC"],
            goals=["UNITS", "MSGS"])
        assert findings == []

    def test_expr_grammar_has_no_rpa001_or_rpa003(self):
        from repro.vhdl.expr_grammar import expr_grammar

        findings = LintEngine(
            select=["RPA001", "RPA003"]).lint_ag(
            expr_grammar(), entry_inherited=["CTX"], goals=["GOAL"])
        assert findings == []

    @pytest.mark.parametrize("name", ["principal", "expr"])
    def test_builtin_grammar_is_clean_under_every_rpa_rule(self, name):
        # The entry and goal sets `repro lint --ag` uses.
        from repro.cli import _builtin_ag

        grammar, entry, goals = _builtin_ag(name)
        assert LintEngine(select=["RPA"]).lint_ag(
            grammar, entry_inherited=entry, goals=goals) == []
