"""AG observability: rule-firing counters, memo stats, cycle explanation."""

import pytest

from repro.ag import (
    AGSpec,
    CircularityError,
    INH,
    StaticEvaluator,
    SYN,
    Token,
)
from repro.diag import AGObserver, explain_cycle

from ..ag.calc_fixture import make_compiled, make_lexer


@pytest.fixture(scope="module")
def calc():
    return make_compiled()


@pytest.fixture(scope="module")
def lexer():
    return make_lexer()


class TestDynamicObserver:
    def test_counts_rule_firings(self, calc, lexer):
        obs = AGObserver()
        out = calc.run(lexer.scan("2 + 3 * 4"), inherited={"env": {}},
                       observer=obs)
        assert out["val"] == 14
        # each production fires once per instance per rule (the `val`
        # rule plus the implicit NODES merge rule both count)
        assert obs.rule_firings["e_add"] >= 1
        assert obs.rule_firings["t_mul"] >= 1
        assert obs.rule_firings["f_num"] >= 3
        assert obs.total_firings == sum(obs.rule_firings.values())
        assert obs.grammar_firings["calc"] == obs.total_firings

    def test_memo_hits_on_repeated_demand(self, calc, lexer):
        from repro.ag.evaluator import DynamicEvaluator

        obs = AGObserver()
        tree = calc.parse(lexer.scan("1 + 2"))
        evaluator = DynamicEvaluator(calc, {"env": {}}, observer=obs)
        evaluator.goal_attributes(tree)
        misses = obs.cache_misses
        assert misses > 0 and obs.cache_hits == 0
        evaluator.goal_attributes(tree)  # everything memoized now
        assert obs.cache_misses == misses
        assert obs.cache_hits > 0
        assert 0.0 < obs.hit_rate < 1.0

    def test_memo_hit_when_one_attribute_feeds_two_rules(self, calc,
                                                         lexer):
        # The root's env feeds the env copy rules of both operands:
        # the second read finds it computed.
        obs = AGObserver()
        out = calc.run(lexer.scan("a + b"),
                       inherited={"env": {"a": 1, "b": 2}},
                       observer=obs)
        assert out["val"] == 3
        assert obs.cache_hits > 0
        assert obs.cache_misses == obs.total_firings

    def test_no_observer_is_default(self, calc, lexer):
        out = calc.run(lexer.scan("1 + 1"), inherited={"env": {}})
        assert out["val"] == 2


class TestStaticObserver:
    def test_counts_visits_and_firings(self, calc, lexer):
        obs = AGObserver()
        tree = calc.parse(lexer.scan("2 * (3 + 4)"))
        out = StaticEvaluator(calc, {"env": {}},
                              observer=obs).goal_attributes(tree)
        assert out["val"] == 14
        assert obs.total_firings > 0
        assert sum(obs.visits.values()) > 0
        assert "expr" in obs.visits


class TestCompilerObserver:
    """The compiler's observer sees the cascaded exprEval firings
    (§4.1) as well as the principal AG's."""

    def test_both_grammars_report(self):
        from pathlib import Path

        from repro.vhdl.compiler import Compiler

        path = Path(__file__).parents[2] / "examples" / "metrics_demo.vhd"
        compiler = Compiler()
        compiler.compile(path.read_text(), filename=str(path))
        obs = compiler.observer
        # 360 principal firings: the 343 counted before the expression
        # AG reported to the compiler's observer (threading the
        # observer through adds the nested firings and changes none of
        # these), plus one per closing designator the unit, process
        # and block rules now check (2 names, 3 omitted), plus three
        # per concurrent statement that place it in its region (4
        # statements: the count, the position and its copy).
        assert obs.grammar_firings["vhdl_principal"] == 360
        assert obs.grammar_firings["vhdl_expr"] > 0
        assert obs.total_firings == sum(obs.grammar_firings.values())


class TestAggregation:
    def test_top_productions(self):
        obs = AGObserver()
        obs.fired("g").update({"a": 5, "b": 7, "c": 1})
        obs.fired("h").update({"b": 2})
        assert obs.top_productions(2) == [("b", 9), ("a", 5)]
        assert obs.grammar_firings == {"g": 13, "h": 2}
        assert obs.total_firings == obs.cache_misses == 15

    def test_summary(self, calc, lexer):
        obs = AGObserver()
        calc.run(lexer.scan("1 + 2"), inherited={"env": {}},
                 observer=obs)
        text = obs.summary()
        assert "rule firing" in text
        assert "hit rate" in text
        assert "e_add" in text

    def test_hit_rate_empty(self):
        assert AGObserver().hit_rate == 0.0


def circular_grammar():
    """up <- down <- up: circular in every tree (runtime-detected)."""
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


class TestExplainCycle:
    def test_runtime_cycle_explained(self):
        compiled = circular_grammar()
        with pytest.raises(CircularityError) as info:
            compiled.run([Token("A", "a", line=7)])
        text = explain_cycle(info.value)
        assert text.startswith("circularity:")
        assert "attribute dependency cycle" in text
        assert "t.up" in text
        assert "t.down" in text
        assert "the cycle closes" in text
        # the demanded-while-computing arrows link the instances
        assert "demanded while computing" in text

    def test_empty_cycle(self):
        text = explain_cycle(CircularityError("c", cycle=[]))
        assert "(no cycle recorded)" in text
