"""Tests for the dynamic evaluator, and agreement with the static one."""

import pytest

from repro.ag import (
    AGSpec,
    CircularityError,
    DynamicEvaluator,
    EvaluationError,
    StaticEvaluator,
    SYN,
    INH,
    Token,
)
from repro.diag import AGObserver

from .calc_fixture import make_compiled, make_lexer


@pytest.fixture(scope="module")
def calc():
    return make_compiled()


@pytest.fixture(scope="module")
def lexer():
    return make_lexer()


class TestDynamicEvaluation:
    def test_arithmetic(self, calc, lexer):
        out = calc.run(lexer.scan("2 + 3 * (4 + 5)"), inherited={"env": {}})
        assert out["val"] == 29

    def test_subtraction_left_assoc(self, calc, lexer):
        out = calc.run(lexer.scan("10 - 3 - 2"), inherited={"env": {}})
        assert out["val"] == 5

    def test_inherited_environment_reaches_leaves(self, calc, lexer):
        out = calc.run(
            lexer.scan("x * y + 1"), inherited={"env": {"x": 6, "y": 7}}
        )
        assert out["val"] == 43

    def test_merge_class_counts_leaves(self, calc, lexer):
        out = calc.run(lexer.scan("1 + 2 * (3 - x)"),
                       inherited={"env": {"x": 0}})
        assert out["NODES"] == 4

    def test_unit_element_on_leafless_derivation(self):
        g = AGSpec("u")
        g.terminals("A")
        g.attr_class("N", SYN, merge=lambda a, b: a + b, unit=7)
        g.nonterminal("s", "N")
        g.production("s_a", "s -> A")
        out = g.finish().run([Token("A", "a")])
        assert out["N"] == 7

    def test_missing_root_inherited_raises(self, calc, lexer):
        # The expression must actually demand env — evaluation is lazy.
        with pytest.raises(EvaluationError) as info:
            calc.run(lexer.scan("x + 1"))
        assert "env" in str(info.value)

    def test_rule_exception_wrapped_with_context(self, calc, lexer):
        with pytest.raises(EvaluationError) as info:
            calc.run(lexer.scan("missing + 1"), inherited={"env": {}})
        assert "f_id" in str(info.value)

    def test_memoization_single_evaluation_per_instance(self, calc, lexer):
        tree = calc.parse(lexer.scan("1 + 2"))
        observer = AGObserver()
        ev = DynamicEvaluator(calc, {"env": {}}, observer=observer)
        ev.goal_attributes(tree)
        first = observer.total_firings
        ev.goal_attributes(tree)
        assert observer.total_firings == first

    def test_deep_tree_no_recursion_error(self, calc, lexer):
        text = "1" + " + 1" * 3000
        out = calc.run(lexer.scan(text), inherited={"env": {}})
        assert out["val"] == 3001


class TestCircularity:
    def make_circular(self):
        g = AGSpec("circ")
        g.terminals("A")
        g.nonterminal("s", ("x", SYN))
        g.nonterminal("t", ("down", INH), ("up", SYN))
        p = g.production("s_t", "s -> t")
        p.copy("s.x", "t.up")
        p.copy("t.down", "t.up")  # down depends on up ...
        p = g.production("t_a", "t -> A")
        p.copy("t.up", "t.down")  # ... and up depends on down: a cycle
        return g.finish()

    def test_dynamic_detects_instance_cycle(self):
        compiled = self.make_circular()
        with pytest.raises(CircularityError) as info:
            compiled.run([Token("A", "a")])
        assert info.value.cycle

    def test_dependency_analysis_detects_cycle(self):
        compiled = self.make_circular()
        from repro.ag.dependency import DependencyAnalysis

        with pytest.raises(CircularityError):
            DependencyAnalysis(compiled).check_noncircular()


class TestStaticAgreement:
    @pytest.mark.parametrize(
        "text",
        [
            "1",
            "1 + 2",
            "2 * 3 + 4",
            "(1 + 2) * (3 + 4)",
            "x + y * x",
            "10 - (2 - 1)",
        ],
    )
    def test_static_matches_dynamic(self, calc, lexer, text):
        env = {"x": 5, "y": 11}
        t1 = calc.parse(lexer.scan(text))
        t2 = calc.parse(lexer.scan(text))
        dyn = DynamicEvaluator(calc, {"env": env}).goal_attributes(t1)
        stat = StaticEvaluator(calc, {"env": env}).goal_attributes(t2)
        assert dyn == stat

    def test_static_deep_tree(self, calc, lexer):
        text = "1" + " + 1" * 2500
        tree = calc.parse(lexer.scan(text))
        out = StaticEvaluator(calc, {"env": {}}).goal_attributes(tree)
        assert out["val"] == 2501


class TestMultiVisitGrammar:
    """A two-visit AG: the classic 'global count distributed back' shape.

    Visit 1 synthesizes a leaf count; the root then feeds it back down
    as an inherited attribute; visit 2 synthesizes labels that use it.
    This is the shape of the paper's symbol-table pattern (collect
    declarations, then distribute the environment).
    """

    def make(self):
        g = AGSpec("two_visit")
        g.terminals("A")
        g.nonterminal("root", ("out", SYN))
        g.nonterminal(
            "list", ("count", SYN), ("total", INH), ("labels", SYN)
        )
        p = g.production("root_list", "root -> list")
        p.copy("list.total", "list.count")
        p.copy("root.out", "list.labels")
        p = g.production("list_more", "list -> list0 A")
        p.rule("list0.count", "list1.count", fn=lambda c: c + 1)
        p.copy("list1.total", "list0.total")
        p.rule(
            "list0.labels", "list1.labels", "list0.total",
            fn=lambda ls, t: ls + [t],
        )
        p = g.production("list_one", "list -> A")
        p.const("list.count", 1)
        p.rule("list.labels", "list.total", fn=lambda t: [t])
        return g.finish()

    def test_dynamic(self):
        compiled = self.make()
        out = compiled.run([Token("A", "a")] * 4)
        assert out["out"] == [4, 4, 4, 4]

    def test_static(self):
        compiled = self.make()
        tree = compiled.parse([Token("A", "a")] * 4)
        out = StaticEvaluator(compiled).goal_attributes(tree)
        assert out["out"] == [4, 4, 4, 4]

    def test_visit_count_is_two(self):
        compiled = self.make()
        assert compiled.analyze().visits["list"] == 2
        assert compiled.statistics().max_visits == 2
