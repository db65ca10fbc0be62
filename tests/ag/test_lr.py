"""Tests for the LALR(1) generator: FIRST sets, automaton, tables,
conflicts, precedence, and the parser driver."""

import pytest

from repro.ag import ConflictError, ParseError, Token
from repro.ag.grammar import Grammar
from repro.ag.lr import build_tables, Parser
from repro.ag.lr.grammar_ops import compute_first, compute_nullable
from repro.ag.lr.items import LR0Automaton


def toks(*kinds):
    return [Token(k, k.lower()) for k in kinds]


def expr_grammar():
    g = Grammar("expr")
    for t in ("PLUS", "TIMES", "LP", "RP", "ID"):
        g.terminal(t)
    g.add_production("e_add", "E", ["E", "PLUS", "T"])
    g.add_production("e_t", "E", ["T"])
    g.add_production("t_mul", "T", ["T", "TIMES", "F"])
    g.add_production("t_f", "T", ["F"])
    g.add_production("f_paren", "F", ["LP", "E", "RP"])
    g.add_production("f_id", "F", ["ID"])
    return g


class TestGrammarOps:
    def test_nullable_empty_production(self):
        g = Grammar("g")
        g.terminal("A")
        g.add_production("x_eps", "X", [])
        g.add_production("y_x", "Y", ["X", "X"])
        g.add_production("z", "Z", ["A", "X"])
        nullable = compute_nullable(g)
        names = {s.name for s in nullable}
        assert names == {"X", "Y"}

    def test_first_sets(self):
        g = expr_grammar()
        first = compute_first(g)
        e_first = {s.name for s in first[g.symbol("E")]}
        assert e_first == {"LP", "ID"}

    def test_first_through_nullable(self):
        g = Grammar("g")
        g.terminal("A")
        g.terminal("B")
        g.add_production("x_eps", "X", [])
        g.add_production("x_a", "X", ["A"])
        g.add_production("y", "Y", ["X", "B"])
        first = compute_first(g)
        y_first = {s.name for s in first[g.symbol("Y")]}
        assert y_first == {"A", "B"}


class TestAutomaton:
    def test_state_count_is_stable(self):
        a1 = LR0Automaton(expr_grammar())
        a2 = LR0Automaton(expr_grammar())
        assert len(a1) == len(a2)
        assert len(a1) > 5

    def test_start_state_closure_contains_all_e_productions(self):
        g = expr_grammar()
        auto = LR0Automaton(g)
        closure = auto.closure(auto.states[0])
        labels = {g.productions[i].label for i, dot in closure if dot == 0}
        assert {"e_add", "e_t", "t_mul", "t_f", "f_paren", "f_id"} <= labels


class TestTables:
    def test_unambiguous_grammar_builds_cleanly(self):
        tables = build_tables(expr_grammar())
        assert tables.conflicts == []

    def test_parse_respects_precedence_structure(self):
        tables = build_tables(expr_grammar())
        parser = Parser(tables)
        tree = parser.parse(toks("ID", "PLUS", "ID", "TIMES", "ID"))
        # Tree must be (E + (T * F)): the top production is e_add.
        assert tree.production.label == "e_add"
        rhs_term = tree.children[2]
        assert rhs_term.production.label == "t_mul"

    def test_ambiguous_grammar_raises_conflict_error(self):
        g = Grammar("amb")
        g.terminal("PLUS")
        g.terminal("ID")
        g.add_production("e_add", "E", ["E", "PLUS", "E"])
        g.add_production("e_id", "E", ["ID"])
        with pytest.raises(ConflictError) as info:
            build_tables(g)
        assert info.value.conflicts

    def test_allow_conflicts_applies_yacc_defaults(self):
        g = Grammar("amb")
        g.terminal("PLUS")
        g.terminal("ID")
        g.add_production("e_add", "E", ["E", "PLUS", "E"])
        g.add_production("e_id", "E", ["ID"])
        tables = build_tables(g, allow_conflicts=True)
        assert any(c.kind == "shift/reduce" for c in tables.conflicts)
        # Default resolution prefers shift: a+b+c parses right-associated.
        tree = Parser(tables).parse(toks("ID", "PLUS", "ID", "PLUS", "ID"))
        assert tree.children[0].production.label == "e_id"

    def test_precedence_resolves_dangling_operator(self):
        g = Grammar("prec")
        g.terminal("PLUS")
        g.terminal("TIMES")
        g.terminal("ID")
        g.set_precedence("left", "PLUS")
        g.set_precedence("left", "TIMES")
        g.add_production("e_add", "E", ["E", "PLUS", "E"])
        g.add_production("e_mul", "E", ["E", "TIMES", "E"])
        g.add_production("e_id", "E", ["ID"])
        tables = build_tables(g)
        assert all(c.resolution == "precedence" for c in tables.conflicts)
        tree = Parser(tables).parse(toks("ID", "PLUS", "ID", "TIMES", "ID"))
        assert tree.production.label == "e_add"
        # Left associativity: a+b+c groups to the left.
        tree = Parser(tables).parse(toks("ID", "PLUS", "ID", "PLUS", "ID"))
        assert tree.children[0].production.label == "e_add"


class TestParser:
    def test_parse_error_lists_expectations(self):
        parser = Parser(build_tables(expr_grammar()))
        with pytest.raises(ParseError) as info:
            parser.parse(toks("ID", "PLUS", "PLUS"))
        assert "PLUS" in str(info.value) or "expected" in str(info.value)

    def test_parse_error_on_truncated_input(self):
        parser = Parser(build_tables(expr_grammar()))
        with pytest.raises(ParseError):
            parser.parse(toks("LP", "ID"))

    def test_empty_production_builds_empty_node(self):
        g = Grammar("opt")
        g.terminal("A")
        g.add_production("s", "S", ["X", "A"])
        g.add_production("x_eps", "X", [])
        parser = Parser(build_tables(g))
        tree = parser.parse(toks("A"))
        assert tree.children[0].production.label == "x_eps"
        assert tree.children[0].children == ()

    def test_tree_parent_links(self):
        parser = Parser(build_tables(expr_grammar()))
        tree = parser.parse(toks("ID", "PLUS", "ID"))
        child = tree.children[0]
        assert child.parent is tree
        assert child.child_index == 1

    def test_tree_line_numbers(self):
        parser = Parser(build_tables(expr_grammar()))
        tokens = [
            Token("ID", "a", line=3),
            Token("PLUS", "+", line=4),
            Token("ID", "b", line=4),
        ]
        tree = parser.parse(tokens)
        assert tree.line == 3

    def test_deep_left_recursion(self):
        # 2000 additions: the driver must be iterative.
        tokens = toks("ID")
        for _ in range(2000):
            tokens += toks("PLUS", "ID")
        parser = Parser(build_tables(expr_grammar()))
        tree = parser.parse(tokens)
        assert tree.production.label == "e_add"

    def test_count_nodes(self):
        parser = Parser(build_tables(expr_grammar()))
        tree = parser.parse(toks("ID", "PLUS", "ID"))
        # e_add, e_t? no: E -> E + T with E -> T -> F -> ID on left.
        assert tree.count_nodes() == 6
