"""Parse-tree node layout: attribute instances live in fixed slots.

Each nonterminal's nodes are instances of one class built when the
translator is generated, whose slots are exactly the symbol's declared
attributes; no node has a ``__dict__``, and an attribute name a slot
cannot hold is refused at generation time.
"""

import pytest

from repro.ag import AGSpec, AttributeError_, SYN, Token
from repro.ag.lr.parser import MISSING, ParseTree
from repro.vhdl.compiler import Compiler
from repro.vhdl.expr_grammar import expr_grammar
from repro.vhdl.grammar import principal_grammar

RING = """
entity ring is end ring;
architecture rtl of ring is
  signal c0 : integer := 0;
  signal c1 : integer := 0;
  signal c2 : integer := 0;
begin
  p0: process (c0) begin c1 <= 1 - c1 after 1 ns; end process;
  p1: process begin wait on c1; c2 <= 1 - c2 after 1 ns; end process;
  p2: process begin wait on c2; c0 <= 1 - c0 after 1 ns; end process;
end rtl;
"""


def _nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in node.children if isinstance(c, ParseTree))


@pytest.fixture(scope="module")
def evaluated_trees():
    """The principal tree and every cascaded expression tree of one
    ring compile, kept alive past the compile: each is released once
    evaluated, and the release records it."""
    roots = []
    release = ParseTree.release

    def recording(self):
        roots.append(self)
        release(self)

    ParseTree.release = recording
    try:
        assert Compiler().compile(RING, filename="ring.vhd").ok
    finally:
        ParseTree.release = release
    return roots


def test_no_node_of_an_evaluated_ring_tree_has_a_dict(evaluated_trees):
    by_start = {g.grammar.start.name: g
                for g in (principal_grammar(), expr_grammar())}
    starts = [root.symbol.name for root in evaluated_trees]
    assert starts.count("design_file") == 1 and "goal" in starts
    count = 0
    for root in evaluated_trees:
        classes = by_start[root.symbol.name].node_classes
        for node in _nodes(root):
            count += 1
            assert not hasattr(node, "__dict__"), node
            assert type(node) is classes[node.symbol.name]
    assert count > 100
    principal = evaluated_trees[starts.index("design_file")]
    assert principal.UNITS is not MISSING


@pytest.mark.parametrize("make", [principal_grammar, expr_grammar],
                         ids=["principal", "expr"])
def test_node_class_slots_are_the_declared_attributes(make):
    compiled = make()
    nonterminals = compiled.grammar.nonterminals
    assert set(compiled.node_classes) == {s.name for s in nonterminals}
    for sym in nonterminals:
        cls = compiled.node_classes[sym.name]
        declared = tuple(compiled.attr_table.of(sym))
        assert issubclass(cls, ParseTree)
        assert cls.__slots__ == declared


def _finish_one_attribute_ag(name):
    """Generate ``s -> A`` with one attribute ``name`` on ``s``, an
    instance of a class whose unit element defines it implicitly."""
    g = AGSpec("one_attribute")
    g.terminals("A")
    g.attr_class(name, SYN, merge=lambda a, b: a + b, unit=0)
    g.nonterminal("s", name)
    g.production("s_a", "s -> A")
    return g.finish()


@pytest.mark.parametrize("name", ["N", "MISSING", "ParseTree", "self"])
def test_an_ordinary_attribute_name_is_a_slot(name):
    compiled = _finish_one_attribute_ag(name)
    assert compiled.node_classes["s"].__slots__ == (name,)
    tree = compiled.parse([Token("A", "a")])
    assert getattr(tree, name) is MISSING
    assert tree.children == (Token("A", "a"),) and tree.line == 0
    assert compiled.evaluate(tree) == {name: 0}


@pytest.mark.parametrize("name", [
    "line", "children", "parent", "child_index", "production",
    "release", "symbol", "pretty", "__x", "__dict__",
])
def test_clashing_attribute_name_is_refused(name):
    with pytest.raises(AttributeError_, match="cannot be a node slot"):
        _finish_one_attribute_ag(name)


@pytest.mark.parametrize("name", ["not-an-id", "9lives", "a b", ""])
def test_non_identifier_attribute_name_is_refused(name):
    with pytest.raises(AttributeError_, match="cannot be a node slot"):
        _finish_one_attribute_ag(name)


def test_slots_start_missing_and_hold_values():
    g = AGSpec("slots")
    g.terminals("A")
    g.nonterminal("s", ("val", SYN), ("twice", SYN))
    p = g.production("s_a", "s -> A")
    p.rule("s.val", "A.text", fn=len)
    p.rule("s.twice", "s.val", fn=lambda v: 2 * v)
    compiled = g.finish()
    tree = compiled.parse([Token("A", "abc")])
    assert type(tree) is compiled.node_classes["s"]
    assert tree.val is MISSING and tree.twice is MISSING
    assert compiled.evaluate(tree, goals=["twice"]) == {"twice": 6}
    assert (tree.val, tree.twice) == (3, 6)
    assert tree.children == (Token("A", "abc"),)
