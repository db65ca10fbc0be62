"""Table-driven LR parser building the tree attribute evaluation walks.

The parse tree deliberately keeps every occurrence — including
terminals — because semantic rules may reference token values
("incorporating values associated with tokens into attribute
evaluation", §4.1).  Attribute storage lives on the nodes themselves,
in fixed slots, as in the node records Linguist generates (§4): each
nonterminal gets its own :class:`ParseTree` subclass
(:func:`node_class`) when the translator is generated, and the
evaluators in :mod:`repro.ag.evaluator` and
:mod:`repro.ag.static_eval` fill the slots in.
"""

from types import FunctionType

from ..errors import AttributeError_, ParseError
from ..lexer import Token
from .tables import SHIFT, REDUCE, ACCEPT

#: The value of every attribute slot whose instance is not computed
#: yet: a miss is an identity compare, never a raised exception.
MISSING = object()


class ParseTree:
    """An inner parse-tree node: one production instance.

    ``children`` is a tuple with one entry per RHS occurrence — a
    nested :class:`ParseTree` for nonterminals or a
    :class:`~repro.ag.lexer.Token` for terminals.  ``parent`` and
    ``child_index`` wire the tree for inherited-attribute evaluation.

    The node has no ``__dict__``.  Its attribute instances live in the
    ``__slots__`` of its symbol's class from :func:`node_class`, one
    per declared attribute, each :data:`MISSING` until computed.  This
    base class declares none: a parser without node classes builds
    plain trees.
    """

    __slots__ = (
        "production",
        "children",
        "parent",
        "child_index",
        "line",
    )

    # ``__init__(self, production, children, line=0)`` is set below,
    # from :data:`_INIT`.

    @property
    def symbol(self):
        return self.production.lhs

    def release(self):
        """Unlink the parent links once the goals are read: they make
        the tree cyclic garbage that would wait for the collector.
        Reference counting then frees the tree and its attribute values
        as soon as the caller drops its own reference to the root, so
        hold that reference in a scope that ends at the tree's last
        use."""
        stack = [self]
        while stack:
            node = stack.pop()
            node.parent = None
            stack.extend(c for c in node.children
                         if isinstance(c, ParseTree))

    def child_trees(self):
        """The nonterminal children, in order."""
        return [c for c in self.children if isinstance(c, ParseTree)]

    def pretty(self, indent=0):
        """Indented dump of the tree (debugging aid)."""
        pad = "  " * indent
        lines = [pad + self.production.label]
        for child in self.children:
            if isinstance(child, ParseTree):
                lines.append(child.pretty(indent + 1))
            else:
                lines.append("%s  %s %r" % (pad, child.kind, child.text))
        return "\n".join(lines)

    def count_nodes(self):
        """Number of inner nodes (used by evaluator statistics)."""
        return 1 + sum(c.count_nodes() for c in self.child_trees())

    def __repr__(self):
        return "<ParseTree %s line=%d>" % (self.production.label, self.line)


#: The source of every node class's ``__init__``, completed by one
#: line per attribute slot that stores :data:`MISSING` in it.  Each
#: class gets its own copy of the code: its stores then see one class
#: only, which the interpreter specializes, where one function shared
#: by every node class would run them all unspecialized.
_INIT = """\
def __init__(self, production, children, line=0):
    self.production = production
    self.children = children
    self.parent = None
    self.child_index = 0
    for i, child in enumerate(children):
        if isinstance(child, ParseTree):
            child.parent = self
            child.child_index = i + 1  # occurrence index (0 is LHS)
    self.line = line
"""

#: number of slots -> ``__init__`` storing into ``_slot0``, ``_slot1``...
_TEMPLATES = {}


def _init_of(names):
    """A fresh ``__init__`` for a node class with slots ``names``.

    It is the template for ``len(names)`` slots with its placeholder
    names replaced, so generating a translator compiles one template
    per slot count, not one function per node class."""
    template = _TEMPLATES.get(len(names))
    if template is None:
        scope = {"ParseTree": ParseTree, "MISSING": MISSING}
        exec(_INIT + "".join("    self._slot%d = MISSING\n" % i
                             for i in range(len(names))), scope)
        template = _TEMPLATES[len(names)] = scope["__init__"]
    rename = {"_slot%d" % i: name for i, name in enumerate(names)}
    code = template.__code__
    code = code.replace(co_names=tuple(rename.get(n, n)
                                       for n in code.co_names))
    return FunctionType(code, template.__globals__, "__init__",
                        template.__defaults__)


ParseTree.__init__ = _init_of(())


def node_class(symbol, names):
    """The node class of nonterminal ``symbol``: a :class:`ParseTree`
    with one slot per attribute name in ``names``.

    A name a slot cannot hold is refused: one that is not an
    identifier, one Python would mangle (``__x``) and one that is
    already a node field or method (``line``, ``children``,
    ``release``, ...).
    """
    names = tuple(names)
    for name in names:
        if (not name.isidentifier() or name.startswith("__")
                or hasattr(ParseTree, name)):
            raise AttributeError_(
                "attribute %s.%s cannot be a node slot: it is not an "
                "identifier or it names a parse-tree field"
                % (symbol, name))
    return type("ParseTree_%s" % symbol, (ParseTree,),
                {"__slots__": names, "__init__": _init_of(names)})


class Parser:
    """LR parser driver over compiled :class:`ParseTables`.

    ``node_classes`` maps nonterminal names to their node classes
    (:func:`node_class`); a reduction builds its node from its LHS
    symbol's class, and from :class:`ParseTree` for a symbol it does
    not name.
    """

    def __init__(self, tables, node_classes=None):
        self.tables = tables
        self.grammar = tables.grammar
        classes = node_classes or {}
        #: production index -> the class of its LHS symbol's nodes
        self._node_of = [classes.get(prod.lhs.name, ParseTree)
                         for prod in self.grammar.productions]

    def parse(self, tokens, filename="<input>"):
        """Parse a token iterable into a :class:`ParseTree`.

        ``tokens`` may be any iterable of :class:`Token` — a file
        scanner or the trivial LEF list scanner of cascaded evaluation.
        """
        action = self.tables.action
        goto = self.tables.goto
        eof_name = self.grammar.eof.name
        productions = self.grammar.productions
        node_of = self._node_of

        stream = iter(tokens)
        state_stack = [0]
        value_stack = []

        def next_token():
            try:
                return next(stream)
            except StopIteration:
                return Token(eof_name, "", None, 0, 0)

        token = next_token()
        while True:
            state = state_stack[-1]
            act = action[state].get(token.kind)
            if act is None:
                expected = self.tables.expected_terminals(state)
                raise ParseError(
                    "unexpected %s %r (expected one of: %s)"
                    % (
                        token.kind,
                        token.text,
                        ", ".join(expected[:12]),
                    ),
                    line=token.line,
                    column=token.column,
                    file=filename,
                )
            if act[0] == SHIFT:
                state_stack.append(act[1])
                value_stack.append(token)
                token = next_token()
            elif act[0] == REDUCE:
                prod = productions[act[1]]
                n = len(prod.rhs)
                if n:
                    children = tuple(value_stack[len(value_stack) - n :])
                    del value_stack[len(value_stack) - n :]
                    del state_stack[len(state_stack) - n :]
                else:
                    children = ()
                line = _leftmost_line(children, token)
                node = node_of[act[1]](prod, children, line)
                value_stack.append(node)
                state = state_stack[-1]
                state_stack.append(goto[state][prod.lhs.name])
            else:  # ACCEPT
                assert act[0] == ACCEPT
                # value_stack holds exactly the start symbol's tree.
                return value_stack[-1]


def _leftmost_line(children, fallback_token):
    for child in children:
        if isinstance(child, Token):
            if child.line:
                return child.line
        elif child.line:
            return child.line
    return fallback_token.line
