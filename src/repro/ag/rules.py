"""Semantic rules and attribute-occurrence references.

A rule defines one attribute occurrence of one production from other
occurrences of the same production.  Occurrences are written
``"sym.ATTR"`` where ``sym`` names an occurrence of the production: the
plain symbol name when it occurs once, or ``name0``, ``name1``, ...
(position 0 being the LHS, as in the paper's ``E0 -> E1 + T`` style)
when a symbol occurs several times.
"""

from .attributes import LEXICAL_ATTRS, SYN, INH
from .errors import AttributeError_


class Occurrence:
    """A resolved attribute occurrence: (position, attribute name).

    Position 0 is the LHS; positions 1..n are RHS occurrences.
    """

    __slots__ = ("pos", "attr", "symbol")

    def __init__(self, pos, attr, symbol):
        self.pos = pos
        self.attr = attr
        self.symbol = symbol

    def key(self):
        return (self.pos, self.attr)

    def __repr__(self):
        return "<Occ %d:%s.%s>" % (self.pos, self.symbol.name, self.attr)


def occurrence_names(production):
    """Map occurrence names to positions for ``production``.

    Every occurrence always answers to ``nameK`` (K counted over the
    full symbol list, LHS included); unique symbols also answer to
    their plain name.  Computed once per production.
    """
    names = production.occurrence_names
    if names is not None:
        return names
    symbols = production.symbols
    counts = {}
    for sym in symbols:
        counts[sym.name] = counts.get(sym.name, 0) + 1
    names = {}
    seen = {}
    for pos, sym in enumerate(symbols):
        k = seen.get(sym.name, 0)
        seen[sym.name] = k + 1
        names["%s%d" % (sym.name, k)] = pos
        if counts[sym.name] == 1:
            names[sym.name] = pos
    production.occurrence_names = names
    return names


def resolve_ref(production, ref, attr_table):
    """Resolve ``"sym.ATTR"`` to an :class:`Occurrence`.

    Terminal occurrences expose only the lexical pseudo-attributes
    (``text``, ``value``, ``line``, ``column``, ``kind``).
    """
    try:
        occ_name, attr = ref.split(".", 1)
    except ValueError:
        raise AttributeError_(
            "bad attribute reference %r in production %s "
            "(expected 'sym.ATTR')" % (ref, production.label)
        ) from None
    names = occurrence_names(production)
    pos = names.get(occ_name)
    if pos is None:
        raise AttributeError_(
            "no occurrence %r in production %s (%s); have: %s"
            % (occ_name, production.label, production,
               ", ".join(sorted(names)))
        )
    symbol = production.symbols[pos]
    if symbol.is_terminal:
        if attr not in LEXICAL_ATTRS:
            raise AttributeError_(
                "terminal occurrence %r has only lexical attributes %s, "
                "not %r (production %s)"
                % (occ_name, LEXICAL_ATTRS, attr, production.label)
            )
    else:
        if attr_table.get(symbol, attr) is None:
            raise AttributeError_(
                "symbol %r has no attribute %r (production %s)"
                % (symbol.name, attr, production.label)
            )
    return Occurrence(pos, attr, symbol)


class SemanticRule:
    """One semantic rule: ``target = fn(*deps)``.

    ``implicit`` is ``None`` for hand-written rules or one of
    ``"copy"``, ``"unit"``, ``"merge"`` for generator-supplied rules;
    the §4.1 statistics table and the E6 bench count these.
    """

    __slots__ = ("production", "target", "deps", "fn", "implicit")

    def __init__(self, production, target, deps, fn, implicit=None):
        self.production = production
        self.target = target
        self.deps = list(deps)
        self.fn = fn
        self.implicit = implicit

    def check_target(self, attr_table):
        """A rule may define a synthesized attribute of the LHS or an
        inherited attribute of an RHS nonterminal — nothing else."""
        occ = self.target
        if occ.symbol.is_terminal:
            raise AttributeError_(
                "rule in %s targets terminal occurrence %r"
                % (self.production.label, occ.attr)
            )
        decl = attr_table.get(occ.symbol, occ.attr)
        if occ.pos == 0 and decl.kind != SYN:
            raise AttributeError_(
                "rule in %s defines inherited LHS attribute %s.%s"
                % (self.production.label, occ.symbol.name, occ.attr)
            )
        if occ.pos > 0 and decl.kind != INH:
            raise AttributeError_(
                "rule in %s defines synthesized RHS attribute %s.%s"
                % (self.production.label, occ.symbol.name, occ.attr)
            )

    def __repr__(self):
        tag = " [%s]" % self.implicit if self.implicit else ""
        return "<rule %s: %d.%s%s>" % (
            self.production.label,
            self.target.pos,
            self.target.attr,
            tag,
        )
