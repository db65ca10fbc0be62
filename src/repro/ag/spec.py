"""The attribute-grammar specification API — our Linguist source notation.

An :class:`AGSpec` collects terminals, attributed nonterminals,
attribute classes, attribute *groups* (the macro-processor mechanism of
§4.2 used for ``ENV_ATTRS``, ``EXPR_ATTRS``, ...), and productions with
semantic rules, then :meth:`AGSpec.finish` completes the grammar with
implicit rules, builds LALR(1) tables, and returns a
:class:`CompiledAG` — the generated translator.

Example::

    g = AGSpec("sum")
    g.terminals("NUM", "PLUS")
    g.attr_class("MSGS", SYN, merge=lambda a, b: a + b, unit=())
    g.nonterminal("expr", ("val", SYN), "MSGS")
    p = g.production("expr_num", "expr -> NUM")
    p.rule("expr.val", "NUM.value")(int)
    p = g.production("expr_add", "expr -> expr0 PLUS expr1")
    ...
    compiled = g.finish()
    result = compiled.run(tokens)
"""

from .attributes import SYN, INH, AttrTable, AttributeClass
from .errors import AttributeError_, GrammarError
from .grammar import Grammar
from .implicit import complete_production
from .lr import build_tables, Parser
from .lr.parser import node_class
from .rules import SemanticRule, resolve_ref


class ProductionSpec:
    """One production under construction, with rule-attachment sugar."""

    def __init__(self, spec, production):
        self._spec = spec
        self.production = production
        self.rules = []

    def rule(self, target, *deps, fn=None):
        """Attach a semantic rule ``target = fn(*deps)``.

        Used directly (``p.rule("x.A", "y.B", fn=f)``) or as a
        decorator (``@p.rule("x.A", "y.B")``).
        """

        def attach(func):
            attr_table = self._spec.attr_table
            prod = self.production
            t = resolve_ref(prod, target, attr_table)
            d = [resolve_ref(prod, ref, attr_table) for ref in deps]
            r = SemanticRule(prod, t, d, func)
            r.check_target(attr_table)
            self.rules.append(r)
            return func

        if fn is not None:
            attach(fn)
            return self
        return attach

    def copy(self, target, source):
        """Sugar: explicit copy rule ``target = source``."""
        return self.rule(target, source, fn=lambda v: v)

    def const(self, target, value):
        """Sugar: constant rule ``target = value``."""
        return self.rule(target, fn=lambda v=value: v)


class AGSpec:
    """Builder for one attribute grammar.

    ``tables_file`` names the committed LALR(1) table file of this
    grammar (:mod:`repro.ag.lr.tablefile`).  :meth:`finish` loads it
    when its recorded signature matches the grammar and otherwise
    builds the tables in memory; ``python -m repro.regen`` rewrites it.
    """

    def __init__(self, name, tables_file=None):
        self.name = name
        self.tables_file = tables_file
        self.grammar = Grammar(name)
        self.attr_table = AttrTable()
        self.classes = {}
        self.groups = {}
        self._prod_specs = []
        self._finished = None

    # -- vocabulary ----------------------------------------------------------

    def terminals(self, *names):
        for name in names:
            self.grammar.terminal(name)
        return self

    def attr_class(self, name, kind, merge=None,
                   unit=AttributeClass._UNSET, copy=True):
        """Declare an attribute class (§4.2)."""
        if name in self.classes:
            raise AttributeError_("duplicate attribute class %r" % name)
        cls = AttributeClass(name, kind, merge, unit, copy)
        self.classes[name] = cls
        return cls

    def attr_group(self, name, *members):
        """Declare an attribute *group* — the macro-processor facility
        the paper used for ``ENV_ATTRS`` etc.  Members are class names
        or ``(attr_name, kind)`` pairs; groups may nest other groups by
        name."""
        if name in self.groups:
            raise AttributeError_("duplicate attribute group %r" % name)
        self.groups[name] = list(members)
        return self

    def _expand_attr_spec(self, spec, out):
        if isinstance(spec, tuple):
            out.append(spec)
        elif spec in self.classes:
            out.append(spec)
        elif spec in self.groups:
            for member in self.groups[spec]:
                self._expand_attr_spec(member, out)
        else:
            raise AttributeError_(
                "unknown attribute class or group %r" % spec
            )

    def nonterminal(self, name, *attr_specs):
        """Declare a nonterminal with its attributes.

        Each spec is a ``(name, kind)`` pair for a plain attribute, an
        attribute-class name (the instance takes the class's name and
        kind), or an attribute-group name (expanded recursively).
        """
        sym = self.grammar.nonterminal(name)
        expanded = []
        for spec in attr_specs:
            self._expand_attr_spec(spec, expanded)
        for spec in expanded:
            if isinstance(spec, tuple):
                attr_name, kind = spec
                self.attr_table.declare(sym, attr_name, kind)
            else:
                cls = self.classes[spec]
                self.attr_table.declare(sym, cls.name, cls.kind, cls)
        return sym

    # -- productions ---------------------------------------------------------

    def production(self, label, text, prec=None):
        """Add a production from ``"lhs -> rhs1 rhs2 ..."`` text.

        Occurrence indices in ``text`` (``expr0``, ``expr1``) are
        stripped to find the symbol; they matter only in rule
        references.  An empty RHS is written ``"lhs ->"``.
        """
        lhs_name, rhs_names = _parse_production_text(label, text)
        lhs_name = self._strip_index(lhs_name)
        rhs_names = [self._strip_index(n) for n in rhs_names]
        for name in rhs_names:
            if name not in self.grammar.symbols:
                raise GrammarError(
                    "production %s: symbol %r is not declared (declare "
                    "terminals with .terminals() and nonterminals with "
                    ".nonterminal())" % (label, name)
                )
        prod = self.grammar.add_production(label, lhs_name, rhs_names, prec)
        pspec = ProductionSpec(self, prod)
        self._prod_specs.append(pspec)
        return pspec

    def _strip_index(self, name):
        """``expr1`` -> ``expr`` when ``expr`` is a known symbol."""
        if name in self.grammar.symbols:
            return name
        base = name.rstrip("0123456789")
        if base and base != name and base in self.grammar.symbols:
            return base
        return name

    def set_start(self, name):
        self.grammar.set_start(name)
        return self

    def precedence(self, assoc, *terminals):
        self.grammar.set_precedence(assoc, *terminals)
        return self

    # -- compilation ----------------------------------------------------------

    def finish(self, allow_conflicts=False):
        """Complete implicit rules, load or build the tables, return a
        CompiledAG."""
        if self._finished is not None:
            return self._finished
        rule_indices = {}
        explicit = 0
        implicit = 0
        for pspec in self._prod_specs:
            index = {}
            for rule in pspec.rules:
                key = rule.target.key()
                if key in index:
                    raise AttributeError_(
                        "production %s defines %s.%s twice"
                        % (pspec.production.label,
                           rule.target.symbol.name, rule.target.attr)
                    )
                index[key] = rule
            explicit += len(index)
            added = complete_production(
                pspec.production, self.attr_table, index
            )
            implicit += len(added)
            rule_indices[pspec.production.index] = index
        tables = None
        if self.tables_file is not None:
            from .lr.tablefile import read_table_file

            tables = read_table_file(self.grammar, self.tables_file,
                                     allow_conflicts)
        if tables is None:
            tables = build_tables(self.grammar,
                                  allow_conflicts=allow_conflicts)
        # The augmented $accept production needs no rules but must be
        # present in the index for the evaluators.
        rule_indices.setdefault(tables.accept_index, {})
        compiled = CompiledAG(self, tables, rule_indices, explicit, implicit)
        self._finished = compiled
        return compiled


def _parse_production_text(label, text):
    parts = text.split("->")
    if len(parts) != 2:
        raise GrammarError(
            "production %s: expected 'lhs -> rhs', got %r" % (label, text)
        )
    lhs = parts[0].strip()
    if not lhs:
        raise GrammarError("production %s: empty LHS" % label)
    rhs = parts[1].split()
    return lhs, rhs


class CompiledAG:
    """A generated translator: parser plus attribute evaluation.

    This object plays the role of the evaluator Linguist generates from
    an AG source file.  Evaluation defaults to the dynamic
    (demand-driven) evaluator; :meth:`analyze` runs the ordered-AG
    analysis and :meth:`visit_sequences` yields the static plans.

    ``node_classes`` maps each nonterminal's name to the class of its
    parse-tree nodes, built here once: its slots are the symbol's
    declared attributes (:func:`~repro.ag.lr.parser.node_class`).
    """

    def __init__(self, spec, tables, rule_indices, explicit, implicit):
        self.spec = spec
        self.name = spec.name
        self.grammar = spec.grammar
        self.attr_table = spec.attr_table
        self.tables = tables
        self.node_classes = {
            sym.name: node_class(sym.name, self.attr_table.of(sym))
            for sym in self.grammar.nonterminals
        }
        self.parser = Parser(tables, self.node_classes)
        self.rule_indices = rule_indices
        self.n_explicit_rules = explicit
        self.n_implicit_rules = implicit
        self._analysis = None

    def rules_of(self, production):
        """Rule index ``{(pos, attr): SemanticRule}`` for a production."""
        return self.rule_indices[production.index]

    def parse(self, tokens, filename="<input>"):
        return self.parser.parse(tokens, filename)

    def evaluate(self, tree, inherited=None, goals=None, observer=None):
        """Evaluate attributes over ``tree``; return the root's goal
        attributes (all root synthesized attributes by default).

        ``observer`` is an optional :class:`repro.diag.AGObserver`
        that receives rule-firing and memo-hit counters.
        """
        from .evaluator import DynamicEvaluator

        evaluator = DynamicEvaluator(self, inherited or {},
                                     observer=observer)
        return evaluator.goal_attributes(tree, goals)

    def run(self, tokens, inherited=None, goals=None, filename="<input>",
            observer=None):
        """Parse + evaluate in one step."""
        tree = self.parse(tokens, filename)
        return self.evaluate(tree, inherited, goals, observer=observer)

    def analyze(self):
        """Run (and cache) the ordered-AG analysis."""
        if self._analysis is None:
            from .ordered import OrderedAnalysis

            self._analysis = OrderedAnalysis(self)
        return self._analysis

    def statistics(self):
        """The §4.1 statistics row for this grammar."""
        from .stats import grammar_statistics

        return grammar_statistics(self)
