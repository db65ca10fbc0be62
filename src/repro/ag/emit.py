"""Emission of a generated-evaluator module.

Linguist turned an AG into C source (the 62%-of-the-compiler
"generated" block of Figure 2).  Our evaluators are table-driven
objects in memory; :func:`emit_evaluator_source` writes the same
information out as a Python module — the LALR ACTION/GOTO tables, the
production list, the attribute declarations, and (when the grammar is
ordered) the visit-sequence plans — so the generated artifact is
inspectable and countable (benchmark E1).  The tables the compiler
ships and loads are the compact JSON files of
:mod:`repro.ag.lr.tablefile`, not this module.

Semantic-rule *functions* stay in the specification module (they are
Python closures); the emitted module references them by production
label and target, which is exactly how the paper's generated evaluator
called out-of-line functions.
"""

from .errors import CircularityError, NotOrderedError

_HEADER = '''\
"""Generated attribute evaluator tables for grammar %(name)r.

GENERATED by repro.ag.emit — do not edit.  Load with
repro.ag.emit.load_tables(); semantic-rule functions are bound back
from the originating AGSpec at load time.
"""

'''


def emit_evaluator_source(compiled):
    """Emit the generated-evaluator module source for a CompiledAG."""
    out = [_HEADER % {"name": compiled.name}]
    grammar = compiled.grammar
    out.append("GRAMMAR_NAME = %r\n" % compiled.name)

    out.append("TERMINALS = (")
    for t in grammar.terminals:
        out.append("    %r," % t.name)
    out.append(")\n")
    out.append("NONTERMINALS = (")
    for nt in grammar.nonterminals:
        out.append("    %r," % nt.name)
    out.append(")\n")

    out.append("PRODUCTIONS = (")
    for prod in grammar.productions:
        out.append("    (%r, %r, (%s))," % (
            prod.label, prod.lhs.name,
            "".join("%r, " % s.name for s in prod.rhs)))
    out.append(")\n")

    out.append("ATTRIBUTES = (")
    for sym in grammar.nonterminals:
        for decl in compiled.attr_table.of(sym).values():
            out.append("    (%r, %r, %r)," % (
                sym.name, decl.name, decl.kind))
    out.append(")\n")

    out.append("# LALR(1) ACTION table: state -> {terminal: action}")
    out.append("ACTION = (")
    for row in compiled.tables.action:
        cells = ", ".join(
            "%r: %r" % (term, act) for term, act in sorted(row.items())
        )
        out.append("    {%s}," % cells)
    out.append(")\n")

    out.append("# GOTO table: state -> {nonterminal: state}")
    out.append("GOTO = (")
    for row in compiled.tables.goto:
        cells = ", ".join(
            "%r: %d" % (nt, st) for nt, st in sorted(row.items())
        )
        out.append("    {%s}," % cells)
    out.append(")\n")

    out.append("# Semantic rules: production label -> "
               "((pos, attr, implicit, deps), ...)")
    out.append("RULES = (")
    for prod in grammar.productions:
        rules = compiled.rule_indices.get(prod.index, {})
        entries = []
        for (pos, attr), rule in sorted(rules.items()):
            deps = "".join(
                "(%d, %r), " % (d.pos, d.attr) for d in rule.deps)
            entries.append("((%d, %r), %r, (%s))"
                           % (pos, attr, rule.implicit or "", deps))
        out.append("    (%r, (%s))," % (prod.label,
                                        ", ".join(entries) + ","
                                        if entries else ""))
    out.append(")\n")

    plans = _plans_source(compiled)
    out.append(plans)
    return "\n".join(out)


def _plans_source(compiled):
    try:
        analysis = compiled.analyze()
    except (NotOrderedError, CircularityError):
        return "VISIT_SEQUENCES = None  # grammar is not ordered\n"
    out = ["# Visit sequences: production label -> plans per visit,"]
    out.append("# actions are ('eval', pos, attr) / "
               "('visit', child_pos, visit#)")
    out.append("VISIT_SEQUENCES = (")
    for prod in compiled.grammar.productions:
        if prod.index not in analysis.plans:
            continue
        plan_texts = []
        for plan in analysis.plans[prod.index]:
            actions = []
            for action in plan:
                if action.op == "eval":
                    actions.append("('eval', %d, %r)" % (
                        action.rule.target.pos, action.rule.target.attr))
                else:
                    actions.append("('visit', %d, %d)" % (
                        action.child_pos, action.visit))
            plan_texts.append("(%s)" % (", ".join(actions) + ","
                                        if actions else ""))
        out.append("    (%r, (%s))," % (prod.label,
                                        ", ".join(plan_texts) + ","))
    out.append(")\n")
    return "\n".join(out)


def load_tables(source):
    """Execute an emitted module and return its namespace (a sanity
    path for tests).  The compiler does not load this module: it loads
    the committed JSON tables of :mod:`repro.ag.lr.tablefile`, which
    decode far faster than this Python source compiles."""
    namespace = {}
    exec(compile(source, "<generated evaluator>", "exec"), namespace)
    return namespace
