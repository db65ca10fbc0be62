"""An attribute-grammar translator-writing system.

This package plays the role the commercial Linguist(TM) system played
in the paper: from a declarative grammar-plus-attribution specification
it generates a scanner, an LALR(1) parser, and an attribute evaluator,
supplying implicit semantic rules for attribute-class occurrences and
supporting cascaded evaluation of sub-grammars.

Typical use::

    from repro.ag import AGSpec, SYN, INH

    g = AGSpec("calc")
    g.terminals("NUM", "PLUS")
    g.nonterminal("expr", ("val", SYN))
    p = g.production("expr_add", "expr -> expr0 PLUS expr1")
    p.rule("expr0.val", "expr1.val", "expr2.val",
           fn=lambda a, b: a + b)
    ...
    calc = g.finish()
    print(calc.run(tokens)["val"])

The names below are re-exported lazily (PEP 562): a process that only
compiles never imports the ordered-AG analysis, the static evaluator
or the statistics module.
"""

from importlib import import_module

#: Re-exported name -> the submodule defining it.
_EXPORTS = {
    "AGSpec": ".spec",
    "AGError": ".errors",
    "AttributeClass": ".attributes",
    "AttributeError_": ".errors",
    "CircularityError": ".errors",
    "CompiledAG": ".spec",
    "ConflictError": ".errors",
    "DynamicEvaluator": ".evaluator",
    "EvaluationError": ".errors",
    "GrammarError": ".errors",
    "GrammarStatistics": ".stats",
    "INH": ".attributes",
    "LexError": ".errors",
    "Lexer": ".lexer",
    "LexerSpec": ".lexer",
    "ListScanner": ".lexer",
    "NotOrderedError": ".errors",
    "OrderedAnalysis": ".ordered",
    "ParseError": ".errors",
    "StaticEvaluator": ".static_eval",
    "SubEvaluator": ".cascade",
    "SYN": ".attributes",
    "Token": ".lexer",
    "evaluate_tree": ".evaluator",
    "format_table": ".stats",
    "grammar_statistics": ".stats",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
