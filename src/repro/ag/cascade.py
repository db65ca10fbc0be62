"""Cascaded evaluation (§4.1).

The paper's ``exprEval`` is "a new functional interface ... around the
evaluator Linguist generates for the expression AG" plus "a scanner
that reads tokens from the list of LEF tokens supplied as an argument".
:class:`SubEvaluator` is exactly that wrapper: it owns a compiled AG
and, when called with a token list and root-inherited values, parses
the list with the trivial list scanner and evaluates the grammar's goal
attributes.

Because the sub-evaluator is invoked *from semantic rules* of the
principal AG, cascading requires no support from the generator itself —
"an important aspect of this cascaded translation technique is that it
required no enhancement or modification of the translator-generating
tool".
"""

from .errors import ParseError
from .lexer import ListScanner


class SubEvaluator:
    """A separately generated evaluator callable from semantic rules.

    ``observer`` (a :class:`repro.diag.AGObserver`, usually the one the
    calling evaluator reports to) receives this grammar's rule firings
    and memo counters, so nested evaluations are counted too."""

    def __init__(self, compiled, goals=None, observer=None):
        self.compiled = compiled
        self.goals = goals
        self.observer = observer
        self.invocations = 0  # once per maximal expression (§4.1)

    def __call__(self, token_list, inherited=None):
        """Parse ``token_list`` and return the goal-attribute dict.

        A :class:`ParseError` is re-raised annotated with the cascade
        grammar's name so principal-AG rules can turn it into an error
        message rather than a crash.
        """
        self.invocations += 1
        scanner = ListScanner(token_list)
        try:
            tree = self.compiled.parse(
                scanner, filename="<%s cascade>" % self.compiled.name
            )
        except ParseError:
            raise
        try:
            return self.compiled.evaluate(tree, inherited, self.goals,
                                          observer=self.observer)
        finally:
            tree.release()

    def try_call(self, token_list, inherited=None, on_error=None):
        """Like calling, but map a parse failure to ``on_error(exc)``.

        The principal VHDL AG uses this so that a malformed expression
        becomes one entry in the ``MSGS`` error list, matching the
        paper's ``exprEval`` returning "a list of error messages (the
        null list if there were no errors)".
        """
        try:
            return self(token_list, inherited)
        except ParseError as exc:
            if on_error is None:
                raise
            return on_error(exc)
