"""AG evaluation observability.

The paper's §5.2 lesson: evolving a 9,000-rule attribute grammar
requires knowing *which* semantic rules fire, how often, and where
circularities come from.  :class:`AGObserver` is the one record the
evaluators report into: a rule firing is one increment of its
grammar's per-production count, from which every total is derived,
next to demand-memo hits and static-evaluator visits.
:func:`explain_cycle` renders a :class:`~repro.ag.errors.
CircularityError` cycle with production and line context instead of a
bare instance chain.
"""

from collections import Counter


class AGObserver:
    """The record of attribute-evaluation events.

    Evaluators accept an observer of ``None`` and skip the record
    entirely, so the default path stays unchanged.
    """

    def __init__(self):
        #: grammar name -> Counter(production label -> rule firings):
        #: the one record of each firing
        self.firings = {}
        #: demanded attributes served from the memo table
        self.cache_hits = 0
        #: symbol name -> static-evaluator visit count
        self.visits = Counter()

    def fired(self, grammar):
        """The firing count, by production label, that an evaluator
        of ``grammar`` adds one to per rule firing."""
        fired = self.firings.get(grammar)
        if fired is None:
            fired = self.firings[grammar] = Counter()
        return fired

    def record_visit(self, symbol):
        self.visits[getattr(symbol, "name", str(symbol))] += 1

    # -- totals, derived from the record ------------------------------------

    @property
    def rule_firings(self):
        """Production label -> firings, over every grammar."""
        total = Counter()
        for fired in self.firings.values():
            total.update(fired)
        return total

    @property
    def grammar_firings(self):
        """Grammar name -> firings."""
        return {grammar: sum(fired.values())
                for grammar, fired in self.firings.items()}

    @property
    def total_firings(self):
        return sum(self.grammar_firings.values())

    @property
    def cache_misses(self):
        """Attributes computed fresh: one per rule firing."""
        return self.total_firings

    @property
    def hit_rate(self):
        return _hit_rate(self.cache_hits, self.total_firings)

    def top_productions(self, n=10):
        return self.rule_firings.most_common(n)

    def summary(self, top=8, totals=None):
        """The ``--profile`` text: ``totals`` (firings, memo hits),
        by default this observer's, then the most-fired productions."""
        fired, hits = totals or (self.total_firings, self.cache_hits)
        lines = [
            "AG evaluation: %d rule firing(s), memo %d hit(s) / "
            "%d miss(es) (%.1f%% hit rate)"
            % (fired, hits, fired, 100.0 * _hit_rate(hits, fired))
        ]
        if self.visits:
            lines.append("  visits: %d across %d symbol(s)"
                         % (sum(self.visits.values()),
                            len(self.visits)))
        for label, n in self.top_productions(top):
            lines.append("  %-32s %8d" % (label, n))
        return "\n".join(lines)


def _hit_rate(hits, misses):
    demanded = hits + misses
    return hits / demanded if demanded else 0.0


# -- cycle explanation -------------------------------------------------------


def _instance_context(node, attr):
    """(symbol, attr, production label, line) of one cycle instance."""
    symbol = getattr(getattr(node, "symbol", None), "name", "?")
    line = getattr(node, "line", 0)
    production = getattr(node, "production", None)
    if getattr(node, "parent", None) is not None and hasattr(
            node.parent, "production"):
        # Inherited attributes are defined by the parent production;
        # showing both sides locates the defining rule.
        defined_in = node.parent.production
    else:
        defined_in = production
    return symbol, attr, production, defined_in, line


def explain_cycle(error):
    """Pretty-print a :class:`CircularityError`'s cycle.

    Each instance on the cycle is shown with its attribute, the
    production instance it sits in, and the source line, followed by
    the arrow back to the start — the §5.2 "where did this circularity
    come from" question, answered from the failed run itself.
    """
    cycle = list(getattr(error, "cycle", ()) or ())
    lines = ["circularity: %s" % error]
    if not cycle:
        lines.append("  (no cycle recorded)")
        return "\n".join(lines)
    lines.append("attribute dependency cycle (%d instance(s)):"
                 % max(len(cycle) - 1, 1))
    for i, (node, attr) in enumerate(cycle):
        symbol, attr, production, defined_in, line = \
            _instance_context(node, attr)
        plabel = getattr(production, "label", "?")
        ptext = str(production) if production is not None else "?"
        where = "line %d" % line if line else "line ?"
        marker = "=" if i in (0, len(cycle) - 1) else " "
        lines.append("  %s %d. %s.%s  in %s (%s), %s"
                     % (marker, i + 1, symbol, attr, plabel, ptext,
                        where))
        if defined_in is not None and defined_in is not production:
            lines.append("        defined by parent production %s"
                         % getattr(defined_in, "label", "?"))
        if i < len(cycle) - 1:
            lines.append("        ^ demanded while computing")
    lines.append("  (instances marked '=' are the same instance: "
                 "the cycle closes)")
    return "\n".join(lines)
