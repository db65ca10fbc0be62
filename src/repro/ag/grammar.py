"""Context-free grammar model underlying an attribute grammar.

Symbols and productions are the vocabulary shared by the LALR table
builder (:mod:`repro.ag.lr`), the attribute machinery
(:mod:`repro.ag.spec`), and the evaluators.  A production's right-hand
side may mention the same symbol several times; *occurrences* are
addressed positionally, with position 0 being the left-hand side, as in
the paper's ``E0 -> E1 + T`` convention.
"""

from .errors import GrammarError

#: Reserved name of the end-of-input terminal.
EOF = "$end"

#: Reserved name of the augmented start symbol added by the table builder.
START = "$start"

#: Reserved label of the augmenting production ``$start -> start``.
ACCEPT = "$accept"


class Symbol:
    """A grammar symbol: terminal or nonterminal.

    Symbols are interned per :class:`Grammar`; identity comparison is
    safe within one grammar.
    """

    __slots__ = ("name", "is_terminal", "index")

    def __init__(self, name, is_terminal, index):
        self.name = name
        self.is_terminal = is_terminal
        self.index = index

    def __repr__(self):
        kind = "t" if self.is_terminal else "nt"
        return "<%s %s>" % (kind, self.name)

    def __str__(self):
        return self.name


class Production:
    """A context-free production ``lhs -> rhs``.

    ``label`` names the production for diagnostics and for attaching
    semantic rules; labels are unique within a grammar.
    """

    __slots__ = ("label", "lhs", "rhs", "index", "prec", "occurrence_names")

    def __init__(self, label, lhs, rhs, index, prec=None):
        self.label = label
        self.lhs = lhs
        self.rhs = list(rhs)
        self.index = index
        self.prec = prec  # terminal whose precedence governs this production
        #: ``{occurrence name: position}``, filled on first use by
        #: :func:`repro.ag.rules.occurrence_names`.
        self.occurrence_names = None

    @property
    def symbols(self):
        """All occurrences: position 0 is the LHS, 1..n the RHS."""
        return [self.lhs] + self.rhs

    def __len__(self):
        return len(self.rhs)

    def __repr__(self):
        return "<prod %s: %s>" % (self.label, self)

    def __str__(self):
        rhs = " ".join(s.name for s in self.rhs) if self.rhs else "<empty>"
        return "%s -> %s" % (self.lhs.name, rhs)


class Grammar:
    """A context-free grammar: interned symbols plus ordered productions."""

    def __init__(self, name="grammar"):
        self.name = name
        self.symbols = {}
        self.productions = []
        self._labels = {}
        self._by_lhs = {}  # nonterminal -> its productions, in order
        self.start = None
        # precedence: terminal name -> (level, assoc) with assoc in
        # {"left", "right", "nonassoc"}
        self.precedence = {}
        self.eof = self._intern(EOF, True)

    # -- symbol management -------------------------------------------------

    def _intern(self, name, is_terminal):
        sym = self.symbols.get(name)
        if sym is not None:
            if sym.is_terminal != is_terminal:
                raise GrammarError(
                    "symbol %r is already declared as a %s"
                    % (name, "terminal" if sym.is_terminal else "nonterminal")
                )
            return sym
        sym = Symbol(name, is_terminal, len(self.symbols))
        self.symbols[name] = sym
        return sym

    def terminal(self, name):
        """Declare (or fetch) a terminal symbol."""
        return self._intern(name, True)

    def nonterminal(self, name):
        """Declare (or fetch) a nonterminal symbol."""
        return self._intern(name, False)

    def symbol(self, name):
        """Fetch a declared symbol by name."""
        try:
            return self.symbols[name]
        except KeyError:
            raise GrammarError("unknown symbol %r" % name) from None

    @property
    def terminals(self):
        return [s for s in self.symbols.values() if s.is_terminal]

    @property
    def nonterminals(self):
        return [s for s in self.symbols.values() if not s.is_terminal]

    # -- productions --------------------------------------------------------

    def add_production(self, label, lhs_name, rhs_names, prec=None):
        """Add ``lhs -> rhs``.  Unknown RHS names are declared as
        nonterminals (forward references are natural when writing a
        grammar top-down); :meth:`check` flags any that never gain
        productions.  The :class:`~repro.ag.spec.AGSpec` layer is
        stricter and validates names before calling this."""
        if label in self._labels:
            raise GrammarError("duplicate production label %r" % label)
        lhs = self.nonterminal(lhs_name)
        rhs = [
            self.symbols[n] if n in self.symbols else self.nonterminal(n)
            for n in rhs_names
        ]
        prec_sym = self.symbol(prec) if prec is not None else None
        prod = Production(label, lhs, rhs, len(self.productions), prec_sym)
        self.productions.append(prod)
        self._labels[label] = prod
        self._by_lhs.setdefault(lhs, []).append(prod)
        if self.start is None:
            self.start = lhs
        return prod

    def production(self, label):
        """Fetch a production by label."""
        try:
            return self._labels[label]
        except KeyError:
            raise GrammarError("unknown production label %r" % label) from None

    def productions_for(self, nonterminal):
        """All productions whose LHS is ``nonterminal`` (callers must
        not mutate the returned list)."""
        return self._by_lhs.get(nonterminal, [])

    def augment(self):
        """The accepting production ``$start -> start`` the LR tables
        reduce last; added on the first call only."""
        prod = self._labels.get(ACCEPT)
        if prod is None:
            self.nonterminal(START)
            prod = self.add_production(ACCEPT, START, [self.start.name])
        return prod

    def set_start(self, name):
        self.start = self.nonterminal(name)

    def set_precedence(self, assoc, *terminal_names, level=None):
        """Assign one precedence level to the given terminals.

        Levels increase with each call unless ``level`` is given, matching
        the familiar yacc ``%left``/``%right`` convention.
        """
        if assoc not in ("left", "right", "nonassoc"):
            raise GrammarError("bad associativity %r" % assoc)
        if level is None:
            level = 1 + max(
                (lv for lv, _ in self.precedence.values()), default=0
            )
        for name in terminal_names:
            self.terminal(name)
            self.precedence[name] = (level, assoc)

    # -- sanity -------------------------------------------------------------

    def check(self):
        """Verify every nonterminal is productive and reachable.

        Returns a list of warning strings rather than raising, because a
        grammar under construction legitimately passes through such
        states; the table builder raises on a missing start symbol.
        """
        warnings = []
        if self.start is None:
            warnings.append("grammar has no productions")
            return warnings
        defined = {p.lhs for p in self.productions}
        for nt in self.nonterminals:
            if nt.name != START and nt not in defined:
                warnings.append("nonterminal %r has no productions" % nt.name)
        reachable = {self.start}
        frontier = [self.start]
        while frontier:
            sym = frontier.pop()
            for prod in self.productions_for(sym):
                for s in prod.rhs:
                    if not s.is_terminal and s not in reachable:
                        reachable.add(s)
                        frontier.append(s)
        for nt in self.nonterminals:
            if nt.name != START and nt not in reachable:
                warnings.append("nonterminal %r is unreachable" % nt.name)
        return warnings
