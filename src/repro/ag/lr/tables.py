"""ACTION/GOTO table construction with conflict resolution and reporting.

The paper (§4.1) leans on conflict reporting: the rejected
*united-production* design "caused parsing conflicts ... keeping track
of the parsing conflicts and ensuring that they were resolved correctly
was confusing and error-prone".  :func:`build_tables` therefore records
every conflict it sees, how (or whether) precedence resolved it, and
raises :class:`~repro.ag.errors.ConflictError` only for conflicts the
declared precedences leave unresolved — unless the caller opts into
yacc-style default resolution for the ablation benchmark.

The automaton and lookahead modules load only when tables are built;
tables read from a committed table file (:mod:`repro.ag.lr.tablefile`)
need neither.
"""

from ..errors import ConflictError

# Action encodings: ("shift", state), ("reduce", prod_index), ("accept",)
SHIFT = "shift"
REDUCE = "reduce"
ACCEPT = "accept"


class Conflict:
    """One shift/reduce or reduce/reduce conflict, with its resolution."""

    __slots__ = ("state", "terminal", "kind", "actions", "resolution")

    def __init__(self, state, terminal, kind, actions, resolution):
        self.state = state
        self.terminal = terminal
        self.kind = kind  # "shift/reduce" or "reduce/reduce"
        self.actions = actions
        self.resolution = resolution  # "precedence", "default", None

    def __str__(self):
        status = self.resolution or "UNRESOLVED"
        return "state %d on %r: %s [%s]" % (
            self.state,
            self.terminal,
            self.kind,
            status,
        )


class ParseTables:
    """Compiled LALR(1) tables.

    ``accept_index`` is the index of the augmenting ``$accept``
    production.  Tables read from a table file carry no automaton;
    :attr:`automaton` rebuilds it on first use.
    """

    def __init__(self, grammar, action, goto, conflicts, accept_index,
                 automaton=None):
        self.grammar = grammar
        self.action = action  # list of {terminal_name: action tuple}
        self.goto = goto  # list of {nonterminal_name: state}
        self.conflicts = conflicts
        self.accept_index = accept_index
        self._automaton = automaton

    @property
    def automaton(self):
        """The LR(0) automaton the tables were built from."""
        if self._automaton is None:
            from .items import LR0Automaton

            self._automaton = LR0Automaton(self.grammar)
        return self._automaton

    @property
    def n_states(self):
        return len(self.action)

    def expected_terminals(self, state):
        """Terminal names acceptable in ``state`` (for error messages)."""
        return sorted(self.action[state])

    def describe_state(self, state_i):
        """Human-readable closure of a state (debugging aid)."""
        lines = []
        prods = self.grammar.productions
        automaton = self.automaton
        for prod_i, dot in sorted(automaton.closure(
                automaton.states[state_i])):
            prod = prods[prod_i]
            rhs = [s.name for s in prod.rhs]
            rhs.insert(dot, ".")
            lines.append("  %s -> %s" % (prod.lhs.name, " ".join(rhs)))
        return "\n".join(lines)


def _precedence_of_production(grammar, prod):
    """yacc rule: a production's precedence is its ``prec`` override or
    the precedence of its rightmost terminal."""
    if prod.prec is not None:
        return grammar.precedence.get(prod.prec.name)
    for sym in reversed(prod.rhs):
        if sym.is_terminal and sym.name in grammar.precedence:
            return grammar.precedence[sym.name]
    return None


def build_tables(grammar, allow_conflicts=False):
    """Build LALR(1) tables for ``grammar``.

    ``allow_conflicts=True`` applies the yacc defaults (prefer shift;
    prefer the earlier production) instead of raising; the conflicts are
    still recorded on the returned tables.  The cascade-ablation bench
    (E8) uses this to count the conflicts united productions create.
    """
    from .items import LR0Automaton
    from .lalr import LALRLookaheads

    automaton = LR0Automaton(grammar)
    lookaheads = LALRLookaheads(automaton)
    closures = automaton.closures()

    action = [dict() for _ in automaton.states]
    goto = [dict() for _ in automaton.states]
    conflicts = []
    accept_index = automaton.accept_prod.index

    for state_i, tmap in enumerate(automaton.transitions):
        for sym, target in tmap.items():
            if sym.is_terminal:
                action[state_i][sym.name] = (SHIFT, target)
            else:
                goto[state_i][sym.name] = target

    for state_i, closure in enumerate(closures):
        for prod_i in automaton.reductions(closure):
            if prod_i == accept_index:
                action[state_i][grammar.eof.name] = (ACCEPT,)
                continue
            # Sorted, so conflicts are recorded in the same order in
            # every process (string hashing is randomized per process).
            for term in sorted(lookaheads.lookahead(state_i, prod_i)):
                existing = action[state_i].get(term)
                new = (REDUCE, prod_i)
                if existing is None:
                    action[state_i][term] = new
                    continue
                chosen, conflict = _resolve(
                    grammar, state_i, term, existing, new, allow_conflicts
                )
                if conflict is not None:
                    conflicts.append(conflict)
                if chosen is not None:
                    action[state_i][term] = chosen
                elif chosen is None and existing is not None:
                    # nonassoc: make the input erroneous on this terminal.
                    del action[state_i][term]

    unresolved = [c for c in conflicts if c.resolution is None]
    if unresolved and not allow_conflicts:
        raise ConflictError(unresolved)
    return ParseTables(grammar, action, goto, conflicts, accept_index,
                       automaton)


def _resolve(grammar, state_i, term, existing, new, allow_conflicts):
    """Resolve a table collision; returns (chosen_action, Conflict|None).

    ``chosen_action`` of ``None`` means *remove* the entry (nonassoc).
    """
    if existing[0] == SHIFT and new[0] == REDUCE:
        term_prec = grammar.precedence.get(term)
        prod_prec = _precedence_of_production(
            grammar, grammar.productions[new[1]]
        )
        if term_prec is not None and prod_prec is not None:
            if prod_prec[0] > term_prec[0]:
                return new, Conflict(
                    state_i, term, "shift/reduce", (existing, new),
                    "precedence",
                )
            if prod_prec[0] < term_prec[0]:
                return existing, Conflict(
                    state_i, term, "shift/reduce", (existing, new),
                    "precedence",
                )
            # equal level: associativity decides
            assoc = term_prec[1]
            if assoc == "left":
                return new, Conflict(
                    state_i, term, "shift/reduce", (existing, new),
                    "precedence",
                )
            if assoc == "right":
                return existing, Conflict(
                    state_i, term, "shift/reduce", (existing, new),
                    "precedence",
                )
            return None, Conflict(
                state_i, term, "shift/reduce", (existing, new), "precedence"
            )
        resolution = "default" if allow_conflicts else None
        return existing, Conflict(
            state_i, term, "shift/reduce", (existing, new), resolution
        )
    if existing[0] == REDUCE and new[0] == REDUCE:
        # yacc default: earlier production wins.
        chosen = existing if existing[1] <= new[1] else new
        resolution = "default" if allow_conflicts else None
        return chosen, Conflict(
            state_i, term, "reduce/reduce", (existing, new), resolution
        )
    # shift/shift cannot happen; reduce-then-shift ordering mirrors above.
    if existing[0] == REDUCE and new[0] == SHIFT:
        chosen, conflict = _resolve(
            grammar, state_i, term, new, existing, allow_conflicts
        )
        return chosen, conflict
    return existing, None
