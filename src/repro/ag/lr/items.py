"""The LR(0) item-set automaton.

Items are ``(production_index, dot_position)`` pairs; states are frozen
sets of kernel items whose closures are kept from the build.  The automaton is
the substrate both for SLR-style reductions and for the LALR lookahead
computation in :mod:`repro.ag.lr.lalr`.
"""

from ..grammar import START
from ..errors import GrammarError


class LR0Automaton:
    """LR(0) states and transitions for an augmented grammar."""

    def __init__(self, grammar):
        if grammar.start is None:
            raise GrammarError("grammar %r has no start symbol" % grammar.name)
        self.grammar = grammar
        # Augment: $start -> start $end is implicit; we use a distinct
        # accepting production so ACCEPT is recognizable.
        self.accept_prod = grammar.augment()
        self.start_sym = grammar.symbol(START)
        self.states = []  # list of frozenset of (prod_index, dot)
        self.transitions = []  # list of {symbol: state_index}
        self._closures = []  # closure of each state, filled by _build
        self._state_index = {}
        self._build()

    # -- closure / goto ------------------------------------------------------

    def closure(self, kernel):
        """LR(0) closure of a set of items."""
        prods = self.grammar.productions
        closure = set(kernel)
        stack = list(kernel)
        added_nts = set()
        while stack:
            prod_i, dot = stack.pop()
            prod = prods[prod_i]
            if dot >= len(prod.rhs):
                continue
            sym = prod.rhs[dot]
            if sym.is_terminal or sym in added_nts:
                continue
            added_nts.add(sym)
            for p in self.grammar.productions_for(sym):
                item = (p.index, 0)
                if item not in closure:
                    closure.add(item)
                    stack.append(item)
        return closure

    def _goto_kernel(self, closure, symbol):
        prods = self.grammar.productions
        kernel = set()
        for prod_i, dot in closure:
            prod = prods[prod_i]
            if dot < len(prod.rhs) and prod.rhs[dot] is symbol:
                kernel.add((prod_i, dot + 1))
        return frozenset(kernel)

    def _build(self):
        start_kernel = frozenset({(self.accept_prod.index, 0)})
        self._state_index[start_kernel] = 0
        self.states.append(start_kernel)
        self.transitions.append({})
        self._closures.append(None)
        work = [0]
        prods = self.grammar.productions
        while work:
            state_i = work.pop()
            closure = self.closure(self.states[state_i])
            self._closures[state_i] = closure
            symbols = []
            seen = set()
            for prod_i, dot in closure:
                prod = prods[prod_i]
                if dot < len(prod.rhs):
                    sym = prod.rhs[dot]
                    if sym not in seen:
                        seen.add(sym)
                        symbols.append(sym)
            # Deterministic ordering keeps state numbering stable across runs.
            symbols.sort(key=lambda s: s.index)
            for sym in symbols:
                kernel = self._goto_kernel(closure, sym)
                target = self._state_index.get(kernel)
                if target is None:
                    target = len(self.states)
                    self._state_index[kernel] = target
                    self.states.append(kernel)
                    self.transitions.append({})
                    self._closures.append(None)
                    work.append(target)
                self.transitions[state_i][sym] = target

    # -- queries -------------------------------------------------------------

    def closures(self):
        """Closure of every state, as a list parallel to states
        (computed once, while building the automaton)."""
        return self._closures

    def reductions(self, closure):
        """Production indices whose items are complete in ``closure``."""
        prods = self.grammar.productions
        return [
            prod_i
            for prod_i, dot in closure
            if dot == len(prods[prod_i].rhs)
        ]

    def __len__(self):
        return len(self.states)
