"""LALR(1) lookahead computation (DeRemer & Pennello 1982).

Computes, for every (state, completed production) pair, the set of
terminals on which that reduction is valid.  The relations are:

- ``DR(p, A)`` — terminals directly readable after the nonterminal
  transition ``(p, A)``;
- ``reads`` — chained through nullable nonterminal transitions;
- ``includes`` — through right-nullable production suffixes;
- ``lookback`` — connecting reductions to the nonterminal transitions
  whose Follow sets they need.

``Read`` and ``Follow`` are least fixpoints over ``reads`` and
``includes`` respectively, solved with the digraph algorithm (an SCC
traversal that unions set values around cycles).
"""

from .grammar_ops import compute_nullable


def digraph(nodes, edges, initial):
    """Solve ``F(x) = initial(x) ∪ ⋃{F(y) : x edges y}``.

    ``edges`` maps a node to an iterable of successor nodes; ``initial``
    maps a node to its seed set.  Returns ``{node: set}``.  Nodes in a
    cycle receive the union of the whole strongly connected component,
    as required by the DeRemer–Pennello formulation.
    """
    result = {x: set(initial.get(x, ())) for x in nodes}
    n = {x: 0 for x in nodes}
    stack = []
    infinity = len(nodes) + 1

    def traverse(root):
        # Iterative Tarjan-style traversal to survive deep grammars.
        # Each frame is (node, depth-at-push, successor iterator).
        stack.append(root)
        frames = [(root, len(stack), iter(edges.get(root, ())))]
        n[root] = len(stack)
        while frames:
            node, depth, it = frames[-1]
            pushed = False
            for y in it:
                if y not in n:
                    continue
                if n[y] == 0:
                    stack.append(y)
                    n[y] = len(stack)
                    frames.append((y, len(stack), iter(edges.get(y, ()))))
                    pushed = True
                    break
                # y already visited: in-progress (low-link) or done
                # (n[y] is infinity, so min is a no-op).
                n[node] = min(n[node], n[y])
                result[node] |= result[y]
            if pushed:
                continue
            frames.pop()
            if n[node] == depth:
                # node is the root of an SCC: pop it and share the value.
                while True:
                    y = stack.pop()
                    n[y] = infinity
                    if y == node:
                        break
                    result[y] = result[node]
            if frames:
                parent = frames[-1][0]
                n[parent] = min(n[parent], n[node])
                result[parent] |= result[node]

    for x in nodes:
        if n[x] == 0:
            traverse(x)
    return result


class LALRLookaheads:
    """LALR(1) lookahead sets for an :class:`LR0Automaton`."""

    def __init__(self, automaton):
        self.automaton = automaton
        self.grammar = automaton.grammar
        self.nullable = compute_nullable(self.grammar)
        self._nt_transitions = self._find_nt_transitions()
        self._compute()

    def _find_nt_transitions(self):
        trans = []
        for state_i, tmap in enumerate(self.automaton.transitions):
            for sym in tmap:
                if not sym.is_terminal:
                    trans.append((state_i, sym))
        return trans

    def _compute(self):
        auto = self.automaton
        grammar = self.grammar
        nullable = self.nullable
        transitions = auto.transitions

        # DR(p, A): terminals t with a transition from goto(p, A).
        dr = {}
        for (p, a) in self._nt_transitions:
            r = transitions[p][a]
            dr[(p, a)] = {
                sym.name
                for sym in transitions[r]
                if sym.is_terminal
            }
            if grammar.productions[auto.accept_prod.index].rhs[0] is a and p == 0:
                dr[(p, a)].add(grammar.eof.name)

        # reads: (p, A) reads (r, C) iff goto(p,A)=r and C nullable.
        reads = {}
        for (p, a) in self._nt_transitions:
            r = transitions[p][a]
            succ = [
                (r, c)
                for c in transitions[r]
                if not c.is_terminal and c in nullable
            ]
            if succ:
                reads[(p, a)] = succ
        read_sets = digraph(self._nt_transitions, reads, dr)

        # includes and lookback in one pass over nonterminal transitions.
        includes = {t: [] for t in self._nt_transitions}
        lookback = {}
        for (p, a) in self._nt_transitions:
            for prod in grammar.productions_for(a):
                # Trace the RHS from state p; record includes when the
                # suffix after a nonterminal occurrence is nullable, and
                # the final state for lookback.
                state = p
                for i, sym in enumerate(prod.rhs):
                    if not sym.is_terminal and (state, sym) in includes:
                        rest = prod.rhs[i + 1 :]
                        if all(
                            (not s.is_terminal) and s in nullable
                            for s in rest
                        ):
                            includes[(state, sym)].append((p, a))
                    state = transitions[state][sym]
                lookback.setdefault((state, prod.index), []).append((p, a))

        follow_sets = digraph(self._nt_transitions, includes, read_sets)

        # LA(q, prod) = union of Follow over lookback.
        self.lookaheads = {}
        for (q, prod_i), sources in lookback.items():
            la = set()
            for src in sources:
                la |= follow_sets[src]
            self.lookaheads[(q, prod_i)] = la

    def lookahead(self, state_i, prod_index):
        """Terminal names on which ``prod_index`` may be reduced in state."""
        return self.lookaheads.get((state_i, prod_index), set())
