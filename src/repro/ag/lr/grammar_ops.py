"""Nullable and FIRST computations over a :class:`repro.ag.grammar.Grammar`."""


def compute_nullable(grammar):
    """Return the set of nullable nonterminals (fixpoint iteration)."""
    nullable = set()
    changed = True
    while changed:
        changed = False
        for prod in grammar.productions:
            if prod.lhs in nullable:
                continue
            if all(
                (not s.is_terminal) and s in nullable for s in prod.rhs
            ):
                nullable.add(prod.lhs)
                changed = True
    return nullable


def compute_first(grammar, nullable=None):
    """Return ``{symbol: frozenset(terminals)}`` FIRST sets.

    Terminals map to themselves; the fixpoint runs over productions.
    """
    if nullable is None:
        nullable = compute_nullable(grammar)
    first = {}
    for sym in grammar.symbols.values():
        first[sym] = {sym} if sym.is_terminal else set()
    changed = True
    while changed:
        changed = False
        for prod in grammar.productions:
            target = first[prod.lhs]
            before = len(target)
            for sym in prod.rhs:
                target |= first[sym]
                if sym.is_terminal or sym not in nullable:
                    break
            if len(target) != before:
                changed = True
    return {sym: frozenset(s) for sym, s in first.items()}
