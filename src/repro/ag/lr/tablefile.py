"""Committed LALR(1) tables: the generated parser shipped as data.

Linguist generated a translator once and the compiler shipped the
result.  :func:`table_file_text` renders a grammar's ACTION/GOTO tables
and conflict records as compact JSON; :func:`read_table_file` turns such
a file back into :class:`~repro.ag.lr.tables.ParseTables` without
building the LR(0) automaton or the lookahead sets.

The file records the grammar *signature* -- symbols, productions
(label, LHS, RHS, precedence override), precedences, start symbol and
the conflict policy -- and is used only when that signature equals the
grammar's own, compared field by field.  A missing, stale or corrupt
file reads as ``None`` and the caller builds the tables in memory;
nothing here ever writes a file.

Actions are signed ints: ``s + 1`` shifts to state ``s``, ``-(p + 1)``
reduces by production ``p``, and ``0`` accepts.  A row lists
``symbol index, entry`` pairs flat, the index pointing into the file's
``terminals`` (ACTION) or ``nonterminals`` (GOTO) list.
"""

import json

from .tables import ACCEPT, REDUCE, SHIFT, Conflict, ParseTables, \
    build_tables

FORMAT = "repro-lalr/1"


def grammar_signature(grammar, allow_conflicts=False):
    """Everything the tables depend on, as JSON-shaped data."""
    return {
        "symbols": [[s.name, s.is_terminal]
                    for s in grammar.symbols.values()],
        "productions": [
            [p.label, p.lhs.name, [s.name for s in p.rhs],
             p.prec.name if p.prec is not None else None]
            for p in grammar.productions
        ],
        "precedence": {name: [level, assoc] for name, (level, assoc)
                       in grammar.precedence.items()},
        "start": grammar.start.name if grammar.start is not None else None,
        "allow_conflicts": bool(allow_conflicts),
    }


def _encode(act):
    if act[0] == SHIFT:
        return act[1] + 1
    if act[0] == REDUCE:
        return -act[1] - 1
    return 0


def _decoder():
    """Signed int -> action tuple, one shared tuple per distinct code."""
    cache = {0: (ACCEPT,)}

    def decode(code):
        act = cache.get(code)
        if act is None:
            act = (SHIFT, code - 1) if code > 0 else (REDUCE, -code - 1)
            cache[code] = act
        return act

    return decode


def _dumps(value):
    return json.dumps(value, separators=(",", ":"))


def table_file_text(grammar, allow_conflicts=False):
    """Build ``grammar``'s tables and render the table file.

    The signature is taken before :func:`build_tables` augments the
    grammar, matching what :func:`read_table_file` sees at load time.
    """
    signature = grammar_signature(grammar, allow_conflicts)
    tables = build_tables(grammar, allow_conflicts=allow_conflicts)
    terminals = [s.name for s in grammar.terminals]
    nonterminals = [s.name for s in grammar.nonterminals]
    t_index = {name: i for i, name in enumerate(terminals)}
    n_index = {name: i for i, name in enumerate(nonterminals)}

    def rows(table, index, encode):
        return [[x for name, entry in sorted(row.items(),
                                             key=lambda e: index[e[0]])
                 for x in (index[name], encode(entry))]
                for row in table]

    parts = [
        ("format", _dumps(FORMAT)),
        ("grammar", _dumps(grammar.name)),
        ("signature", _dumps(signature)),
        ("accept", _dumps(tables.accept_index)),
        ("terminals", _dumps(terminals)),
        ("nonterminals", _dumps(nonterminals)),
        ("conflicts", _dumps([
            [c.state, c.terminal, c.kind, [_encode(a) for a in c.actions],
             c.resolution]
            for c in tables.conflicts])),
    ]
    # One state per line keeps a regenerated file's diff readable.
    for key, table, index, encode in (
            ("action", tables.action, t_index, _encode),
            ("goto", tables.goto, n_index, int)):
        parts.append((key, "[\n%s\n]" % ",\n".join(
            _dumps(row) for row in rows(table, index, encode))))
    return "{%s}\n" % ",\n".join('"%s":%s' % part for part in parts)


def read_table_file(grammar, path, allow_conflicts=False):
    """:class:`ParseTables` for ``grammar`` from the file at ``path``,
    or ``None`` when the file is missing, unreadable or records another
    grammar.  On success the grammar gains its ``$accept`` production,
    as :func:`build_tables` would add it."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("format") != FORMAT \
            or data.get("signature") != grammar_signature(
                grammar, allow_conflicts):
        return None
    decode = _decoder()
    try:
        terminals = data["terminals"]
        nonterminals = data["nonterminals"]
        action = [dict(zip(map(terminals.__getitem__, row[::2]),
                           map(decode, row[1::2])))
                  for row in data["action"]]
        goto = [dict(zip(map(nonterminals.__getitem__, row[::2]),
                         row[1::2]))
                for row in data["goto"]]
        conflicts = [Conflict(state, term, kind,
                              tuple(map(decode, actions)), resolution)
                     for state, term, kind, actions, resolution
                     in data["conflicts"]]
        accept_index = data["accept"]
    except (KeyError, IndexError, TypeError, ValueError):
        return None
    if grammar.augment().index != accept_index:
        return None
    return ParseTables(grammar, action, goto, conflicts, accept_index)
