"""A regex-table scanner generator.

The paper's evaluators are "fed tokens by a scanner that reads source
text from a file in the usual way" (§4.1).  :class:`LexerSpec` describes
a scanner declaratively — token rules in priority order, keywords,
skipped patterns — and :meth:`LexerSpec.build` compiles it into a
:class:`Lexer`.  The same :class:`Token` shape is used by the cascaded
expression evaluator's trivial list scanner (:mod:`repro.ag.cascade`),
so both evaluators are fed interchangeably.
"""

import re

from .errors import LexError


class Token:
    """A scanned token.

    ``kind`` is the terminal-symbol name, ``text`` the matched lexeme,
    and ``value`` an arbitrary payload.  The paper notes that Linguist
    "supports a mechanism for incorporating values associated with
    tokens into attribute evaluation" — ``value`` is that mechanism, and
    for LEF tokens it carries symbol-table entries.
    """

    __slots__ = ("kind", "text", "value", "line", "column")

    def __init__(self, kind, text, value=None, line=0, column=0):
        self.kind = kind
        self.text = text
        self.value = value if value is not None else text
        self.line = line
        self.column = column

    def __repr__(self):
        return "Token(%r, %r, line=%d)" % (self.kind, self.text, self.line)

    def __eq__(self, other):
        return (
            isinstance(other, Token)
            and self.kind == other.kind
            and self.text == other.text
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.kind, self.text))


class _Rule:
    __slots__ = ("kind", "pattern", "action")

    def __init__(self, kind, pattern, action):
        self.kind = kind
        self.pattern = pattern
        self.action = action


class LexerSpec:
    """Declarative description of a scanner.

    Rules are tried in declaration order at each input position; the
    first (not the longest) match wins, so longer literals must be
    declared before their prefixes.  ``keywords`` remaps an identifier
    rule's token kind after matching, the standard trick for reserved
    words.
    """

    def __init__(self, name="lexer"):
        self.name = name
        self._rules = []
        self._skip = []
        self._keywords = {}
        self._keyword_source = None
        self.case_insensitive_keywords = False

    def token(self, kind, pattern, action=None):
        """Declare a token rule.

        ``action(text) -> value`` converts the lexeme to the token value
        (e.g. int for numeric literals).
        """
        self._rules.append(_Rule(kind, pattern, action))
        return self

    def skip(self, pattern):
        """Declare a pattern to discard (whitespace, comments)."""
        self._skip.append(pattern)
        return self

    def keywords(self, source_kind, names, case_insensitive=False):
        """Reserve ``names``: when rule ``source_kind`` matches one of
        them, the token kind becomes the keyword's (upper-cased) name
        prefixed with ``kw_`` unless the name is already a valid kind."""
        self._keyword_source = source_kind
        self.case_insensitive_keywords = case_insensitive
        for name in names:
            key = name.lower() if case_insensitive else name
            self._keywords[key] = "kw_" + name.lower()
        return self

    def token_kinds(self):
        """All terminal names this lexer can produce."""
        kinds = [r.kind for r in self._rules]
        return sorted(set(kinds) | set(self._keywords.values()))

    def build(self):
        """Compile the specification into a :class:`Lexer`."""
        return Lexer(self)


class Lexer:
    """A compiled scanner.

    Uses one alternation regex with named groups per rule, preserving
    declaration-order priority via group ordering (Python's ``re``
    returns the leftmost alternative that matches).
    """

    def __init__(self, spec):
        self._spec = spec
        parts = []
        self._actions = {}
        self._group_kind = {}
        for i, rule in enumerate(spec._rules):
            group = "g%d" % i
            parts.append("(?P<%s>%s)" % (group, rule.pattern))
            self._group_kind[group] = rule.kind
            if rule.action is not None:
                self._actions[group] = rule.action
        self._skip_re = (
            re.compile("|".join("(?:%s)" % p for p in spec._skip))
            if spec._skip
            else None
        )
        self._token_re = re.compile("|".join(parts)) if parts else None
        self._keywords = spec._keywords
        self._keyword_source = spec._keyword_source
        self._ci = spec.case_insensitive_keywords

    def tokens(self, text, filename="<input>"):
        """Scan ``text`` and yield :class:`Token` objects."""
        pos = 0
        line = 1
        line_start = 0
        n = len(text)
        while pos < n:
            if self._skip_re is not None:
                m = self._skip_re.match(text, pos)
                if m and m.end() > pos:
                    skipped = m.group()
                    nl = skipped.count("\n")
                    if nl:
                        line += nl
                        line_start = pos + skipped.rfind("\n") + 1
                    pos = m.end()
                    continue
            if self._token_re is None:
                raise LexError("no token rules", line=line,
                               file=filename)
            m = self._token_re.match(text, pos)
            if m is None or m.end() == pos:
                snippet = text[pos : pos + 20].splitlines()[0]
                raise LexError(
                    "cannot scan %r" % snippet,
                    line=line,
                    column=pos - line_start + 1,
                    file=filename,
                )
            group = m.lastgroup
            lexeme = m.group()
            kind = self._group_kind[group]
            value = lexeme
            action = self._actions.get(group)
            if action is not None:
                value = action(lexeme)
            if kind == self._keyword_source:
                key = lexeme.lower() if self._ci else lexeme
                kw = self._keywords.get(key)
                if kw is not None:
                    kind = kw
            yield Token(kind, lexeme, value, line, pos - line_start + 1)
            nl = lexeme.count("\n")
            if nl:
                line += nl
                line_start = pos + lexeme.rfind("\n") + 1
            pos = m.end()

    def scan(self, text, filename="<input>"):
        """Scan ``text`` into a list of tokens."""
        return list(self.tokens(text, filename))


class ListScanner:
    """The trivial scanner of §4.1: pops tokens off the front of a list.

    The paper's version is literally ``X = car(L); L = cdr(L);`` — this
    is the same thing as an iterator over a Python list.
    """

    def __init__(self, token_list):
        self._tokens = list(token_list)
        self._pos = 0

    def __iter__(self):
        return self

    def __next__(self):
        if self._pos >= len(self._tokens):
            raise StopIteration
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok
