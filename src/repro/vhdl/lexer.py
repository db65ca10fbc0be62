"""The VHDL scanner (IEEE 1076-1987 lexical rules).

Identifiers are case-insensitive: tokens carry the original text, and
``Token.value`` holds the lower-cased name used for lookup.  Abstract
literals (with underscores and based forms), character literals, string
literals with doubled-quote escapes, and bit-string literals are all
handled.

One classic VHDL lexing hazard: in a qualified expression like
``bit'('1')`` the characters ``'('`` would scan as a character literal,
but a tick directly after an identifier or ``)`` is always an
attribute/qualification tick.  The CHAR rule therefore carries a
negative lookbehind on identifier characters and ``)``.
"""

from ..ag import LexerSpec

KEYWORDS = [
    "abs", "access", "after", "alias", "all", "and", "architecture",
    "array", "assert", "attribute", "begin", "block", "body", "buffer",
    "bus", "case", "component", "configuration", "constant",
    "disconnect", "downto", "else", "elsif", "end", "entity", "exit",
    "file", "for", "function", "generate", "generic", "guarded", "if",
    "in", "inout", "is", "label", "library", "linkage", "loop", "map",
    "mod", "nand", "new", "next", "nor", "not", "null", "of", "on",
    "open", "or", "others", "out", "package", "port", "procedure",
    "process", "range", "record", "register", "rem", "report", "return",
    "select", "severity", "signal", "subtype", "then", "to",
    "transport", "type", "units", "until", "use", "variable", "wait",
    "when", "while", "with", "xor",
]


def _parse_abstract(text):
    """Integer or real literal value, handling underscores, based
    literals (2#1010#), and exponents."""
    text = text.replace("_", "").lower()
    if "#" in text:
        base_s, _, rest = text.partition("#")
        digits, _, exp_s = rest.partition("#")
        base = int(base_s)
        exp = int(exp_s.lstrip("e") or "0") if exp_s else 0
        if "." in digits:
            whole, _, frac = digits.partition(".")
            value = int(whole, base) + (
                int(frac, base) / (base ** len(frac)) if frac else 0.0
            )
            return value * (base**exp)
        return int(digits, base) * (base**exp)
    if "." in text:
        return float(text)
    if "e" in text:
        mantissa, _, exp = text.partition("e")
        return int(mantissa) * (10 ** int(exp))
    return int(text)


def _string_value(text):
    """Unquote a string literal, collapsing doubled quotes."""
    return text[1:-1].replace('""', '"')


def _bitstring_value(text):
    """Expand a bit-string literal to a string of 0/1 characters."""
    base_ch = text[0].lower()
    digits = text[2:-1].replace("_", "")
    width = {"b": 1, "o": 3, "x": 4}[base_ch]
    base = {"b": 2, "o": 8, "x": 16}[base_ch]
    bits = []
    for ch in digits:
        bits.append(format(int(ch, base), "0%db" % width))
    return "".join(bits)


def _make_lexer():
    lex = LexerSpec("vhdl")
    lex.skip(r"\s+")
    lex.skip(r"--[^\n]*")
    lex.token(
        "BITSTRING", r"[bBoOxX]\"[0-9a-fA-F_]*\"", action=_bitstring_value
    )
    # A basic identifier: no leading, trailing or doubled underline,
    # so no identifier spells a generated name's separator (names.py).
    lex.token("ID", r"[a-zA-Z](?:_?[a-zA-Z0-9])*", action=str.lower)
    lex.token(
        "ABSTRACT",
        r"\d[\d_]*#[\da-fA-F_]+(\.[\da-fA-F_]+)?#([eE][+-]?\d+)?"
        r"|\d[\d_]*\.\d[\d_]*([eE][+-]?\d+)?"
        r"|\d[\d_]*([eE]\+?\d+)?",
        action=_parse_abstract,
    )
    # A character literal cannot directly follow an identifier or a
    # closing parenthesis — there the tick is an attribute tick.
    lex.token("CHAR", r"(?<![\w)])'[^']'", action=lambda t: t)
    lex.token("STRING", r'"([^"]|"")*"', action=_string_value)
    lex.token("ARROW", r"=>")
    lex.token("POW", r"\*\*")
    lex.token("COLONEQ", r":=")
    lex.token("NE", r"/=")
    lex.token("GE", r">=")
    lex.token("LE", r"<=")
    lex.token("BOX", r"<>")
    lex.token("AMP", r"&")
    lex.token("TICK", r"'")
    lex.token("LP", r"\(")
    lex.token("RP", r"\)")
    lex.token("STAR", r"\*")
    lex.token("PLUS", r"\+")
    lex.token("COMMA", r",")
    lex.token("MINUS", r"-")
    lex.token("DOT", r"\.")
    lex.token("SLASH", r"/")
    lex.token("COLON", r":")
    lex.token("SEMI", r";")
    lex.token("LT", r"<")
    lex.token("EQ", r"=")
    lex.token("GT", r">")
    lex.token("BAR", r"\|")
    lex.keywords("ID", KEYWORDS, case_insensitive=True)
    return lex.build()


_LEXER = None


def lexer():
    global _LEXER
    if _LEXER is None:
        _LEXER = _make_lexer()
    return _LEXER


def scan(text, filename="<input>"):
    """Scan VHDL source into tokens."""
    return lexer().scan(text, filename)


def token_kinds():
    """All terminal names the VHDL scanner can produce."""
    return lexer()._spec.token_kinds()
