"""LEF — the intermediate language for expressions (§4.1).

"LEF consists of a flat list of tokens with no other structure imposed
on them. ... the symbol table is an attribute of the principal AG, not
of the expression AG, and it is used to resolve identifiers so that ID
is not a token of LEF; instead there are distinct tokens for variable,
type, subprogram, attribute, enum_literal, etc."

Our LEF token kinds:

==========  ==================================================
``OBJ``     an object (variable/signal/constant/generic/port);
            value: the ObjectEntry
``NAMESET`` an overloadable name: subprograms and/or enum
            literals; value: list of entries
``TYPEMARK``a type or subtype; value: the type node
``UNIT``    a physical-type unit; value: PhysicalUnitEntry
``RAWID``   an identifier with no (or deferred) denotation —
            formal names, record fields, attribute designators
``INT/REAL/STR/BITSTR``  literals (CHAR literals classify as
            NAMESET over enum literals)
punctuation ``LP RP COMMA ARROW BAR TICK DOT``
operators   ``AND OR NAND NOR XOR NOT EQ NE LT LE GT GE PLUS
            MINUS AMP STAR SLASH MOD REM POW ABS TO DOWNTO``
``OTHERS``  the aggregate/choice keyword
mode marks  ``M_EXPR M_TARGET M_RANGE M_CHOICE M_CALL`` —
            synthetic first token selecting the goal phrase
            (the paper's "flags indicating the context")
==========  ==================================================

Because token *values* ride along (Linguist's token-value mechanism),
"all the information associated with a variable by the principal AG is
also available in the expression AG".
"""

from ..ag import Token
from ..applicative import Env
from .symtab import entry_kind, deref_alias

#: Mode marks: the context flag exprEval passes (§4.1).
M_EXPR = "M_EXPR"
M_TARGET = "M_TARGET"
M_RANGE = "M_RANGE"
M_CHOICE = "M_CHOICE"
M_CALL = "M_CALL"

MODES = (M_EXPR, M_TARGET, M_RANGE, M_CHOICE, M_CALL)

#: All LEF terminal kinds (the expression AG's terminal alphabet).
LEF_KINDS = MODES + (
    "OBJ", "NAMESET", "TYPEMARK", "UNIT", "RAWID",
    "INT", "REAL", "STR", "BITSTR",
    "LP", "RP", "COMMA", "ARROW", "BAR", "TICK", "DOT",
    "AND", "OR", "NAND", "NOR", "XOR", "NOT",
    "EQ", "NE", "LT", "LE", "GT", "GE",
    "PLUS", "MINUS", "AMP", "STAR", "SLASH", "MOD", "REM", "POW", "ABS",
    "TO", "DOWNTO", "OTHERS", "RANGEKW", "BOX",
)


def lef(kind, text, value=None, line=0):
    """Build one LEF token."""
    return Token(kind, text, value, line)


class LefError:
    """A classification failure carried inside the LEF list.

    Rather than aborting the principal AG, a bad identifier becomes a
    RAWID whose value records the message; the expression AG reports it
    when (and only if) the name is actually used as a value.
    """

    __slots__ = ("message",)

    def __init__(self, message):
        self.message = message

    def __repr__(self):
        return "LefError(%r)" % self.message


def classify_id(name, env, line=0, text=None):
    """Resolve an identifier against ENV into a LEF token.

    This is the heart of cascaded evaluation: the same source text
    produces different LEF tokens — hence different phrase structure in
    the expression AG — depending on what the name denotes here.
    """
    text = text if text is not None else name
    result = env.lookup(name)
    if result.conflict:
        return lef(
            "RAWID", text,
            LefError(
                "%r is hidden by conflicting use-clause imports" % text
            ),
            line,
        )
    entries = _unique([deref_alias(e) for e in result.entries])
    if not entries:
        # Unknown here: may be a formal name or record field resolved
        # by selection in the expression AG; error only if used as a
        # value.
        return lef("RAWID", text, LefError("%r is not visible" % text), line)
    kinds = {entry_kind(e) for e in entries}
    if kinds <= {"subprogram", "enum_literal"}:
        return lef("NAMESET", text, entries, line)
    first = entries[0]
    k = entry_kind(first)
    if k == "object" or k == "param":
        return lef("OBJ", text, first, line)
    if k == "type":
        return lef("TYPEMARK", text, first, line)
    if k == "physical_unit":
        return lef("UNIT", text, first, line)
    if k in ("entity", "architecture", "package", "configuration",
             "component", "attribute_decl", "library"):
        # Usable only in selected-name or attribute positions; ride as
        # RAWID with the entry attached for the expression AG's prefix
        # handling.
        return lef("RAWID", text, first, line)
    return lef(
        "RAWID", text, LefError("%r cannot appear in an expression" % text),
        line,
    )


def _unique(entries):
    seen = set()
    out = []
    for e in entries:
        if id(e) not in seen:
            seen.add(id(e))
            out.append(e)
    return out


def classify_char(char_text, env, line=0):
    """A character literal is an overloadable enum-literal name."""
    result = env.lookup(char_text)
    entries = _unique(
        e for e in result.entries if entry_kind(e) == "enum_literal"
    )
    if entries:
        return lef("NAMESET", char_text, entries, line)
    return lef(
        "RAWID", char_text,
        LefError("character literal %s has no visible type" % char_text),
        line,
    )


def mode_token(mode, line=0):
    """The synthetic first token selecting the goal phrase structure."""
    assert mode in MODES
    return lef(mode, mode, mode, line)
