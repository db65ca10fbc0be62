"""Generated names: the one rule that turns a declaration into a Python
name of the generated model and a kernel path.

A name is built from structured parts, never from a string split again:
the *scope path* (the ``SCOPE`` attribute: a tuple of ``("package",
name)`` or ``("block", label)`` pairs), the declaration kind
(:data:`KIND`), the VHDL designator and, for an overloadable one, its
ordinal.  An architecture's and a process's own names have the empty
path, since each lives in its own Python function (``elaborate``,
``_p``); packages export into one namespace, so theirs carry the
package.  A scope element is ``<tag>_<label>__``, a declaration
``<kind>_<name>``, an ordinal ``__<n>``: the lexer refuses a leading,
trailing or doubled ``_`` in an identifier, so reading a name left to
right finds each part again and distinct parts give distinct names.
"""

SCOPE_TAG = {"package": "pkg", "block": "b"}

#: The letter of each kind of declaration; none is a scope tag.
KIND = {"constant": "c", "variable": "v", "signal": "s", "generic": "g",
        "port": "p", "param": "a", "function": "f", "operator": "o",
        "loop": "l"}

_OPERATOR = {"+": "plus", "-": "minus", "*": "times", "/": "div",
             "&": "amp", "=": "eq", "/=": "ne", "<": "lt", "<=": "le",
             ">": "gt", ">=": "ge", "**": "pow"}

#: The selector temporaries of a case statement and a selected signal
#: assignment.  Only the tests of one ``if``/``elif`` chain read one,
#: and they all run before any arm's body, so nested cases share it.
CASE_TEMP, SELECT_TEMP = "_case", "_sel"


def declared(scope, kind, name, ordinal=0):
    """The Python name of ``name`` of ``kind`` in ``scope``; a loop
    parameter's ``ordinal`` counts the for loops around it."""
    return "%s%s_%s%s" % ("".join("%s_%s__" % (SCOPE_TAG[k], label)
                                  for k, label in scope),
                          KIND[kind], name,
                          "__%d" % ordinal if ordinal else "")


def param(name):
    return declared((), "param", name)


def subprogram(scope, designator, ordinal):
    """An operator's ``designator`` is its quoted symbol (``'"+"'``);
    a symbol that is not a word (``and``) is spelled ``_<word>``."""
    if not designator.startswith('"'):
        return declared(scope, "function", designator, ordinal)
    symbol = designator.strip('"')
    word = symbol if symbol.isalnum() else "_" + (_OPERATOR.get(symbol) or (
        "x" + "".join("%02x" % ord(ch) for ch in symbol)))
    return declared(scope, "operator", word, ordinal)


def kernel_path(scope, name):
    """The kernel path of ``name`` in ``scope``, below its unit's."""
    return "".join(label + ":" for kind, label in scope
                   if kind == "block") + name


def guard_signal(scope):
    """``(Python name, kernel path)`` of a guarded block's GUARD."""
    return (declared(scope, "signal", "guard"),
            kernel_path(scope, "")[:-1] + ".guard")


def implicit_label(kind, position):
    """The label of the unlabeled ``kind`` statement at ``position``
    among its region's concurrent statements; no source label starts
    with ``_``."""
    return "_%s%d" % (kind, position)


#: A process record's function (``% label``), the label of a guarded
#: block's GUARD driver (``% block label``), a model's process factory,
#: its parameter for the n-th name a process takes in, and a slot
#: form's parameter (``% n``).
PROCESS_FUNCTION, GUARD_PROCESS = "_p_%s", "_p_guard_%s"
FACTORY, LIFTED, SLOT_PARAM = "_f%d", "_a%d", "_k%d"
