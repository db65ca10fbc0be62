"""Illustrative C model emission.

The paper's back end generated C that the host compiler turned into
the simulator.  Our executable path is the Python model; this module
renders the *same structure* as C source text — signal declarations,
process functions over the kernel's C API, an elaboration entry point —
so that the repository still has a C-shaped generated artifact whose
size benchmark E1 can account the way Figure 2 does.  The text is,
deliberately, not fed to a C compiler (DESIGN.md documents the
substitution), so it is not stored either: :func:`c_model` derives it
from a unit's Python model whenever it is asked for.
"""

import re

from .pymodel import model_lines

_HEADER = """\
/* Generated by the repro VHDL compiler -- illustrative C back end. */
#include "vhdl_kernel.h"
#include "vhdl_runtime.h"
"""

_SUBSTITUTIONS = [
    (re.compile(r"\bops\.(\w+)\("), r"vhdl_\1("),
    (re.compile(r"\brt\.read\("), "kernel_read("),
    (re.compile(r"\brt\.assign\("), "kernel_assign("),
    (re.compile(r"\brt\.wait\("), "kernel_wait(proc, "),
    (re.compile(r"\brt\.event\("), "kernel_event("),
    (re.compile(r"\brt\.active\("), "kernel_active("),
    (re.compile(r"\brt\.last_value\("), "kernel_last_value("),
    (re.compile(r"\brt\.assert_\("), "kernel_assert("),
    (re.compile(r"\brt\.now\b"), "kernel_now()"),
    (re.compile(r"\bctx\.signal\("), "elab_signal(ctx, "),
    (re.compile(r"\bctx\.port\("), "elab_port(ctx, "),
    (re.compile(r"\bctx\.generic\("), "elab_generic(ctx, "),
    (re.compile(r"\bctx\.process\("), "elab_process(ctx, "),
    (re.compile(r"\bctx\.instance\("), "elab_instance(ctx, "),
    (re.compile(r"\byield\s+"), "SUSPEND "),
    (re.compile(r"\bTrue\b"), "1"),
    (re.compile(r"\bFalse\b"), "0"),
    (re.compile(r"\bNone\b"), "NULL"),
    (re.compile(r"\belif\b"), "} else if"),
    (re.compile(r"\belse:"), "} else {"),
    (re.compile(r"'"), '"'),
]


def _c_line(depth, text):
    """One python model line as C-flavored text."""
    for pattern, repl in _SUBSTITUTIONS:
        text = pattern.sub(repl, text)
    indent = "    " * depth
    if text.startswith("def ") and text.endswith(":"):
        name = text[4:].split("(")[0]
        args = text[text.index("("):-1]
        return "%sstatic void %s%s {" % (indent, name, args)
    if text.endswith(":"):
        head = text[:-1]
        for kw in ("if ", "} else if ", "while ", "for "):
            if head.startswith(kw):
                return "%s%s(%s) {" % (
                    indent, kw.rstrip(), head[len(kw):])
        if head == "} else {":
            return indent + head
        return "%s%s {" % (indent, head)
    if text in ("pass",):
        return indent + ";"
    return "%s%s;" % (indent, text)


def c_model_for_unit(unit_kind, name, body_lines):
    """C source text for one compilation unit's model."""
    out = [_HEADER, "/* %s %s */" % (unit_kind, name), ""]
    out.append("void elaborate_%s(elab_ctx_t *ctx) {" % _c_ident(name))
    open_depths = []  # depths (relative) at which a block was opened
    for depth, text in body_lines:
        # "else:"/"elsif" continuations re-open the block they close:
        # their C form ("} else {") carries the closing brace, so the
        # innermost matching open block is replaced, not closed twice.
        continuation = text == "else:" or text.startswith("elif ")
        while open_depths and depth <= open_depths[-1]:
            closed = open_depths.pop()
            if continuation and closed == depth:
                break
            out.append("%s}" % ("    " * (closed + 1)))
        out.append(_c_line(depth + 1, text))
        if text.endswith(":"):
            open_depths.append(depth)
    while open_depths:
        closed = open_depths.pop()
        out.append("%s}" % ("    " * (closed + 1)))
    out.append("}")
    return "\n".join(out) + "\n"


def c_model(unit):
    """The C text of a library unit, derived from its ``py_source``
    and ``rows``.

    Architectures and packages (bodies included) render the lines of
    their ``elaborate(ctx)`` model, each row as the statement it
    stands for (:func:`~repro.vhdl.codegen.pymodel.model_lines`); an
    entity or a configuration generates no code, so its C text is a
    one-line comment."""
    kind = unit.entry_kind
    lines = model_lines(unit.py_source, getattr(unit, "rows", None))
    if not lines:
        return "/* %s %s */" % (kind, unit.name)
    if kind == "package_body":
        kind = "package"
    return c_model_for_unit(kind, unit.name, lines)


def _c_ident(name):
    return "".join(ch if ch.isalnum() else "_" for ch in name)
