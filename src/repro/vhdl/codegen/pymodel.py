"""Loading and compiling generated Python models.

A compiled unit's ``py_source`` defines ``elaborate(ctx)``.  The
source is compiled with Python's own byte-compiler — our stand-in for
the host C compiler of the paper's pipeline (the E4 bench measures
this phase's share of compile time the way the paper measured the
20–30% cc share).  The unit's signals, processes and component
instances are not in the text but in its ``rows``, which the model's
``ctx.rows`` calls walk; :func:`model_lines` puts them back as the
statements they stand for.
"""

import re

from .. import names as N

#: The lines rows put in a model: a computed operand's binding, the
#: ``ctx.rows`` call, and the unpack of a signal into a local.
_BINDING = re.compile(N.OPERAND.replace("%d", r"\d+") + " = ")
_ROWS_CALL = re.compile(r"(?:_rows = )?ctx\.rows\(locals\(\)\)$")
_UNPACK = re.compile(r"\w+ = _rows\[")


def compile_model(py_source, unit_name="<model>"):
    """Byte-compile a generated model; returns the code object."""
    return compile(py_source, "<vhdl model %s>" % unit_name, "exec")


def load_model(code, extra_globals=None):
    """Execute a byte-compiled model (:func:`compile_model`); returns
    its namespace.

    ``extra_globals`` supplies the namespaces of packages this unit
    depends on (their exported constants, functions, and signals).
    """
    namespace = {}
    if extra_globals:
        namespace.update(extra_globals)
    exec(code, namespace)
    return namespace


def row_line(row, operand):
    """The Python statement a model row stands for.

    A row is a list: ``["signal", py, path, init, res, line, ...]``,
    ``["process", label, factory, args, sensitivity, line, ...]`` or
    ``["instance", label, component, generics, ports, line, ...]``
    (each map a list of ``[formal, actual]`` pairs); ``res``,
    ``sensitivity`` and a signal's ``line`` may be None.  ``operand``
    spells an operand (``init``, ``res``, an actual); ``args`` and
    ``sensitivity`` are names."""
    kind = row[0]
    if kind == "signal":
        py, path, init, res, line = row[1:6]
        return "%s = ctx.signal(%r, init=%s%s%s)" % (
            py, path, operand(init),
            "" if res is None else ", res=" + operand(res),
            "" if line is None else ", line=%r" % line)
    if kind == "process":
        label, factory, args, sens, line = row[1:6]
        return "ctx.process(%r, %s(%s)%s, line=%r)" % (
            label, factory, ", ".join(args),
            "" if sens is None else ", sensitivity=[%s]" % ", ".join(sens),
            line)
    label, comp, generics, ports = row[1:5]
    return "ctx.instance(%r, %r, {%s}, {%s})" % (
        label, comp, ", ".join("%r: %s" % (k, operand(v))
                               for k, v in generics),
        ", ".join("%r: %s" % (k, operand(v)) for k, v in ports))


def model_lines(py_source, rows):
    """The ``(depth, text)`` lines of a model's ``elaborate(ctx)``
    body, with each ``ctx.rows`` call (and its unpacks) replaced by
    the statements its rows stand for, their computed operands
    inlined: the lines the model would have if it kept every
    statement as text.  A unit with no model has no lines."""
    _, found, body = py_source.partition("def elaborate(ctx):\n")
    if not found:
        return []
    rows = rows or ()
    bindings = {}

    def operand(value):
        if type(value) is not str:
            return repr(value)
        return bindings.get(value, value)

    lines, i = [], 0
    for line in body.split("\n")[:-1]:
        text = line.lstrip(" ")
        depth = (len(line) - len(text)) // 4 - 1
        if depth == 0:
            if _ROWS_CALL.match(text):
                run = rows[i][-1]
                while i < len(rows) and rows[i][-1] == run:
                    lines.append((0, row_line(rows[i], operand)))
                    i += 1
                continue
            if _UNPACK.match(text):
                continue
            if _BINDING.match(text):
                name, _, value = text.partition(" = ")
                bindings[name] = value
                continue
        lines.append((depth, text))
    return lines
