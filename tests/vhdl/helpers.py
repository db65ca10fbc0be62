"""Shared helpers for VHDL compiler tests."""

import re

from repro.vhdl.compiler import Compiler
from repro.vhdl.codegen.pymodel import row_line
from repro.vhdl.elaborate import Elaborator

NS = 10**6  # fs per ns
US = 10**9


def compile_ok(source, library=None):
    """Compile and require zero diagnostics."""
    c = Compiler(library=library)
    result = c.compile(source)
    assert result.messages == [], "\n".join(result.messages)
    return c, result


def compile_messages(source, library=None):
    """Compile and return the diagnostics list."""
    c = Compiler(library=library)
    result = c.compile(source)
    return c, result.messages


def simulate(source, top, until_ns=1000, generics=None):
    """Compile, elaborate and run; returns the Simulation."""
    c, _result = compile_ok(source)
    elab = Elaborator(c.library)
    sim = elab.elaborate(top, generics=generics)
    sim.run(until_fs=until_ns * NS)
    return sim


def process_row(unit, label):
    """The row of process ``label`` in a unit's model."""
    [row] = [row for row in unit.rows
             if row[0] == "process" and row[1] == label]
    return row


def process_line(unit, label):
    """The ``ctx.process`` statement process ``label``'s row stands
    for."""
    return row_line(process_row(unit, label), str)


def process_text(unit, label):
    """Process ``label``'s function as its factory defines it, with
    each parameter replaced by the name its row binds."""
    _, _, factory, args = process_row(unit, label)[:4]
    body = re.search(r"^ *def %s\(.*?\):\n(.*?)\n *return _p$"
                     % factory, unit.py_source, re.M | re.S).group(1)
    return re.sub(r"\b_a(\d+)\b", lambda m: args[int(m.group(1))],
                  body)
