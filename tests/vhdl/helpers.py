"""Shared helpers for VHDL compiler tests."""

import re

from repro.vhdl.compiler import Compiler
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


def process_line(py_source, label):
    """The ``ctx.process`` line of process ``label`` in a model."""
    return re.search(r"^ *ctx\.process\(%r, .*$" % label, py_source,
                     re.M).group().strip()


def process_text(py_source, label):
    """Process ``label``'s function as its factory defines it, with
    each parameter replaced by the name the process line binds."""
    call = re.match(r"ctx\.process\('[^']*', (_f\d+)\(([^)]*)\)",
                    process_line(py_source, label))
    factory, args = call.group(1), call.group(2).split(", ")
    body = re.search(r"^ *def %s\(.*?\):\n(.*?)\n *return _p$"
                     % factory, py_source, re.M | re.S).group(1)
    return re.sub(r"\b_a(\d+)\b", lambda m: args[int(m.group(1))],
                  body)
