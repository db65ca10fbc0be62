"""Shared helpers for VHDL compiler tests."""

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
