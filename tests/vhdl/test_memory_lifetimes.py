"""Memory lifetimes: each byte-compile runs on top of live data only.

A compile's parse tree (with every attribute instance on it) must be
gone before the generated models are byte-compiled, and codegen's
process ASTs before the specialized module is.  The checks count live
objects with :func:`gc.get_objects` while the cyclic collector is off,
so a tree that is still referenced, or left as cyclic garbage, is
counted; nothing is timed.  The merge test pins that the AG's list
merges use memory linear in the number of merged statements, and the
model peak test that byte-compiling a ring's model costs the same
traced memory at any size, less than the cold specialization of it.  The cycle guard
pins that a CLI call's library, reader, compile contexts and VIF nodes
are freed by reference counting, not left for the cyclic collector.
"""

import ast
import builtins
import gc
import tracemalloc
from collections import OrderedDict

import pytest

from repro import cli
from repro.ag.errors import EvaluationError
from repro.ag.lr.parser import ParseTree
from repro.sim import CompiledKernel, codegen, compiled
from repro.vhdl import compiler as compiler_mod
from repro.vhdl import semantics_stmt
from repro.vhdl.compile_ctx import CompileCtx
from repro.vhdl.compiler import Compiler
from repro.vhdl.elaborate import Elaborator
from repro.vhdl.expr_grammar import ExprEvaluator
from repro.vhdl.grammar import _merge_decl
from repro.vhdl.library import LibraryManager
from repro.vhdl.semantics_decl import DeclResult, flatten, ln
from repro.vhdl.semantics_stmt import SRes
from repro.vhdl.semantics_unit import CStmt
from repro.vif.io import VIFReader

RING = """
entity ring is end ring;
architecture rtl of ring is
  signal c0 : integer := 0;
  signal c1 : integer := 0;
  signal c2 : integer := 0;
begin
  p0: process (c0) begin c1 <= 1 - c1 after 1 ns; end process;
  p1: process begin wait on c1; c2 <= 1 - c2 after 1 ns; end process;
  p2: process begin wait on c2; c0 <= 1 - c0 after 1 ns; end process;
end rtl;
"""

#: A signal assignment, whose semantic rule the test makes raise, so
#: evaluation ends in an EvaluationError.
EVAL_ERROR = """
entity e is end e;
architecture a of e is
  signal m : bit;
begin
  process begin
    m <= '1';
    wait;
  end process;
end a;
"""


def _unsupported(*args, **kwargs):
    raise NotImplementedError


def _live(cls):
    """Live instances of ``cls`` and its subclasses: a parse tree's
    nodes are instances of its symbols' node classes."""
    return sum(1 for obj in gc.get_objects() if isinstance(obj, cls))


@pytest.fixture
def no_collector():
    """The cyclic collector off, after one collection: an object
    counted later is referenced or was left as cyclic garbage."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize("after_error", [False, True],
                         ids=["ok", "after_eval_error"])
def test_no_parse_tree_alive_at_model_compile(monkeypatch, no_collector,
                                              after_error):
    counts = []
    compile_model = compiler_mod.compile_model

    def counting(*args, **kwargs):
        counts.append(_live(ParseTree))
        return compile_model(*args, **kwargs)

    monkeypatch.setattr(compiler_mod, "compile_model", counting)
    baseline = _live(ParseTree)
    compiler = Compiler()
    if after_error:
        # The failed result stays alive across the next compile, as
        # in a multi-file CLI run.
        with monkeypatch.context() as patch:
            patch.setattr(semantics_stmt, "signal_assign", _unsupported)
            failed = compiler.compile(EVAL_ERROR)
        assert isinstance(failed.error, EvaluationError)
        assert _live(ParseTree) == baseline
    result = compiler.compile(RING)
    assert result.ok
    assert counts == [baseline]


def test_no_function_def_alive_at_program_compile(monkeypatch,
                                                  no_collector):
    compiler = Compiler()
    compiler.compile(RING)
    kernel = CompiledKernel()
    sim = Elaborator(compiler.library, kernel=kernel).elaborate("ring")
    counts = []

    def counting(*args, **kwargs):
        counts.append(_live(ast.FunctionDef))
        return builtins.compile(*args, **kwargs)

    monkeypatch.setattr(codegen, "compile", counting, raising=False)
    monkeypatch.setattr(compiled, "_PROGRAM_CACHE", OrderedDict())
    baseline = _live(ast.FunctionDef)
    kernel.compile_design(sim.records)
    assert kernel.compiled_procs == 3
    assert counts == [baseline]


PKG = """
package pkg is
  constant step : integer := 3;
  function bump(x : integer) return integer;
end pkg;
package body pkg is
  function bump(x : integer) return integer is
  begin
    return x + step;
  end bump;
end pkg;
"""

TOP = """
library work;
use work.pkg.all;
entity top is end top;
architecture rtl of top is
  signal c : integer := 0;
begin
  p: process begin
    c <= bump(c) after 1 ns;
    wait on c;
  end process;
end rtl;
"""

#: Per-call objects that must never be cyclic garbage.
PER_CALL = (LibraryManager, VIFReader, CompileCtx, ExprEvaluator)


def _cyclic_garbage(work):
    """The repro-typed objects a full collection frees after ``work``
    runs with the collector off."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        garbage = [obj for obj in gc.garbage
                   if type(obj).__module__.startswith("repro.")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return garbage


def _per_call_graph(obj):
    return isinstance(obj, PER_CALL) or \
        type(obj).__module__ == "repro.vif._generated"


def test_cli_calls_leave_no_library_cycles(tmp_path, no_collector):
    """Two compiles into one disk library, then a sim: no manager,
    reader, compile context, evaluator or VIF node waits for the
    collector.  The one known exemption is the simulation kernel's own
    cycles (a ``Process`` and its generator, a ``Signal`` and its
    ``Driver``), with what hangs off them."""
    root = str(tmp_path / "lib")
    paths = []
    for name, text in (("pkg.vhd", PKG), ("top.vhd", TOP)):
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    for path in paths:
        garbage = _cyclic_garbage(lambda: cli.main(
            ["--root", root, "compile", path], out=lambda line: None))
        assert garbage == [], sorted({type(o).__name__ for o in garbage})
    out = []
    garbage = _cyclic_garbage(lambda: cli.main(
        ["--root", root, "sim", "top", "--until", "10ns"], out=out.append))
    assert out[0].startswith("simulation stopped at 10 ns")
    assert [o for o in garbage if _per_call_graph(o)] == []
    outside_kernel = {type(o).__module__ for o in garbage} - {
        "repro.sim.kernel", "repro.sim.process", "repro.sim.signals",
        "repro.sim.vhdlio", "repro.diag.span"}
    assert outside_kernel == set()


def _traced_peak(work):
    gc.collect()
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _ring(n):
    lines = ["entity ring is end ring;", "architecture rtl of ring is"]
    lines += ["  signal c_%d : integer := 0;" % i for i in range(n)]
    lines.append("begin")
    lines += ["  p_%d: process (c_%d) begin c_%d <= 1 - c_%d after 1 ns;"
              " end process;" % (i, i, (i + 1) % n, (i + 1) % n)
              for i in range(n)]
    lines.append("end rtl;")
    compiler = Compiler()
    assert compiler.compile("\n".join(lines)).ok
    return compiler.library


def test_model_byte_compile_peak_does_not_grow_with_the_ring(monkeypatch):
    """A ring's model holds its process shapes, and its rows the
    cells, so byte-compiling the model of 400 cells peaks no higher
    than that of 50; codegen, which binds each of the 400 processes,
    peaks above it."""
    model_peak = {}
    for n in (50, 400):
        arch = _ring(n).find_architecture("work", "ring", "rtl")
        model_peak[n] = _traced_peak(
            lambda: compiler_mod.compile_model(arch.py_source))
    library = _ring(400)
    kernel = CompiledKernel()
    sim = Elaborator(library, kernel=kernel).elaborate("ring")
    monkeypatch.setattr(compiled, "_PROGRAM_CACHE", OrderedDict())
    codegen_peak = _traced_peak(
        lambda: kernel.compile_design(sim.records))
    assert kernel.compiled_procs == 400
    assert model_peak[400] <= model_peak[50] * 1.1
    assert model_peak[400] < codegen_peak


def _cstmt(i):
    return CStmt([ln("pass")], (), [i], "", [[i]], [[i]])


def _decl(i):
    return DeclResult(None, [ln("pass")], [i])


def _chain_peak(merge, leaf, n):
    """Traced peak of a left-leaning merge chain of ``n`` leaves whose
    every intermediate stays alive, as on the parse tree."""
    tracemalloc.start()
    try:
        chain = [leaf(0)]
        for i in range(1, n):
            chain.append(merge(chain[-1], leaf(i)))
        return chain[-1], tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("merge, leaf, fields", [
    (CStmt.merge, _cstmt, ("code", "instances", "processes", "signals")),
    (_merge_decl, _decl, ("code", "entries")),
    (SRes.merge, lambda i: SRes([ln("pass")]), ("code",)),
], ids=["CStmt.merge", "_merge_decl", "SRes.merge"])
def test_merge_chains_grow_linearly(merge, leaf, fields):
    small, small_peak = _chain_peak(merge, leaf, 500)
    large, large_peak = _chain_peak(merge, leaf, 2000)
    for field in fields:
        assert len(flatten(getattr(small, field))) == 500
        assert len(flatten(getattr(large, field))) == 2000
    assert flatten(large.code) == [ln("pass")] * 2000
    # 4x the statements: about 4x the memory, where copying every
    # intermediate list gives about 16x.
    assert large_peak / small_peak < 5
