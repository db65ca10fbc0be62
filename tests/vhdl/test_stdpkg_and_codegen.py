"""Tests for package STANDARD and the two code-generation back ends."""

import pytest

from repro.vhdl.codegen.cmodel import c_model, c_model_for_unit
from repro.vhdl.semantics_decl import indent, ln, render
from repro.vhdl.stdpkg import standard

from .helpers import compile_ok


class TestStandardPackage:
    def test_singleton(self):
        assert standard() is standard()

    def test_predefined_types_present(self):
        std = standard()
        env = std.environment()
        for name in ("bit", "boolean", "integer", "real", "time",
                     "character", "severity_level", "natural",
                     "positive", "string", "bit_vector"):
            assert env.lookup(name).entries, name

    def test_boolean_literals(self):
        std = standard()
        assert std.boolean.literals == ["false", "true"]
        assert std.boolean.position("true") == 1

    def test_character_type_has_128_positions(self):
        std = standard()
        assert len(std.character.literals) == 128
        assert std.character.literals[ord("a")] == "'a'"
        assert std.character.literals[0] == "nul"

    def test_time_units(self):
        std = standard()
        assert std.time.scale("ns") == 10**6
        assert std.time.scale("hr") == 3600 * 10**15
        assert std.time.image(5 * 10**6) == "5 ns"

    def test_natural_positive_subtypes(self):
        std = standard()
        assert std.natural.effective_low == 0
        assert std.positive.effective_low == 1
        assert std.natural.base() is std.integer

    def test_standard_is_a_std_library_unit(self):
        std = standard()
        assert std.package._vif_home[:2] == ("std", "standard")
        assert std.payload["library"] == "std"

    def test_now_function(self):
        std = standard()
        entries = std.environment().lookup("now").entries
        assert entries and entries[0].predefined_op == "now"


class TestCodeLineModel:
    def test_render_indentation(self):
        lines = [ln("a = 1"), ln("if x:"), ln("b = 2", 1)]
        text = render(lines)
        assert text == "a = 1\nif x:\n    b = 2"

    def test_indent_shifts_depth(self):
        lines = indent([ln("x"), ln("y", 1)], by=2)
        assert lines == [(2, "x"), (3, "y")]

    def test_render_with_base(self):
        assert render([ln("x")], base_indent=1) == "    x"


class TestCModel:
    def test_structure(self):
        body = [
            ln("rt = ctx.rt"),
            ln("s_x = ctx.signal('x', init=0)"),
            ln("def _p_main():"),
            ln("while True:", 1),
            ln("if ops.eq(rt.read(s_x), 1):", 2),
            ln("rt.assign(s_x, ((0, 0),), transport=False)", 3),
            ln("yield rt.wait([s_x], None, None)", 2),
            ln("ctx.process('main', _p_main)"),
        ]
        c = c_model_for_unit("architecture", "rtl", body)
        assert c.startswith("/* Generated")
        assert "void elaborate_rtl(elab_ctx_t *ctx)" in c
        assert "elab_signal(ctx, " in c
        assert "kernel_assign(" in c
        assert "SUSPEND kernel_wait(proc, " in c
        # Braces balance.
        assert c.count("{") == c.count("}")

    def test_name_mangling(self):
        c = c_model_for_unit("architecture", "my-arch!", [])
        assert "elaborate_my_arch_" in c

    def test_braces_balance_on_real_unit(self):
        compiler, _ = compile_ok("""
            entity e is end e;
            architecture rtl of e is
              signal s : integer := 0;
            begin
              process
              begin
                for i in 0 to 3 loop
                  if s < 2 then
                    s <= s + 1;
                  else
                    s <= 0;
                  end if;
                end loop;
                wait;
              end process;
            end rtl;
        """)
        arch = compiler.library.find_architecture("work", "e", "rtl")
        c = c_model(arch)
        assert "for(" in c and "} else {" in c
        assert c.count("{") == c.count("}")


class TestPyModel:
    def test_models_are_pure_python(self):
        import ast

        compiler, _ = compile_ok("""
            package p is
              constant k : integer := 3;
              function f (x : integer) return integer;
            end p;
            package body p is
              function f (x : integer) return integer is
              begin
                return x + k;
              end f;
            end p;
        """)
        for key in ("p", "body(p)"):
            node = compiler.library._units[("work", key)]
            tree = ast.parse(node.py_source)
            # Generated modules define exactly one function: elaborate.
            funcs = [n for n in tree.body
                     if isinstance(n, ast.FunctionDef)]
            assert [f.name for f in funcs] == ["elaborate"]

    def test_package_namespace_prefixing(self):
        compiler, _ = compile_ok("""
            package p is
              constant k : integer := 3;
            end p;
        """)
        pkg = compiler.library.find_unit("work", "p")
        assert "pkg_p__c_k = 3" in pkg.py_source
        assert "ctx.export" in pkg.py_source
