"""Compiler front-end tests: units, declarations, diagnostics."""

import pytest

from repro.vhdl.codegen.cmodel import c_model
from repro.vhdl.compiler import CompileError, Compiler

from .helpers import (compile_messages, compile_ok, process_line,
                      process_text)


class TestUnits:
    def test_entity_and_architecture(self):
        c, res = compile_ok("""
            entity e is
              port ( a : in bit; b : out bit );
            end e;
            architecture rtl of e is
            begin
              b <= a;
            end rtl;
        """)
        assert res.unit_names() == ["e", "rtl"]
        assert c.library.find_unit("work", "e").entry_kind == "entity"
        arch = c.library.find_architecture("work", "e", "rtl")
        assert arch.entity_name == "e"

    def test_package_and_body(self):
        c, res = compile_ok("""
            package util is
              constant width : integer := 8;
              function clamp (x : integer) return integer;
            end util;
            package body util is
              function clamp (x : integer) return integer is
              begin
                if x > width then
                  return width;
                end if;
                return x;
              end clamp;
            end util;
        """)
        pkg = c.library.find_unit("work", "util")
        assert pkg.entry_kind == "package"
        names = [getattr(d, "name", "") for d in pkg.decls]
        assert "width" in names and "clamp" in names
        body = c.library.find_package_body("work", "util")
        assert body is not None

    def test_semantic_error_is_a_result(self):
        res = Compiler().compile("""
            entity e is end e;
            architecture a of e is
              signal s : no_such_type;
            begin
            end a;
        """)
        assert not res.ok and res.error is None
        assert res.diagnostics
        assert {d.code for d in res.diagnostics} == {"SEM001"}

    def test_missing_entity_reported(self):
        _c, msgs = compile_messages("""
            architecture a of ghost is
            begin
            end a;
        """)
        assert any("ghost" in m for m in msgs)

    def test_source_line_count_convention(self):
        c = Compiler()
        res = c.compile("""
            -- comment only

            entity e is end e;
        """)
        assert res.source_lines == 1


class TestDeclarations:
    def test_enum_type(self):
        c, _ = compile_ok("""
            package p is
              type state is (idle, run, halt);
            end p;
        """)
        pkg = c.library.find_unit("work", "p")
        st = [d for d in pkg.decls
              if getattr(d, "name", "") == "state"][0]
        assert st.literals == ["idle", "run", "halt"]

    def test_integer_and_subtype(self):
        c, _ = compile_ok("""
            package p is
              type small is range 0 to 15;
              subtype tiny is small range 0 to 3;
            end p;
        """)
        pkg = c.library.find_unit("work", "p")
        names = {getattr(d, "name", "") for d in pkg.decls}
        assert {"small", "tiny"} <= names

    def test_array_types(self):
        c, _ = compile_ok("""
            package p is
              type word is array (15 downto 0) of bit;
              type mem is array (natural range <>) of integer;
            end p;
        """)
        pkg = c.library.find_unit("work", "p")
        word = [d for d in pkg.decls
                if getattr(d, "name", "") == "word"][0]
        assert word.index_range.length() == 16
        mem = [d for d in pkg.decls
               if getattr(d, "name", "") == "mem"][0]
        assert mem.index_range is None

    def test_record_type(self):
        c, _ = compile_ok("""
            package p is
              type pair is record
                x : integer;
                y : integer;
              end record;
            end p;
        """)
        pkg = c.library.find_unit("work", "p")
        pair = [d for d in pkg.decls
                if getattr(d, "name", "") == "pair"][0]
        assert pair.field_names == ["x", "y"]

    def test_constant_requires_static_visibility(self):
        _c, msgs = compile_messages("""
            package p is
              constant c : integer := nothing + 1;
            end p;
        """)
        assert any("nothing" in m for m in msgs)

    def test_unconstrained_object_needs_initial_value(self):
        _c, msgs = compile_messages("""
            entity e is end e;
            architecture a of e is
              signal s : bit_vector;
            begin
            end a;
        """)
        assert any("unconstrained" in m for m in msgs)

    def test_duplicate_record_field_reported(self):
        _c, msgs = compile_messages("""
            package p is
              type r is record
                x : integer;
                x : bit;
              end record;
            end p;
        """)
        assert any("duplicate" in m for m in msgs)


class TestGeneratedCode:
    COUNTER = """
        entity e is
          port ( clk : in bit; q : out integer );
        end e;
        architecture rtl of e is
          signal n : integer := 0;
        begin
          process (clk)
          begin
            if clk = '1' then
              n <= n + 1;
            end if;
          end process;
          q <= n;
        end rtl;
    """

    def test_python_model_compiles(self):
        import ast

        c, _ = compile_ok(self.COUNTER)
        arch = c.library.find_architecture("work", "e", "rtl")
        ast.parse(arch.py_source)
        assert "def elaborate(ctx):" in arch.py_source
        assert "rt.assign(s_n" in process_text(arch, "_proc1")

    def test_c_model_emitted(self):
        c, _ = compile_ok(self.COUNTER)
        arch = c.library.find_architecture("work", "e", "rtl")
        text = c_model(arch)
        assert "#include" in text
        assert "elaborate_rtl" in text
        assert "kernel_assign(" in text

    def test_vif_stored_and_dumpable(self):
        c, _ = compile_ok(self.COUNTER)
        text = c.library.dump_vif("work", "rtl(e)")
        assert "ArchUnit" in text
        assert "EntityUnit" in text or "@work.e" in text

    def test_sensitivity_process_gets_final_wait(self):
        c, _ = compile_ok(self.COUNTER)
        arch = c.library.find_architecture("work", "e", "rtl")
        text = process_text(arch, "_proc1")
        assert text.rstrip().endswith("yield rt.wait([p_clk], None, None)")
        assert "sensitivity=[p_clk]" in process_line(arch, "_proc1")

    def test_process_without_wait_diagnosed(self):
        _c, msgs = compile_messages("""
            entity e is end e;
            architecture a of e is
              signal s : bit;
            begin
              process
              begin
                s <= '1';
              end process;
            end a;
        """)
        assert any("no wait statement" in m for m in msgs)

    def test_wait_in_sensitivity_process_diagnosed(self):
        _c, msgs = compile_messages("""
            entity e is end e;
            architecture a of e is
              signal s : bit;
            begin
              process (s)
              begin
                wait for 1 ns;
              end process;
            end a;
        """)
        assert any("sensitivity list cannot contain wait" in m
                   for m in msgs)

    @pytest.mark.parametrize("region, decls, line", [
        ("process", "p : process\n signal z : integer := 4;", 7),
        ("subprogram", "p : process\n procedure q is\n"
                       " signal z : integer := 4;\n begin null; end q;", 8),
    ], ids=["process", "subprogram"])
    def test_signal_in_process_or_subprogram_diagnosed(self, region,
                                                       decls, line):
        c, msgs = compile_messages("""
            entity e is end e;
            architecture a of e is
              signal x : integer := 0;
            begin
              %s
              begin
                x <= 1;
                wait for 1 ns;
              end process;
            end a;
        """ % decls)
        assert msgs == ["line %d: signal 'z' cannot be declared in a %s"
                        % (line, region)]
        assert c.library.find_architecture("work", "e", "a") is None


class TestTypeChecking:
    def test_type_mismatch_in_assignment(self):
        _c, msgs = compile_messages("""
            entity e is end e;
            architecture a of e is
              signal s : bit;
            begin
              s <= 42;
            end a;
        """)
        assert any("bit" in m for m in msgs)

    def test_operator_type_error(self):
        _c, msgs = compile_messages("""
            entity e is end e;
            architecture a of e is
              signal s : integer := 0;
              signal b : bit;
            begin
              process (b)
              begin
                s <= s + b;
              end process;
            end a;
        """)
        assert any("'+'" in m or "+" in m for m in msgs)

    def test_condition_must_be_boolean(self):
        _c, msgs = compile_messages("""
            entity e is end e;
            architecture a of e is
              signal s : integer := 0;
            begin
              process
              begin
                if s then
                  s <= 0;
                end if;
                wait;
              end process;
            end a;
        """)
        assert any("boolean" in m for m in msgs)

    def test_case_completeness_diagnosed(self):
        _c, msgs = compile_messages("""
            entity e is end e;
            architecture a of e is
              signal s : bit := '0';
              signal q : bit;
            begin
              process (s)
              begin
                case s is
                  when '0' => q <= '1';
                end case;
              end process;
            end a;
        """)
        assert any("cover" in m for m in msgs)

    def test_reading_out_port_rejected(self):
        _c, msgs = compile_messages("""
            entity e is
              port ( q : out bit );
            end e;
            architecture a of e is
              signal s : bit;
            begin
              s <= q;
            end a;
        """)
        assert any("cannot be read" in m for m in msgs)


class TestCompileResultUnitNames:
    """Regression: unnamed units used to map to a silent "?"."""

    def test_named_units(self):
        c = Compiler()
        res = c.compile("entity e is end e;")
        assert res.unit_names() == ["e"]

    def test_unnamed_unit_raises_clear_diagnostic(self):
        from repro.vhdl.compiler import CompileResult

        class Nameless:
            name = ""

        res = CompileResult([Nameless()], [], 0, 0)
        with pytest.raises(CompileError, match="unnamed"):
            res.unit_names()
        # repr stays safe even for the pathological case.
        assert "<unnamed>" in repr(res)


#: A design whose every closing designator repeats its construct's;
#: each ``MISMATCHED`` case below renames exactly one of them.
CLOSED = """
package util is
  function inc (x : integer) return integer;
  function "+" (a, b : bit) return bit;
end util;
package body util is
  function inc (x : integer) return integer is
  begin
    return x + 1;
  end inc;
  function "+" (a, b : bit) return bit is
  begin
    return a xor b;
  end "+";
end util;
entity e is end e;
architecture rtl of e is
  signal s : integer := 0;
  procedure tick (signal t : out integer) is
  begin
    t <= 1;
  end tick;
begin
  p : process begin wait for 1 ns; s <= s + 1; end process p;
  b : block begin end block b;
end rtl;
configuration cfg of e is
  for rtl
  end for;
end cfg;
"""

#: (what the source changes, the new text, the message)
MISMATCHED = [
    ("end util;\npackage body", "end utl;\npackage body",
     "closing name 'utl' does not match package 'util'"),
    ("end inc;", "end dec;",
     "closing name 'dec' does not match function 'inc'"),
    ('end "+";', 'end "-";',
     "closing name '\"-\"' does not match function '\"+\"'"),
    ("end e;", "end f;", "closing name 'f' does not match entity 'e'"),
    ("end tick;", "end tock;",
     "closing name 'tock' does not match procedure 'tick'"),
    ("end process p;", "end process q;",
     "closing name 'q' does not match process 'p'"),
    ("p : process begin", "process begin",
     "closing label 'p' on an unlabeled process"),
    ("end block b;", "end block c;",
     "closing name 'c' does not match block 'b'"),
    ("end rtl;", "end other;",
     "closing name 'other' does not match architecture 'rtl'"),
    ("end cfg;", "end gfc;",
     "closing name 'gfc' does not match configuration 'cfg'"),
]


class TestClosingNames:
    """IEEE 1076: a closing designator repeats the unit, subprogram,
    process or block designator, or is left out."""

    def test_repeated_names_compile(self):
        compile_ok(CLOSED)

    def test_omitted_names_compile(self):
        source = CLOSED
        for name in ("util", "inc", '"+"', "e", "tick", "process p",
                     "block b", "rtl", "cfg"):
            source = source.replace("end %s;" % name, "end%s;" % (
                " " + name.split()[0] if " " in name else ""))
        compile_ok(source)

    def test_designator_case_is_ignored(self):
        compile_ok(CLOSED.replace("end inc;", "end INC;").replace(
            "end rtl;", "end RTL;"))

    @pytest.mark.parametrize("old,new,message", MISMATCHED)
    def test_mismatched_name_is_an_error(self, old, new, message):
        assert CLOSED.count(old) == 1
        _c, msgs = compile_messages(CLOSED.replace(old, new))
        assert [m.split(": ", 1)[1] for m in msgs] == [message]


class TestFailedCompile:
    """A compile with errors leaves the library as it was."""

    GOOD = """
        entity e is end e;
        architecture rtl of e is
          signal s : integer := 0;
        begin
          p : process begin wait for 1 ns; s <= s + 1; end process;
        end rtl;
    """
    BAD = GOOD.replace("s + 1", "s + undefined_name")

    def test_failed_compile_registers_no_unit(self):
        from repro.vhdl.library import LibraryManager

        library = LibraryManager()
        before = (library.compile_order, library.version)
        c, msgs = compile_messages(self.BAD, library=library)
        assert msgs
        assert (library.compile_order, library.version) == before
        assert library.find_unit("work", "e") is None

    def test_failed_recompile_keeps_the_stored_units(self, tmp_path):
        from repro.vhdl.library import LibraryManager

        root = str(tmp_path / "lib")
        compile_ok(self.GOOD, library=LibraryManager(root=root))
        files = {p.name: p.read_text()
                 for p in (tmp_path / "lib" / "work").iterdir()}
        result = Compiler(root=root).compile(self.BAD)
        assert not result.ok and result.registered_units == []
        assert {p.name: p.read_text() for p in
                (tmp_path / "lib" / "work").iterdir()} == files
