"""Separate compilation, context clauses, and configurations
(§3.3, §3.4 of the paper)."""

import pytest

from repro.vhdl.compiler import Compiler
from repro.vhdl.elaborate import Elaborator
from repro.vhdl.library import LibraryError, LibraryManager

from .helpers import NS, compile_messages, compile_ok


PKG = """
    package util is
      constant width : integer := 8;
      type state is (idle, busy);
      function bump (x : integer) return integer;
    end util;
    package body util is
      function bump (x : integer) return integer is
      begin
        return x + 1;
      end bump;
    end util;
"""


class TestUseClauses:
    def test_use_all(self):
        c = Compiler(strict=False)
        assert c.compile(PKG).ok
        res = c.compile("""
            use work.util.all;
            entity e is end e;
            architecture a of e is
              signal s : state := busy;
              signal n : integer := width;
            begin
            end a;
        """)
        assert res.ok, res.messages

    def test_use_individual_name(self):
        """§3.4: 'names declared within a compilation unit may be
        imported individually'."""
        c = Compiler(strict=False)
        c.compile(PKG)
        res = c.compile("""
            use work.util.width;
            entity e is end e;
            architecture a of e is
              signal n : integer := width;
            begin
            end a;
        """)
        assert res.ok, res.messages

    def test_unimported_name_invisible(self):
        c = Compiler(strict=False)
        c.compile(PKG)
        res = c.compile("""
            use work.util.width;
            entity e is end e;
            architecture a of e is
              signal s : state := idle;
            begin
            end a;
        """)
        assert any("state" in m for m in res.messages)

    def test_selected_name_without_use_all(self):
        c = Compiler(strict=False)
        c.compile(PKG)
        res = c.compile("""
            entity e is end e;
            architecture a of e is
              signal n : integer := work.util.width;
            begin
            end a;
        """)
        assert res.ok, res.messages

    def test_homograph_conflict_then_individual_import(self):
        """§3.4's punchline: two .ALL imports with a homograph hide it;
        importing the referenced identifier one by one avoids the
        conflict."""
        c = Compiler(strict=False)
        c.compile("""
            package p1 is
              constant k : integer := 1;
            end p1;
            package p2 is
              constant k : integer := 2;
            end p2;
        """)
        conflicted = c.compile("""
            use work.p1.all;
            use work.p2.all;
            entity e1 is end e1;
            architecture a of e1 is
              signal n : integer := k;
            begin
            end a;
        """)
        assert any("k" in m for m in conflicted.messages)
        resolved = c.compile("""
            use work.p1.k;
            entity e2 is end e2;
            architecture a of e2 is
              signal n : integer := k;
            begin
            end a;
        """)
        assert resolved.ok, resolved.messages

    def test_missing_library_clause_diagnosed(self):
        c = Compiler(strict=False)
        res = c.compile("""
            use mylib.p.all;
            entity e is end e;
            architecture a of e is
            begin
            end a;
        """)
        assert any("library" in m for m in res.messages)

    def test_package_constant_used_through_function(self):
        c = Compiler(strict=False)
        c.compile(PKG)
        res = c.compile("""
            use work.util.all;
            entity top is end top;
            architecture a of top is
              signal r : integer := 0;
            begin
              process
              begin
                r <= bump(width);
                wait;
              end process;
            end a;
        """)
        assert res.ok, res.messages
        sim = Elaborator(c.library).elaborate("top")
        sim.run(until_fs=NS)
        assert sim.value("r") == 9


class TestLibraryManager:
    def test_reference_library_not_updatable(self):
        lib = LibraryManager(reference_libs=("vendor",))
        with pytest.raises(LibraryError):
            from repro.vif.nodes import PackageUnit

            lib.register_unit("vendor", PackageUnit(name="p"))

    def test_compile_order_tracked(self):
        c = Compiler(strict=False)
        c.compile("entity a is end a;")
        c.compile("entity b is end b;")
        keys = [k for l, k in c.library.compile_order if l == "work"]
        assert keys == ["a", "b"]

    def test_foreign_read_shares_nodes(self):
        c = Compiler(strict=False)
        c.compile(PKG)
        unit = c.library.read_foreign("work", "util")
        assert unit.name == "util"

    def test_disk_persistence_roundtrip(self, tmp_path):
        root = str(tmp_path / "libs")
        c = Compiler(root=root)
        c.compile("""
            entity e is
              port ( a : in bit; b : out bit );
            end e;
            architecture rtl of e is
            begin
              b <= a;
            end rtl;
        """)
        # A brand-new manager reloads from disk.
        lib2 = LibraryManager(root=root)
        arch = lib2.find_architecture("work", "e", "rtl")
        assert arch is not None
        assert "def elaborate" in arch.py_source
        ent = lib2.find_unit("work", "e")
        assert arch.entity is ent or arch.entity.name == "e"

    def test_reload_order_survives_long_dependency_chains(self,
                                                          monkeypatch):
        # p0000 <- p0001 <- ... <- p2999, each package body after its
        # package; far deeper than the interpreter's recursion limit.
        n = 3000
        names = ["p%04d" % i for i in range(n)]
        deps = {("work", names[i]): [("work", names[i - 1])]
                for i in range(1, n)}
        loaded = sorted([("work", name) for name in names]
                        + [("work", "body(%s)" % name) for name in names])
        lib = LibraryManager()
        monkeypatch.setattr(lib, "depends_of",
                            lambda l, k: deps.get((l, k), []))
        order = lib._dependency_order(loaded)
        assert sorted(order) == loaded
        pos = {entry: i for i, entry in enumerate(order)}
        for unit, before in deps.items():
            assert pos[before[0]] < pos[unit]
        for name in names:
            assert pos[("work", name)] < pos[("work", "body(%s)" % name)]


LEAF = """
    entity leaf is
      generic ( delta : integer := 1 );
      port ( x : in integer; y : out integer );
    end leaf;
    architecture plus of leaf is
    begin
      y <= x + delta;
    end plus;
    architecture minus of leaf is
    begin
      y <= x - delta;
    end minus;
"""

TOP = """
    entity top is end top;
    architecture bench of top is
      component leaf
        generic ( delta : integer := 1 );
        port ( x : in integer; y : out integer );
      end component;
      signal a : integer := 10;
      signal b : integer := 0;
    begin
      u1 : leaf port map ( x => a, y => b );
    end bench;
"""


class TestConfiguration:
    def test_default_binding_latest_architecture(self):
        """§3.3: 'the default ... is the latest compiled architecture
        for that entity' — usage-history dependent."""
        c = Compiler(strict=False)
        c.compile(LEAF)
        c.compile(TOP)
        sim = Elaborator(c.library).elaborate("top")
        sim.run(until_fs=NS)
        assert sim.value("b") == 9  # minus compiled last

    def test_default_binding_changes_with_recompile(self):
        """The non-determinism the paper warns about: recompiling an
        architecture changes what the same description elaborates to."""
        c = Compiler(strict=False)
        c.compile(LEAF)
        c.compile(TOP)
        # Recompile 'plus': it becomes the latest.
        c.compile("""
            architecture plus of leaf is
            begin
              y <= x + delta;
            end plus;
        """)
        sim = Elaborator(c.library).elaborate("top")
        sim.run(until_fs=NS)
        assert sim.value("b") == 11

    def test_configuration_specification_in_architecture(self):
        c = Compiler(strict=False)
        c.compile(LEAF)
        c.compile("""
            entity top2 is end top2;
            architecture bench of top2 is
              component leaf
                generic ( delta : integer := 1 );
                port ( x : in integer; y : out integer );
              end component;
              for u1 : leaf use entity work.leaf(plus);
              signal a : integer := 10;
              signal b : integer := 0;
            begin
              u1 : leaf port map ( x => a, y => b );
            end bench;
        """)
        sim = Elaborator(c.library).elaborate("top2")
        sim.run(until_fs=NS)
        assert sim.value("b") == 11  # bound to plus despite minus later

    def test_configuration_unit(self):
        c = Compiler(strict=False)
        c.compile(LEAF)
        c.compile(TOP)
        c.compile("""
            configuration pick_plus of top is
              for bench
                for u1 : leaf use entity work.leaf(plus);
                end for;
              end for;
            end pick_plus;
        """)
        sim = Elaborator(c.library).elaborate("pick_plus")
        sim.run(until_fs=NS)
        assert sim.value("b") == 11

    def test_generic_map_in_instance(self):
        c = Compiler(strict=False)
        c.compile(LEAF)
        c.compile("""
            entity top3 is end top3;
            architecture bench of top3 is
              component leaf
                generic ( delta : integer := 1 );
                port ( x : in integer; y : out integer );
              end component;
              for all : leaf use entity work.leaf(plus);
              signal a : integer := 10;
              signal b : integer := 0;
            begin
              u1 : leaf generic map ( delta => 32 )
                        port map ( x => a, y => b );
            end bench;
        """)
        sim = Elaborator(c.library).elaborate("top3")
        sim.run(until_fs=NS)
        assert sim.value("b") == 42

    def test_unbound_component_reported_at_elaboration(self):
        from repro.vhdl.elaborate import ElaborationError

        c = Compiler(strict=False)
        c.compile("""
            entity top4 is end top4;
            architecture bench of top4 is
              component ghost
                port ( x : in integer );
              end component;
              signal a : integer := 0;
            begin
              u1 : ghost port map ( x => a );
            end bench;
        """)
        with pytest.raises(ElaborationError):
            Elaborator(c.library).elaborate("top4")


class TestPackageSignals:
    def test_global_signal_in_package(self):
        """VHDL packages may contain global signals (§3.3)."""
        c = Compiler(strict=False)
        res = c.compile("""
            package globals is
              signal heartbeat : integer := 7;
            end globals;
        """)
        assert res.ok, res.messages
        res = c.compile("""
            use work.globals.all;
            entity top is end top;
            architecture a of top is
              signal r : integer := 0;
            begin
              process
              begin
                r <= heartbeat + 1;
                wait;
              end process;
            end a;
        """)
        assert res.ok, res.messages
        sim = Elaborator(c.library).elaborate("top")
        sim.run(until_fs=NS)
        assert sim.value("r") == 8
