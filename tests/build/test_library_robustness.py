"""Crash-safety of the on-disk library: atomic artifact writes and
quarantine of corrupt VIF files instead of load-time crashes."""

import json
import os

from repro.cli import main
from repro.vhdl.compiler import Compiler
from repro.vhdl.library import LibraryManager, unit_filename

ENTITY = """
entity e is
  port ( a : in bit; b : out bit );
end e;
architecture rtl of e is
begin
  b <= a;
end rtl;
"""


def _build(root):
    Compiler(root=root).compile(ENTITY)


class TestAtomicStore:
    def test_no_temp_droppings(self, tmp_path):
        root = str(tmp_path / "libs")
        _build(root)
        work = os.path.join(root, "work")
        leftovers = [f for f in os.listdir(work)
                     if f.startswith(".tmp.") or f.endswith(".part")]
        assert leftovers == []

    def test_rewrite_replaces_in_place(self, tmp_path):
        root = str(tmp_path / "libs")
        _build(root)
        _build(root)  # recompile: replace, not append/truncate
        path = os.path.join(root, "work",
                            unit_filename("e", "vif.json"))
        with open(path) as f:
            payload = json.load(f)  # still valid JSON
        assert payload["unit"] == "e"


class TestQuarantine:
    def test_corrupt_vif_json_quarantined_not_fatal(self, tmp_path):
        root = str(tmp_path / "libs")
        _build(root)
        victim = os.path.join(root, "work",
                              unit_filename("rtl(e)", "vif.json"))
        with open(victim, "w") as f:
            f.write("{ half a payload")
        # A fresh manager must come up instead of raising
        # json.JSONDecodeError, with the rot moved aside.
        lib = LibraryManager(root=root)
        assert lib.quarantined, "corrupt artifact not recorded"
        assert os.path.exists(victim + ".corrupt")
        assert not os.path.exists(victim)
        # The healthy unit survived the load.
        assert lib.find_unit("work", "e") is not None
        assert lib.find_architecture("work", "e", "rtl") is None

    def test_structurally_bad_payload_quarantined(self, tmp_path):
        root = str(tmp_path / "libs")
        _build(root)
        victim = os.path.join(root, "work",
                              unit_filename("e", "vif.json"))
        with open(victim, "w") as f:
            json.dump({"format": "VIF-999", "nodes": []}, f)
        lib = LibraryManager(root=root)
        assert any(victim in path for path, _ in lib.quarantined)
        assert lib.find_unit("work", "e") is None

    def test_recompile_heals_quarantined_unit(self, tmp_path):
        root = str(tmp_path / "libs")
        _build(root)
        victim = os.path.join(root, "work",
                              unit_filename("e", "vif.json"))
        with open(victim, "w") as f:
            f.write("garbage")
        LibraryManager(root=root)  # quarantines
        _build(root)               # recompile writes a fresh artifact
        lib = LibraryManager(root=root)
        assert lib.find_unit("work", "e") is not None
        assert lib.quarantined == []


class TestDependencyMetadata:
    def test_depends_of_surfaces_writer_set(self, tmp_path):
        root = str(tmp_path / "libs")
        c = Compiler(root=root)
        c.compile("package p is constant k : integer := 1; end p;")
        c.compile("""
            use work.p.all;
            entity e is end e;
        """)
        lib = LibraryManager(root=root)
        deps = lib.depends_of("work", "e")
        assert ("std", "standard") in deps or deps == [] or \
            all(isinstance(d, tuple) and len(d) == 2 for d in deps)
        # The architecture of an entity always depends on the entity.
        c.compile("architecture a of e is begin end a;")
        lib = LibraryManager(root=root)
        assert ("work", "e") in lib.depends_of("work", "a(e)")

    def test_apply_compile_order(self, tmp_path):
        root = str(tmp_path / "libs")
        c = Compiler(root=root)
        c.compile("entity x is end x;")
        c.compile("entity y is end y;")
        lib = LibraryManager(root=root)
        lib.apply_compile_order([("work", "y"), ("work", "x")])
        work_units = [k for l, k in lib.compile_order if l == "work"]
        assert work_units == ["y", "x"]
        # Unknown recorded entries are ignored; std stays in front.
        lib.apply_compile_order([("work", "ghost"), ("work", "x")])
        assert lib.compile_order[0] == ("std", "standard")


class TestOneArtifactPerUnit:
    """A unit is stored as its VIF payload alone; the payload's
    ``py_source`` is the model a reopened library runs."""

    def test_side_files_do_not_override_model(self, tmp_path):
        root = str(tmp_path / "libs")
        c = Compiler(root=root)
        c.compile(ENTITY)
        model = c.library.find_architecture("work", "e", "rtl").py_source
        work = os.path.join(root, "work")
        # What a crash between separate side-file writes, or an older
        # compiler, could leave next to the VIF file.
        for suffix, text in (("py", "raise SystemExit('stale')\n"),
                             ("c", "/* stale */\n")):
            for key in ("e", "rtl(e)"):
                with open(os.path.join(work, unit_filename(key, suffix)),
                          "w") as f:
                    f.write(text)
        lib = LibraryManager(root=root)
        assert lib.find_architecture("work", "e", "rtl").py_source == model
        assert "stale" not in lib.find_unit("work", "e").py_source
        assert lib.quarantined == []

    def test_library_holds_only_vif_files(self, tmp_path):
        root = str(tmp_path / "libs")
        c = Compiler(root=root)
        c.compile(ENTITY)
        c.compile("""
            package p is constant k : integer := 1; end p;
            package body p is end p;
            configuration cfg of e is for rtl end for; end cfg;
        """)
        stored = sorted(
            name for _, _, files in os.walk(root) for name in files)
        assert stored == sorted(
            unit_filename(key, "vif.json")
            for key in ("e", "rtl(e)", "p", "body(p)", "cfg"))

    def test_payload_with_c_source_still_loads(self, tmp_path):
        root = str(tmp_path / "libs")
        _build(root)
        work = os.path.join(root, "work")
        for key in ("e", "rtl(e)"):
            path = os.path.join(work, unit_filename(key, "vif.json"))
            with open(path) as f:
                payload = json.load(f)
            # Older compilers stored the C text in every unit node.
            for kind, fields in payload["nodes"]:
                if kind.endswith("Unit"):
                    fields["c_source"] = "/* %s */" % key
            with open(path, "w") as f:
                json.dump(payload, f)
        lib = LibraryManager(root=root)
        assert lib.quarantined == []
        arch = lib.find_architecture("work", "e", "rtl")
        assert "def elaborate(ctx):" in arch.py_source
        assert not hasattr(arch, "c_source")


#: A package signal, a resolved signal, a computed initial value, a
#: component instance and processes: every kind of row.
ROWS = """
package pk is
  signal ps : integer := 3;
  function wor(v : bit_vector) return bit;
end pk;
package body pk is
  function wor(v : bit_vector) return bit is
  begin
    for i in v'range loop
      if v(i) = '1' then return '1'; end if;
    end loop;
    return '0';
  end wor;
end pk;
use work.pk.all;
entity top is end top;
architecture rtl of top is
  component e port ( a : in bit; b : out bit ); end component;
  type arr is array (0 to 3) of integer;
  signal v : arr;
  signal r : wor bit;
  signal x, y : bit;
begin
  u1 : e port map (a => x, b => y);
  r <= x;
  r <= y;
end rtl;
"""


class TestRows:
    """An architecture's and a package's rows are stored with their
    model and read back as compiled."""

    def test_rows_round_trip_through_the_library(self, tmp_path):
        root = str(tmp_path / "libs")
        c = Compiler(root=root)
        assert c.compile(ENTITY).ok
        assert c.compile(ROWS).ok
        compiled = [c.library.find_unit("work", "pk"),
                    c.library.find_architecture("work", "top", "rtl")]
        assert [len(unit.rows) for unit in compiled] == [1, 7]
        # The array's initial value and the resolution are bound first.
        assert "_o2 = lambda _vs:" in compiled[1].py_source
        lib = LibraryManager(root=root)
        reopened = [lib.find_unit("work", "pk"),
                    lib.find_architecture("work", "top", "rtl")]
        for before, after in zip(compiled, reopened):
            assert after.py_source == before.py_source
            assert after.rows == before.rows
        assert lib.quarantined == []

    def test_vif4_payload_is_a_lib_diagnostic(self, tmp_path):
        """A payload an older compiler wrote (format ``VIF-4``, every
        statement in its model's text and no ``rows``) is refused
        with a LIB001 diagnostic asking for a rebuild."""
        root = str(tmp_path / "libs")
        _build(root)
        path = os.path.join(root, "work",
                            unit_filename("rtl(e)", "vif.json"))
        with open(path) as f:
            payload = json.load(f)
        payload["format"] = "VIF-4"
        for kind, fields in payload["nodes"]:
            fields.pop("rows", None)
        with open(path, "w") as f:
            json.dump(payload, f)
        lines = []
        rc = main(["--root", root, "analyze", "--top", "e"],
                  out=lines.append)
        assert rc == 2
        assert "Traceback" not in "\n".join(lines)
        [diag] = [line for line in lines if "LIB001" in line]
        assert "work.rtl(e)" in diag
        assert "'VIF-4'" in diag and "rebuild the library" in diag
