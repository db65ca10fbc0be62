"""The generated model's process factories.

Each process body is emitted once per distinct text, as a factory over
the names the process takes from outside it; each process is then one
``ctx.process`` line binding that factory to its own names.  A ring of
identical cells therefore holds two factories (the starter cells wait
last, the others first) whatever its size.
"""

import importlib.util
import re
from pathlib import Path

from repro.sim import CompiledKernel
from repro.vhdl.elaborate import Elaborator

from .helpers import NS, compile_ok, process_line, process_text

ROOT = Path(__file__).parents[2]

#: Model bytes per cell of the ring with one nested function per
#: process, as the compiler emitted it before the factories.
NESTED_BYTES_PER_CELL = {100: 27067 / 100, 400: 110470 / 400}

MIX = """
package pk is
  constant k : integer := 3;
  function step(x : integer) return integer;
end pk;
package body pk is
  function step(x : integer) return integer is
  begin
    return x + k;
  end;
end pk;
use work.pk.all;
entity mix is
  port (o : out integer);
end mix;
architecture a of mix is
  signal n : integer := 0;
  signal m : integer := 0;
  constant lim : integer := 40;
  function twice(v : integer) return integer is
  begin
    return 2 * v;
  end;
begin
  tick : process
    variable acc : integer := 0;
    procedure bump(d : in integer) is
    begin
      acc := acc + d;
    end;
  begin
    wait for 5 ns;
    for i in 1 to 2 loop
      bump(i);
    end loop;
    n <= step(acc) mod lim;
    assert n < 1000 report "s_n overflow" severity note;
  end process;
  b : block
  begin
    copy : process (n) begin m <= twice(n); end process;
  end block;
  copy2 : process (m) begin o <= twice(m); end process;
end a;
"""


def _ring_vhdl(n, tokens):
    spec = importlib.util.spec_from_file_location(
        "scenarios", ROOT / "benchmarks" / "scenarios.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ring_vhdl(n, tokens)


def _factories(py_source):
    return re.findall(r"^    def (_f\d+)\(", py_source, re.M)


def _model(source, entity, arch):
    c, _ = compile_ok(source)
    return c, c.library.find_architecture("work", entity, arch).py_source


def test_ring_models_hold_one_factory_per_shape():
    counts = {}
    for cells, nested in NESTED_BYTES_PER_CELL.items():
        _, model = _model(_ring_vhdl(cells, 4), "ring", "rtl")
        counts[cells] = len(_factories(model))
        assert len(model) / cells < nested / 2, cells
    assert counts[100] == counts[400] == 2


def test_each_process_binds_the_names_it_takes_from_outside():
    _, model = _model(MIX, "mix", "a")
    assert process_line(model, "tick") == (
        "ctx.process('tick', _f1(s_n, pkg_pk__f_step, c_lim), "
        "line=25)")
    # The process's own variable, local procedure and loop variable
    # stay in the factory, as does the text of a string literal; their
    # names carry no source line.
    text = process_text(model, "tick")
    assert "v_acc = 0" in text and "nonlocal v_acc" in text
    assert "f_bump(l_i)" in text
    assert "rt.assign(s_n, ((ops.mod(pkg_pk__f_step(v_acc), c_lim)" \
        in text
    assert "'s_n overflow'" in text


def test_processes_of_one_shape_share_a_factory():
    _, model = _model(MIX, "mix", "a")
    assert _factories(model) == ["_f1", "_f2"]
    # ``copy`` sits in block ``b``, ``copy2`` in the architecture.
    assert process_line(model, "b:copy") == (
        "ctx.process('b:copy', _f2(s_m, f_twice, s_n), "
        "sensitivity=[s_n], line=41)")
    assert process_line(model, "copy2") == (
        "ctx.process('copy2', _f2(p_o, f_twice, s_m), "
        "sensitivity=[s_m], line=43)")


def test_factory_models_simulate():
    c, _ = compile_ok(MIX)
    sim = Elaborator(c.library).elaborate("mix")
    sim.run(until_fs=100 * NS)
    assert sim.ok
    values = {s.name: s.value for s in sim.kernel.signals}
    assert values == {":mix:o": 92, ":mix:n": 23, ":mix:m": 46}


#: Two identical looping processes and two identical ``case``
#: processes, on lines of their own: the loop variables carry their
#: lines, the case temporaries a counter.
TWINS = """
entity twins is end twins;
architecture a of twins is
  signal x, y, w1, w2, z1, z2 : integer := 0;
begin
  l1 : process (x) begin
    for i in 0 to 3 loop w1 <= x + i after 1 ns; end loop;
  end process;
  l2 : process (y) begin
    for i in 0 to 3 loop w2 <= y + i after 1 ns; end loop;
  end process;
  c1 : process (x) begin
    case x is when 1 => z1 <= 2; when others => z1 <= 3; end case;
  end process;
  c2 : process (y) begin
    case y is when 1 => z2 <= 2; when others => z2 <= 3; end case;
  end process;
end a;
"""


def test_processes_apart_only_in_their_numbers_share_a_factory():
    c, _ = compile_ok(TWINS)
    model = c.library.find_architecture("work", "twins", "a").py_source
    assert _factories(model) == ["_f1", "_f2"]
    for label in ("l1", "l2"):
        assert "_f1(" in process_line(model, label)
    for label in ("c1", "c2"):
        assert "_f2(" in process_line(model, label)
    kernel = CompiledKernel()
    sim = Elaborator(c.library, kernel=kernel).elaborate("twins")
    program = kernel.compile_design(sim.records)
    # Each pair compiles to one code object, and the two apart.
    assert program.stats["compiled"] == 4
    assert program.stats["shapes"] == 2
    code = {p.name.rsplit(":", 1)[-1]: kernel._c_resume[p.index].__code__
            for p in kernel.processes}
    assert code["l1"] is code["l2"] and code["c1"] is code["c2"]
    assert code["l1"] is not code["c1"]
