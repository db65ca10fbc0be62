#!/usr/bin/env python3
"""Bus resolution functions and multiple drivers (§1: "signal objects:
signal assignment semantics, bus resolution functions").

Three masters drive one shared bus through a user-written resolution
function over a four-valued wire type (Z/0/1/X).  Each signal
assignment edits only its own driver's projected waveform; the kernel
calls the resolution function with all driver values whenever any of
them changes.

Run:  python examples/bus_resolution.py
"""

from repro.vhdl.compiler import Compiler
from repro.vhdl.elaborate import Elaborator

SOURCE = """
package wire_pkg is
  type wire is ('Z', '0', '1', 'X');
  type wire_vector is array (natural range <>) of wire;
  function resolve_wire (drivers : wire_vector) return wire;
  subtype rwire is resolve_wire wire;
end wire_pkg;

package body wire_pkg is
  function resolve_wire (drivers : wire_vector) return wire is
    variable result : wire := 'Z';
  begin
    for i in drivers'range loop
      if drivers(i) /= 'Z' then
        if result = 'Z' then
          result := drivers(i);
        elsif result /= drivers(i) then
          return 'X';        -- contention
        end if;
      end if;
    end loop;
    return result;
  end resolve_wire;
end wire_pkg;

use work.wire_pkg.all;

entity shared_bus is end shared_bus;

architecture demo of shared_bus is
  signal bus_line : rwire := 'Z';
begin
  master_a : process
  begin
    wait for 10 ns;
    bus_line <= '1';       -- drive 1
    wait for 10 ns;
    bus_line <= 'Z';       -- release
    wait;
  end process;

  master_b : process
  begin
    wait for 30 ns;
    bus_line <= '0';
    wait for 10 ns;
    bus_line <= 'Z';
    wait;
  end process;

  master_c : process
  begin
    wait for 50 ns;
    bus_line <= '1';       -- will fight with master_b below
    wait;
  end process;

  master_b2 : process
  begin
    wait for 55 ns;
    bus_line <= '0';       -- contention: X
    wait;
  end process;
end demo;
"""

NS = 10**6
WIRE = ["Z", "0", "1", "X"]


def main():
    compiler = Compiler()
    result = compiler.compile(SOURCE)
    assert result.ok, "\n".join(result.messages)
    sim = Elaborator(compiler.library).elaborate("shared_bus")

    print("time (ns)  bus")
    last = None
    for t in range(0, 71, 1):
        sim.run(until_fs=t * NS)
        v = WIRE[sim.value("bus_line")]
        if v != last:
            print("%8d   %s" % (t, v))
            last = v

    assert WIRE[sim.value("bus_line")] == "X", "expected contention"
    bus = sim.signal("bus_line")
    print("\ndrivers on the bus:", len(bus.drivers))
    print("contention detected — OK")


if __name__ == "__main__":
    main()
