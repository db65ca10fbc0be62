#!/usr/bin/env python3
"""A traffic-light controller: enumeration types, case statements,
selected signal assignment, and assertions.

Demonstrates behavioral modeling with user-defined enumeration types —
the "semantically rich" language surface the paper's compiler had to
cover (user-defined types with implicitly declared operators,
overloaded enumeration constants).

Run:  python examples/traffic_light.py
"""

from repro.vhdl.compiler import Compiler
from repro.vhdl.elaborate import Elaborator

SOURCE = """
package traffic_types is
  type light is (red, amber, green);
  constant red_time   : time := 40 ns;
  constant amber_time : time := 10 ns;
  constant green_time : time := 30 ns;
end traffic_types;

use work.traffic_types.all;

entity controller is
  port ( lamp : out light );
end controller;

architecture fsm of controller is
  signal state : light := red;
begin
  step : process
  begin
    case state is
      when red =>
        wait for red_time;
        state <= green;
      when green =>
        wait for green_time;
        state <= amber;
      when amber =>
        wait for amber_time;
        state <= red;
    end case;
    wait for 0 fs;  -- let the new state propagate
  end process;
  lamp <= state;
end fsm;

use work.traffic_types.all;

entity crossing is end crossing;

architecture top of crossing is
  component controller
    port ( lamp : out light );
  end component;
  signal north_south : light;
  signal walk : bit := '0';
begin
  ns_ctl : controller port map ( lamp => north_south );

  -- pedestrians may walk only on red
  with north_south select
    walk <= '1' when red,
            '0' when others;

  watchdog : process (north_south)
  begin
    assert not (north_south = amber and walk = '1')
      report "walk signal during amber!" severity failure;
  end process;
end top;
"""

NS = 10**6


def main():
    compiler = Compiler()
    result = compiler.compile(SOURCE)
    assert result.ok, "\n".join(result.messages)
    sim = Elaborator(compiler.library).elaborate("crossing")

    light_names = ["red", "amber", "green"]
    print("time (ns)  light  walk")
    last = None
    for t in range(0, 241, 5):
        sim.run(until_fs=t * NS)
        state = light_names[sim.value("north_south")]
        walk = "yes" if sim.value("walk") else "no"
        if state != last:
            print("%8d   %-6s %s" % (t, state, walk))
            last = state

    # One full cycle is 80 ns: red(40) -> green(30) -> amber(10).
    assert sim.kernel.logger.errors() == 0
    print("\nno assertion violations — OK")


if __name__ == "__main__":
    main()
