#!/usr/bin/env python3
"""Quickstart: compile a VHDL counter and simulate it.

The pipeline is the paper's (§2): VHDL source -> attribute-grammar
front end -> VIF in a design library + generated model -> elaboration
-> event-driven simulation.

Run:  python examples/quickstart.py
"""

from repro.vhdl.compiler import Compiler
from repro.vhdl.elaborate import Elaborator

SOURCE = """
entity counter is
  generic ( limit : integer := 10 );
  port ( clk : in bit; reset : in bit; q : out integer );
end counter;

architecture rtl of counter is
  signal value : integer := 0;
begin
  tick : process (clk, reset)
  begin
    if reset = '1' then
      value <= 0;
    elsif clk'event and clk = '1' then
      if value = limit - 1 then
        value <= 0;
      else
        value <= value + 1;
      end if;
    end if;
  end process;
  q <= value;
end rtl;

entity testbench is end testbench;

architecture sim of testbench is
  component counter
    generic ( limit : integer := 10 );
    port ( clk : in bit; reset : in bit; q : out integer );
  end component;
  signal clk : bit := '0';
  signal reset : bit := '1';
  signal q : integer := 0;
begin
  dut : counter generic map ( limit => 7 )
                port map ( clk => clk, reset => reset, q => q );
  clock : process
  begin
    clk <= not clk after 5 ns;
    wait on clk;
  end process;
  stimulus : process
  begin
    wait for 8 ns;
    reset <= '0';
    wait;
  end process;
end sim;
"""

NS = 10**6  # femtoseconds per nanosecond


def main():
    compiler = Compiler()
    result = compiler.compile(SOURCE)
    assert result.ok, "\n".join(result.messages)
    print("compiled units:", ", ".join(result.unit_names()))
    print("phase times:", {k: round(v * 1000, 2)
                           for k, v in result.timings.items()}, "ms")

    # Peek at the intermediate artifacts the compiler produced.
    arch = compiler.library.find_architecture("work", "counter", "rtl")
    print("\n--- generated Python model (first lines) ---")
    print("\n".join(arch.py_source.splitlines()[:12]))
    print("\n--- human-readable VIF (first lines) ---")
    print("\n".join(
        compiler.library.dump_vif("work", "rtl(counter)")
        .splitlines()[:10]))

    sim = Elaborator(compiler.library).elaborate("testbench")
    print("\n--- design hierarchy ---")
    print(sim.names.tree())

    print("\n--- simulation ---")
    for t_ns in (20, 50, 100, 200):
        sim.run(until_fs=t_ns * NS)
        print("t=%4d ns  q=%d" % (t_ns, sim.value("q")))

    # q counts rising edges mod 7 after reset releases at 8 ns.
    assert sim.value("q") == sim.value("value")
    print("\nOK")


if __name__ == "__main__":
    main()
