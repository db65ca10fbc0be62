#!/usr/bin/env python3
"""Separate compilation, design libraries, and configurations (§3.3).

Shows the paper's two-layer generic mechanism: entity generics bound at
instantiation, component sockets bound to entity/architecture pairs by
configuration — and the *usage-history-dependent* default rule ("the
latest compiled architecture for that entity") that makes the same
description elaborate differently after a recompile.

Run:  python examples/separate_compilation.py
"""

from repro.vhdl.compiler import Compiler
from repro.vhdl.elaborate import Elaborator

NS = 10**6

FILTERS = """
    entity filter is
      generic ( gain : integer := 2 );
      port ( x : in integer; y : out integer );
    end filter;

    architecture sharp of filter is
    begin
      y <= x * gain;
    end sharp;

    architecture soft of filter is
    begin
      y <= (x * gain) / 3;
    end soft;
"""

BOARD = """
    entity board is end board;
    architecture wiring of board is
      component filter
        generic ( gain : integer := 2 );
        port ( x : in integer; y : out integer );
      end component;
      signal input : integer := 30;
      signal output : integer := 0;
    begin
      stage : filter generic map ( gain => 4 )
                     port map ( x => input, y => output );
    end wiring;
"""

CONFIG = """
    configuration soft_board of board is
      for wiring
        for stage : filter use entity work.filter(soft);
        end for;
      end for;
    end soft_board;
"""


def elaborate_and_run(library, top):
    sim = Elaborator(library).elaborate(top)
    sim.run(until_fs=10 * NS)
    return sim.value("output")


def main():
    compiler = Compiler()
    for source in (FILTERS, BOARD, CONFIG):
        result = compiler.compile(source)
        assert result.ok, "\n".join(result.messages)

    print("compile order:",
          [key for lib, key in compiler.library.compile_order
           if lib == "work"])

    # Default rule: the latest compiled architecture of 'filter' is
    # 'soft', so the unconfigured board picks it.
    print("default binding      -> output =",
          elaborate_and_run(compiler.library, "board"),
          "(soft: 30*4/3)")

    # The configuration unit pins the binding explicitly.
    print("configuration unit   -> output =",
          elaborate_and_run(compiler.library, "soft_board"),
          "(soft, explicitly)")

    # Recompile 'sharp': usage history changes, and with it the
    # default — the paper's non-determinism warning in action.
    result = compiler.compile("""
        architecture sharp of filter is
        begin
          y <= x * gain;
        end sharp;
    """)
    assert result.ok, "\n".join(result.messages)
    print("after recompiling sharp, default -> output =",
          elaborate_and_run(compiler.library, "board"),
          "(sharp: 30*4)")

    # The stored VIF is readable — the paper's human-readable dump.
    print("\n--- VIF of the board architecture (excerpt) ---")
    for line in compiler.library.dump_vif(
            "work", "wiring(board)").splitlines()[:14]:
        print(line)


if __name__ == "__main__":
    main()
