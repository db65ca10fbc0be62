"""End-to-end behavioral tests: compile, elaborate, simulate, check."""

import pytest

from .helpers import NS, compile_ok, simulate


class TestSequentialBehavior:
    def test_counter_with_reset(self):
        sim = simulate("""
            entity top is end top;
            architecture tb of top is
              signal clk : bit := '0';
              signal n : integer := 0;
            begin
              clock : process
              begin
                clk <= not clk after 5 ns;
                wait on clk;
              end process;
              count : process (clk)
              begin
                if clk'event and clk = '1' then
                  n <= n + 1;
                end if;
              end process;
            end tb;
        """, "top", until_ns=100)
        assert sim.value("n") == 10

    def test_variables_and_loops(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal total : integer := 0;
            begin
              process
                variable acc : integer := 0;
              begin
                for i in 1 to 10 loop
                  acc := acc + i;
                end loop;
                total <= acc;
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("total") == 55

    def test_while_loop_and_exit(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal r : integer := 0;
            begin
              process
                variable x : integer := 1;
              begin
                while true loop
                  x := x * 2;
                  exit when x > 100;
                end loop;
                r <= x;
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("r") == 128

    def test_next_statement(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal odd_sum : integer := 0;
            begin
              process
                variable acc : integer := 0;
              begin
                for i in 1 to 9 loop
                  next when i mod 2 = 0;
                  acc := acc + i;
                end loop;
                odd_sum <= acc;
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("odd_sum") == 25

    def test_case_statement(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              type op is (add, sub, nop);
              signal sel : op := sub;
              signal r : integer := 0;
            begin
              process (sel)
              begin
                case sel is
                  when add => r <= 10;
                  when sub => r <= 20;
                  when others => r <= 0;
                end case;
              end process;
            end a;
        """, "top")
        assert sim.value("r") == 20

    def test_case_range_choices(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal x : integer := 7;
              signal band : integer := 0;
            begin
              process (x)
              begin
                case x is
                  when 0 to 4 => band <= 1;
                  when 5 | 6 | 7 => band <= 2;
                  when others => band <= 3;
                end case;
              end process;
            end a;
        """, "top")
        assert sim.value("band") == 2

    def test_loop_param_does_not_clobber_outer(self):
        """VHDL scoping: the loop parameter is a new object."""
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal r : integer := 0;
            begin
              process
                variable i : integer := 99;
              begin
                for i in 0 to 3 loop
                  null;
                end loop;
                r <= i;
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("r") == 99


class TestSubprograms:
    def test_function_call(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal r : integer := 0;
              function square (x : integer) return integer is
              begin
                return x * x;
              end square;
            begin
              process
              begin
                r <= square(7);
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("r") == 49

    def test_overloaded_functions(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal ri : integer := 0;
              signal rb : bit := '0';
              function pick (x : integer) return integer is
              begin
                return x + 1;
              end pick;
              function pick (x : bit) return bit is
              begin
                return not x;
              end pick;
            begin
              process
              begin
                ri <= pick(5);
                rb <= pick('0');
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("ri") == 6
        assert sim.value("rb") == 1

    def test_recursive_function(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal r : integer := 0;
              function fact (n : integer) return integer is
              begin
                if n <= 1 then
                  return 1;
                end if;
                return n * fact(n - 1);
              end fact;
            begin
              process
              begin
                r <= fact(6);
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("r") == 720

    def test_nested_subprogram_uplevel_write(self):
        """The paper's §1 point: up-level references from nested
        subprograms (C lacked them; our models use nonlocal)."""
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal r : integer := 0;
            begin
              process
                variable counter : integer := 0;
                procedure bump is
                begin
                  counter := counter + 1;
                end bump;
              begin
                bump;
                bump;
                bump;
                r <= counter;
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("r") == 3

    def test_procedure_with_out_parameter(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal r : integer := 0;
            begin
              process
                variable res : integer := 0;
                procedure double (x : in integer; y : out integer) is
                begin
                  y := x * 2;
                end double;
              begin
                double(21, res);
                r <= res;
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("r") == 42

    def test_default_parameter(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal r : integer := 0;
              function inc (x : integer; by : integer := 5)
                  return integer is
              begin
                return x + by;
              end inc;
            begin
              process
              begin
                r <= inc(10);
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("r") == 15

    def test_user_overloaded_operator(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              type pair is record
                x : integer;
                y : integer;
              end record;
              signal r : integer := 0;
              function "+" (a : pair; b : pair) return integer is
              begin
                return a.x + b.x + a.y + b.y;
              end "+";
            begin
              process
                variable p : pair := (x => 1, y => 2);
                variable q : pair := (x => 3, y => 4);
              begin
                r <= p + q;
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("r") == 10


class TestArraysAndAggregates:
    def test_bit_vector_ops(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal v : bit_vector(3 downto 0) := "0011";
              signal w : bit_vector(3 downto 0) := (others => '0');
              signal b : bit := '0';
            begin
              process
              begin
                w <= v and "0101";
                b <= v(0);
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("w").elems == [0, 0, 0, 1]
        assert sim.value("b") == 1

    def test_slices(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal v : bit_vector(7 downto 0) := "11110000";
              signal hi : bit_vector(3 downto 0) := "0000";
            begin
              process
              begin
                hi <= v(7 downto 4);
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("hi").elems == [1, 1, 1, 1]

    def test_concatenation_and_indexed_assign(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal v : bit_vector(3 downto 0) := "0000";
            begin
              process
                variable t : bit_vector(3 downto 0) := "0000";
              begin
                t := "01" & "10";
                t(3) := '1';
                v <= t;
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("v").elems == [1, 1, 1, 0]

    def test_named_aggregate(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal v : bit_vector(3 downto 0) := (0 => '1', others => '0');
              signal r : bit := '0';
            begin
              process
              begin
                r <= v(0);
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("r") == 1

    def test_records(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              type point is record
                x : integer;
                y : integer;
              end record;
              signal r : integer := 0;
            begin
              process
                variable p : point := (x => 3, y => 4);
              begin
                p.y := 10;
                r <= p.x + p.y;
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("r") == 13

    def test_array_attributes(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal v : bit_vector(7 downto 2) := (others => '0');
              signal l : integer := 0;
              signal n : integer := 0;
            begin
              process
              begin
                l <= v'left;
                n <= v'length;
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("l") == 7
        assert sim.value("n") == 6

    def test_for_over_range_attribute(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal v : bit_vector(3 downto 0) := "1011";
              signal ones : integer := 0;
            begin
              process
                variable c : integer := 0;
              begin
                for i in 3 downto 0 loop
                  if v(i) = '1' then
                    c := c + 1;
                  end if;
                end loop;
                ones <= c;
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("ones") == 3


class TestTimingSemantics:
    def test_after_and_transport(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal s : integer := 0;
            begin
              process
              begin
                s <= transport 1 after 10 ns, 2 after 20 ns;
                wait;
              end process;
            end a;
        """, "top", until_ns=15)
        assert sim.value("s") == 1
        sim.run(until_fs=25 * NS)
        assert sim.value("s") == 2

    def test_inertial_pulse_rejection(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal s : integer := 0;
            begin
              process
              begin
                s <= 1 after 10 ns;
                s <= 2 after 5 ns;
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("s") == 2

    def test_signal_semantics_delta_read(self):
        """A signal assignment is not visible until the next delta."""
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal s : integer := 0;
              signal seen : integer := -1;
            begin
              process
              begin
                s <= 5;
                seen <= s;  -- still the old value
                wait;
              end process;
            end a;
        """, "top")
        assert sim.value("s") == 5
        assert sim.value("seen") == 0

    def test_wait_until_edge(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal clk : bit := '0';
              signal stamp : time := 0 fs;
            begin
              clock : process
              begin
                clk <= not clk after 7 ns;
                wait on clk;
              end process;
              watcher : process
              begin
                wait until clk = '1';
                stamp <= now;
                wait;
              end process;
            end a;
        """, "top", until_ns=50)
        assert sim.value("stamp") == 7 * NS

    def test_assert_error_logged(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal s : integer := 1;
            begin
              process
              begin
                assert s = 2 report "s is not two" severity error;
                wait;
              end process;
            end a;
        """, "top")
        assert sim.kernel.logger.errors() == 1
        assert sim.kernel.logger.records[0][3] == "s is not two"


class TestConcurrentStatements:
    def test_conditional_assignment(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal sel : bit := '1';
              signal x : integer := 0;
            begin
              x <= 10 when sel = '1' else 20;
            end a;
        """, "top")
        assert sim.value("x") == 10

    def test_selected_assignment(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              type st is (red, green, blue);
              signal s : st := green;
              signal code : integer := 0;
            begin
              with s select
                code <= 1 when red,
                        2 when green,
                        3 when others;
            end a;
        """, "top")
        assert sim.value("code") == 2

    def test_guarded_block(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal en : bit := '0';
              signal d : integer := 5;
              signal q : integer := 0;
            begin
              latch : block (en = '1')
              begin
                q <= guarded d;
              end block latch;
              stim : process
              begin
                wait for 10 ns;
                d <= 7;
                wait for 10 ns;
                en <= '1';
                wait;
              end process;
            end a;
        """, "top", until_ns=100)
        assert sim.value("q") == 7

    def test_guard_keeps_apart_from_a_signal_named_like_it(self):
        # Block b's guard once took the binding name of a signal
        # guard_b, so the process below drove the guard instead.
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal en : bit := '0';
              signal guard_b : boolean := false;
              signal q : integer := 0;
            begin
              b : block (en = '1')
              begin
                q <= guarded 5;
              end block b;
              p : process begin
                wait for 1 ns; guard_b <= true; wait;
              end process;
            end a;
        """, "top", until_ns=10)
        assert sim.value("guard_b") == 1
        assert sim.value("q") == 0

    def test_blocks_name_their_signals(self):
        # Each block's x is its own signal, named by its label path.
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal x : integer := 1;
            begin
              o1 : block
                signal x : integer := 2;
              begin
                deep : block
                  signal x : integer := 3;
                begin
                  p1 : process begin x <= x * 10; wait; end process;
                end block deep;
                p2 : process begin x <= x * 20; wait; end process;
              end block o1;
              o2 : block
              begin
                deep : block
                  signal x : integer := 4;
                begin
                  p3 : process begin x <= x * 30; wait; end process;
                end block deep;
              end block o2;
            end a;
        """, "top", until_ns=10)
        assert [(path, sig.value) for path, sig in sim.names.signals()] \
            == [(":top:o1:deep:x", 30), (":top:o1:x", 40),
                (":top:o2:deep:x", 120), (":top:x", 1)]

    def test_resolved_signal_bus(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              function wired_or (bits : bit_vector) return bit is
              begin
                for i in bits'range loop
                  if bits(i) = '1' then
                    return '1';
                  end if;
                end loop;
                return '0';
              end wired_or;
              subtype rbit is wired_or bit;
              signal bus_line : rbit := '0';
            begin
              d0 : bus_line <= '0';
              d1 : bus_line <= '1' after 5 ns;
            end a;
        """, "top", until_ns=20)
        assert sim.value("bus_line") == 1


class TestConcurrentAssertion:
    def test_fires_on_violation(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal x : integer := 0;
            begin
              watchdog : assert x < 5
                report "x exceeded its bound" severity warning;
              bump : process
              begin
                wait for 10 ns;
                x <= 9;
                wait;
              end process;
            end a;
        """, "top", until_ns=50)
        assert sim.kernel.logger.counts["warning"] == 1
        assert sim.kernel.logger.records[-1][3] == \
            "x exceeded its bound"

    def test_quiet_when_condition_holds(self):
        sim = simulate("""
            entity top is end top;
            architecture a of top is
              signal x : integer := 0;
            begin
              watchdog : assert x < 5 severity warning;
              bump : process
              begin
                wait for 10 ns;
                x <= 4;
                wait;
              end process;
            end a;
        """, "top", until_ns=50)
        assert sim.kernel.logger.counts["warning"] == 0
