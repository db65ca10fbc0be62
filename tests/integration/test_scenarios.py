"""Larger realistic scenarios stressing many features at once."""

import pytest

from repro.vhdl.compiler import Compiler
from repro.vhdl.elaborate import Elaborator

NS = 10**6


def simulate(source, top, until_ns):
    compiler = Compiler()
    result = compiler.compile(source)
    assert result.ok, result.messages
    sim = Elaborator(compiler.library).elaborate(top)
    sim.run(until_fs=until_ns * NS)
    return sim


class TestShiftRegisterSerializer:
    """Bit-vector slices, concatenation, clocked shifting."""

    SOURCE = """
        entity serializer is end serializer;
        architecture rtl of serializer is
          signal clk : bit := '0';
          signal sreg : bit_vector(7 downto 0) := "10110001";
          signal line_out : bit := '0';
          signal sent : integer := 0;
        begin
          clock : process
          begin
            clk <= not clk after 5 ns;
            wait on clk;
          end process;

          shift : process (clk)
          begin
            if clk'event and clk = '1' then
              if sent < 8 then
                line_out <= sreg(7);
                sreg <= sreg(6 downto 0) & '0';
                sent <= sent + 1;
              end if;
            end if;
          end process;
        end rtl;
    """

    def test_serializes_msb_first(self):
        sim = simulate(self.SOURCE, "serializer", 200)
        assert sim.value("sent") == 8
        assert sim.value("sreg").elems == [0] * 8

    def test_line_history(self):
        from repro.sim.tracing import WaveformRecorder

        compiler = Compiler()
        compiler.compile(self.SOURCE)
        sim = Elaborator(compiler.library).elaborate("serializer")
        line = sim.signal("line_out")
        tracer = WaveformRecorder(sim.kernel, [line])
        sim.run(until_fs=200 * NS)
        # Changes of line_out trace the bit pattern 10110001 msb-first
        # (only *changes* are recorded).
        bits = "10110001"
        expected_changes = []
        prev = "0"
        for b in bits:
            if b != prev:
                expected_changes.append(int(b))
                prev = b
        got = [v for _, v in tracer.changes(line)][1:]
        assert got == expected_changes


class TestStateMachineWithRecords:
    """Records, enumeration FSM, procedures writing out-params."""

    SOURCE = """
        entity fsm is end fsm;
        architecture behave of fsm is
          type phase is (boot, run, halt);
          type status is record
            ticks : integer;
            last : phase;
          end record;
          signal clk : bit := '0';
          signal st : phase := boot;
          signal snapshot_ticks : integer := 0;
        begin
          clock : process
          begin
            clk <= not clk after 10 ns;
            wait on clk;
          end process;

          control : process (clk)
            variable info : status := (ticks => 0, last => boot);
            procedure note (s : in phase; t : in integer;
                            o : out status) is
            begin
              o := (ticks => t, last => s);
            end note;
          begin
            if clk'event and clk = '1' then
              info.ticks := info.ticks + 1;
              case st is
                when boot =>
                  if info.ticks >= 3 then
                    st <= run;
                  end if;
                when run =>
                  if info.ticks >= 6 then
                    st <= halt;
                    note(run, info.ticks, info);
                    snapshot_ticks <= info.ticks;
                  end if;
                when halt =>
                  null;
              end case;
            end if;
          end process;
        end behave;
    """

    def test_reaches_halt(self):
        sim = simulate(self.SOURCE, "fsm", 400)
        # phase: boot, run, halt as positions 0,1,2
        assert sim.value("st") == 2
        assert sim.value("snapshot_ticks") == 6


class TestMemoryModel:
    """Unconstrained array type from a package + function returning
    composite values."""

    SOURCE = """
        package mem_pkg is
          type word_array is array (natural range <>) of integer;
          function sum_all (m : word_array) return integer;
        end mem_pkg;

        package body mem_pkg is
          function sum_all (m : word_array) return integer is
            variable acc : integer := 0;
          begin
            for i in m'range loop
              acc := acc + m(i);
            end loop;
            return acc;
          end sum_all;
        end mem_pkg;

        use work.mem_pkg.all;

        entity memory is end memory;
        architecture behave of memory is
          signal checksum : integer := 0;
        begin
          process
            variable store : word_array(0 to 7)
                := (others => 0);
          begin
            for addr in 0 to 7 loop
              store(addr) := addr * addr;
            end loop;
            checksum <= sum_all(store);
            wait;
          end process;
        end behave;
    """

    def test_checksum(self):
        sim = simulate(self.SOURCE, "memory", 10)
        assert sim.value("checksum") == sum(i * i for i in range(8))


class TestHandshakeProtocol:
    """Two processes with req/ack handshake through wait-until."""

    SOURCE = """
        entity handshake is end handshake;
        architecture protocol of handshake is
          signal req : bit := '0';
          signal ack : bit := '0';
          signal data : integer := 0;
          signal received : integer := 0;
          signal count : integer := 0;
        begin
          producer : process
          begin
            for i in 1 to 5 loop
              data <= i * 10;
              req <= '1';
              wait until ack = '1';
              req <= '0';
              wait until ack = '0';
            end loop;
            wait;
          end process;

          consumer : process
          begin
            wait until req = '1';
            received <= data;
            count <= count + 1;
            wait for 1 ns;
            ack <= '1';
            wait until req = '0';
            ack <= '0';
          end process;
        end protocol;
    """

    def test_five_transfers(self):
        sim = simulate(self.SOURCE, "handshake", 1000)
        assert sim.value("count") == 5
        assert sim.value("received") == 50
