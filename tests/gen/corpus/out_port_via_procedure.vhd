-- repro-fuzz: expect=ok top=fz_top until_ns=100
-- repro-fuzz: note=process p passes the top's out port x as the actual of poke's out signal formal o; the actual is a drive target, not a read, so compile, sim on both backends and analyze accept it
entity fz_top is
  port (x : out integer);
end fz_top;
architecture bench of fz_top is
  signal t : integer := 0;
  procedure poke(signal v : in integer; signal o : out integer) is
  begin
    o <= v * 2;
  end;
begin
  clk : process
  begin
    wait for 5 ns;
    t <= t + 1;
  end process;
  p : process (t)
  begin
    poke(t, x);
  end process;
end bench;
