-- repro-fuzz: expect=ok top=fz_top until_ns=100
-- repro-fuzz: note=process p reads y only inside the architecture-level procedure poke it calls; analyze must not report y as a dead cone (RPE004) and lint must report y missing from p's sensitivity list (RPL001)
entity fz_top is
  port (x : out integer);
end fz_top;
architecture bench of fz_top is
  signal t : integer := 0;
  signal y : integer := 0;
  procedure poke(signal v : in integer) is
  begin
    x <= v + y;
  end;
begin
  clk : process
  begin
    wait for 5 ns;
    t <= t + 1;
    y <= t after 5 ns;
  end process;
  p : process (t)
  begin
    poke(t);
  end process;
end bench;
