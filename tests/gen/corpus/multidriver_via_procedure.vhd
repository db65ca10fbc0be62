-- repro-fuzz: expect=sim_error top=fz_top until_ns=30
-- repro-fuzz: note=a process with a variable drives x only through a signal-parameter procedure while a sensitivity-list process drives it too; lint (RPL002), analyze (RPE002) and all three kernels (SIM003) must see both drivers
entity fz_top is
end fz_top;
architecture bench of fz_top is
  signal x : integer := 0;
  signal t : integer := 0;
  procedure bump(signal s : out integer; v : in integer) is
  begin
    s <= v + 1;
  end;
begin
  stim : process
    variable n : integer := 0;
  begin
    wait for 5 ns;
    n := n + 1;
    bump(x, n);
    if n > 5 then
      wait;
    end if;
  end process;
  other : process (t)
  begin
    x <= t;
  end process;
  tick : t <= t + 1 after 3 ns;
end bench;
