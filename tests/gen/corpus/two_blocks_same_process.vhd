-- repro-fuzz: expect=ok top=fz_top until_ns=100
-- repro-fuzz: note=blocks o1 and o2 each hold a process p and a concurrent assignment q; each is its own process, named by its block (:fz_top:o1:p, :fz_top:o2:p), as the block signals x are
entity fz_top is
end fz_top;
architecture bench of fz_top is
  signal clk : bit := '0';
  signal y1, y2 : integer := 0;
begin
  clock : process
  begin
    wait for 5 ns;
    clk <= not clk;
  end process;
  o1 : block
    signal x : integer := 0;
  begin
    p : process (clk) begin x <= x + 1 after 1 ns; end process;
    q : y1 <= x * 2;
  end block o1;
  o2 : block
    signal x : integer := 10;
  begin
    p : process (clk) begin x <= x + 3 after 1 ns; end process;
    q : y2 <= x - 1;
  end block o2;
end bench;
