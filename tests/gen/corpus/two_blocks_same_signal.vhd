-- repro-fuzz: expect=ok top=fz_top until_ns=100
-- repro-fuzz: note=blocks b1 and b2 each declare a signal x; each x is its own signal, named by its block (:fz_top:b1:x, :fz_top:b2:x), driven and read only inside it, and the compiled backend gives both slot storage
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
  b1 : block
    signal x : integer := 0;
  begin
    p1 : process (clk) begin x <= x + 1 after 1 ns; end process;
    q1 : y1 <= x * 2;
  end block b1;
  b2 : block
    signal x : integer := 10;
  begin
    p2 : process (clk) begin x <= x + 3 after 1 ns; end process;
    q2 : y2 <= x - 1;
  end block b2;
end bench;
