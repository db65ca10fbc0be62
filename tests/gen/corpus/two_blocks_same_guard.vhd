-- repro-fuzz: expect=ok top=fz_top until_ns=100
-- repro-fuzz: note=blocks o1 and o2 each hold a guarded block b; each guard is its own signal and process, named by its enclosing blocks (:fz_top:o1:b.guard, :fz_top:o2:b.guard)
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
  begin
    b : block (clk = '1')
    begin
      y1 <= guarded y1 + 1 after 1 ns;
    end block b;
  end block o1;
  o2 : block
  begin
    b : block (clk = '0')
    begin
      y2 <= guarded y2 + 2 after 1 ns;
    end block b;
  end block o2;
end bench;
