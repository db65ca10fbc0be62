-- repro-fuzz: expect=rejected top=fz_top until_ns=100
-- repro-fuzz: note=a closing name must repeat its entity, architecture, process or block designator (IEEE 1076); end wrongname, end process q and end other compiled once without a diagnostic
entity fz_top is
end wrongname;
architecture bench of fz_top is
  signal clk : bit := '0';
  signal y : integer := 0;
begin
  p : process
  begin
    wait for 5 ns;
    clk <= not clk;
  end process q;
  b : block
  begin
    y <= 1;
  end block c;
end other;
