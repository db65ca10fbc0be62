-- repro-fuzz: expect=rejected top=fz_top until_ns=10
-- repro-fuzz: note=two processes labelled p in one architecture compiled, and sim died with KeyError: path already registered; statement labels share their region's namespace
entity fz_top is
end fz_top;
architecture bench of fz_top is
  signal x, y : integer := 0;
begin
  p : process begin x <= 1; wait; end process;
  p : process begin y <= 2; wait; end process;
end bench;
