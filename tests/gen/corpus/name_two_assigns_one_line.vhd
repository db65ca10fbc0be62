-- repro-fuzz: expect=ok top=fz_top until_ns=10
-- repro-fuzz: note=two unlabeled concurrent assignments on one line were both labelled cassign_l<line>, and sim died with KeyError: path already registered
entity fz_top is
end fz_top;
architecture bench of fz_top is
  signal a, b : integer := 0;
begin
  a <= 1; b <= 2;
  chk : process
  begin
    wait for 1 ns;
    assert a + b = 3 report "an assignment did not run" severity failure;
    wait;
  end process;
end bench;
