-- repro-fuzz: expect=ok top=fz_top until_ns=10
-- repro-fuzz: note=an unlabeled process on line n was labelled proc_l<n>, a label a source can spell, and sim died with KeyError: path already registered beside a process so labelled; the unlabeled process is on line 8, so proc_l8 is taken
entity fz_top is
end fz_top;
architecture bench of fz_top is
  signal x, y : integer := 0;
begin
  process begin x <= 1; wait; end process; proc_l8 : process begin y <= 2; wait; end process;
  chk : process
  begin
    wait for 1 ns;
    assert x + y = 3 report "a process did not run" severity failure;
    wait;
  end process;
end bench;
