-- repro-fuzz: expect=rejected top=fz_top until_ns=100
-- repro-fuzz: note=exit and next outside any loop are compile errors (IEEE 1076 allows them only in a loop); they compiled once, and then exit ended its process and next kept its process from ever suspending again
entity fz_top is
end fz_top;
architecture bench of fz_top is
  signal k, s, t : integer := 0;
begin
  tick : process
  begin
    wait for 3 ns;
    k <= k + 1;
  end process;
  q : process (k)
  begin
    if k > 2 then
      exit;
    end if;
    s <= k;
  end process;
  r : process (k)
  begin
    if k > 5 then
      next;
    end if;
    t <= k;
  end process;
end bench;
