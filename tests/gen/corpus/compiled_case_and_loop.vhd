-- repro-fuzz: expect=ok top=fz_top until_ns=100
-- repro-fuzz: note=specializable processes with a case statement and a for loop, two of each, identical but for their lines and signals; the compiled backend must render them (source locations) and give each pair one factory
entity fz_top is
end fz_top;
architecture bench of fz_top is
  signal x, y : integer := 0;
  signal z1, z2, w1, w2 : integer := 0;
begin
  c1 : process (x) begin
    case x is when 1 => z1 <= 2; when others => z1 <= 3; end case;
  end process;
  c2 : process (y) begin
    case y is when 1 => z2 <= 2; when others => z2 <= 3; end case;
  end process;
  l1 : process (x) begin
    for i in 0 to 3 loop w1 <= x + i after 1 ns; end loop;
  end process;
  l2 : process (y) begin
    for i in 0 to 3 loop w2 <= y + i after 1 ns; end loop;
  end process;
  stim : process
  begin
    wait for 5 ns;
    x <= x + 1;
    y <= y + 2;
  end process;
end bench;
