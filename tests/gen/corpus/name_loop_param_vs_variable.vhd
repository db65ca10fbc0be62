-- repro-fuzz: expect=ok top=fz_top until_ns=10
-- repro-fuzz: note=a variable i_l<n> and a for loop over i on line n were both named v_i_l<n> in the model, so the loop read its own counter for the variable and r was wrong (ROADMAP item 14's b.vhd); the loop is on line 12, so the variable is i_l12
entity fz_top is
end fz_top;
architecture bench of fz_top is
  signal r : integer := 0;
begin
  p : process
    variable i_l12 : integer := 100;
    variable acc : integer := 0;
  begin
    for i in 1 to 3 loop
      acc := acc + i_l12;
    end loop;
    r <= acc;
    wait;
  end process;
  chk : process
  begin
    wait for 1 ns;
    assert r = 300 report "loop parameter took the variable's name" severity failure;
    wait;
  end process;
end bench;
