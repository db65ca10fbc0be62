-- repro-fuzz: expect=ok top=fz_top until_ns=100
-- repro-fuzz: note=v(1) := 5 and w.f(2) := 7 into natural elements range-check the element, not the whole composite; the check on the rebuilt value ended in TypeError ('<=' between int and VArray)
entity fz_top is
end fz_top;
architecture bench of fz_top is
  type nvec is array (0 to 2) of natural;
  type rec is record
    f : nvec;
    g : natural;
  end record;
  signal done : integer := 0;
begin
  drive : process
    variable v : nvec := (1, 2, 3);
    variable w : rec := ((4, 5, 6), 8);
  begin
    v(1) := 5;
    v(2) := v(1) + v(0);
    w.f(2) := 7;
    w.g := w.f(0) + 1;
    wait for 1 ns;
    assert v(0) = 1 and v(1) = 5 and v(2) = 6
      report "v(1) := 5 updated the wrong part" severity failure;
    assert w.f(0) = 4 and w.f(1) = 5 and w.f(2) = 7 and w.g = 5
      report "w.f(2) := 7 updated the wrong part" severity failure;
    done <= 1;
    wait;
  end process;
end bench;
