-- repro-fuzz: expect=ok top=fz_top until_ns=100
-- repro-fuzz: note=r.f(1) <= 5 (a signal record of arrays) and v.f(1) := 5 (a variable) each rebuild the whole value outward; both ended in NotImplementedError in the assignment's semantic rule
entity fz_top is
end fz_top;
architecture bench of fz_top is
  type vec is array (0 to 2) of integer;
  type rec is record
    f : vec;
    g : integer;
  end record;
  type mat is array (0 to 1) of vec;
  signal r : rec := ((1, 2, 3), 7);
  signal m : mat := ((0, 0, 0), (0, 0, 0));
  signal done : integer := 0;
begin
  drive : process
    variable v : rec := ((10, 20, 30), 40);
  begin
    r.f(1) <= 5;
    m(1)(2) <= 9;
    v.f(1) := 5;
    v.f(2) := v.f(1) + v.g;
    wait for 1 ns;
    assert r.f(0) = 1 and r.f(1) = 5 and r.f(2) = 3 and r.g = 7
      report "r.f(1) <= 5 updated the wrong part" severity failure;
    assert m(1)(2) = 9 and m(1)(1) = 0 and m(0)(2) = 0
      report "m(1)(2) <= 9 updated the wrong part" severity failure;
    assert v.f(0) = 10 and v.f(1) = 5 and v.f(2) = 45 and v.g = 40
      report "v.f(1) := 5 updated the wrong part" severity failure;
    done <= 1;
    wait;
  end process;
end bench;
