-- repro-fuzz: expect=ok top=fz_top until_ns=10
-- repro-fuzz: note=two overloads of f declared on one line were both named f_f_l<line>, so the later body answered both calls and r was 14, not 9
entity fz_top is
end fz_top;
architecture bench of fz_top is
  signal r : integer := 0;
  function f(a : integer) return integer is begin return a * 2; end f; function f(a : bit) return integer is begin if a = '1' then return 7; end if; return 0; end f;
begin
  r <= f(1) + f('1');
  chk : process
  begin
    wait for 1 ns;
    assert r = 9 report "one overload answered both calls" severity failure;
    wait;
  end process;
end bench;
