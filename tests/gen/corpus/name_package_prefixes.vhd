-- repro-fuzz: expect=ok top=fz_top until_ns=10
-- repro-fuzz: note=constant c_b of package a and constant b of package a_c were both named pkg_a_c_c_b, so one value answered both and r was 40, not 21
package a is
  constant c_b : integer := 1;
end a;
package a_c is
  constant b : integer := 20;
end a_c;
use work.a.all;
use work.a_c.all;
entity fz_top is
end fz_top;
architecture bench of fz_top is
  signal r : integer := 0;
begin
  r <= c_b + b;
  chk : process
  begin
    wait for 1 ns;
    assert r = 21 report "two packages' constants shared one name" severity failure;
    wait;
  end process;
end bench;
