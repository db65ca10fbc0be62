-- repro-fuzz: expect=ok top=fz_top until_ns=10
-- repro-fuzz: note=function "+" and function op_plus declared on one line were both named pkg_ops_f_op_plus_l<line>, so one body answered both calls and r was 64, not 57
package ops is
  function "+"(a : bit; b : integer) return integer; function op_plus(a : bit; b : integer) return integer;
end ops;
package body ops is
  function "+"(a : bit; b : integer) return integer is
  begin
    return b;
  end "+";
  function op_plus(a : bit; b : integer) return integer is
  begin
    return 2 * b;
  end op_plus;
end ops;
use work.ops.all;
entity fz_top is
end fz_top;
architecture bench of fz_top is
  signal r : integer := 0;
  constant one : bit := '1';
begin
  r <= (one + 7) + op_plus(one, 25);
  chk : process
  begin
    wait for 1 ns;
    assert r = 57 report "an operator and a function shared one name" severity failure;
    wait;
  end process;
end bench;
