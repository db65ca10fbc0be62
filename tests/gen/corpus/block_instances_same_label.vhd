-- repro-fuzz: expect=ok top=fz_top until_ns=100
-- repro-fuzz: note=blocks b1 and b2 each hold an instance u1; each is named by its block (:fz_top:b1:u1, :fz_top:b2:u1), as block processes are, and the configuration specification for u1 still binds both by the label as written; both were :fz_top:u1, and elaboration died with KeyError "path ':fz_top:u1' already registered"
entity leaf is
  generic ( k : integer := 1 );
  port ( a : in integer; y : out integer );
end leaf;
architecture scaled of leaf is
begin
  y <= a * k;
end scaled;
architecture offset of leaf is
begin
  y <= a + 100;
end offset;

entity fz_top is
end fz_top;
architecture bench of fz_top is
  component leaf
    generic ( k : integer := 1 );
    port ( a : in integer; y : out integer );
  end component;
  for u1 : leaf use entity work.leaf(scaled);
  signal s : integer := 0;
  signal y1, y2 : integer := 0;
begin
  stim : process
  begin
    s <= 3;
    wait for 10 ns;
    s <= 4;
    wait;
  end process;
  b1 : block
  begin
    u1 : leaf generic map ( k => 2 ) port map ( a => s, y => y1 );
  end block b1;
  b2 : block
  begin
    u1 : leaf generic map ( k => 5 ) port map ( a => s, y => y2 );
  end block b2;
  check : process
  begin
    wait for 5 ns;
    assert y1 = 6 and y2 = 15 report "u1 in b1 or b2 misbound" severity failure;
    wait for 10 ns;
    assert y1 = 8 and y2 = 20 report "u1 in b1 or b2 misbound" severity failure;
    wait;
  end process;
end bench;
