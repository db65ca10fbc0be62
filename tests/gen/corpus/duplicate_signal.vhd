-- repro-fuzz: expect=rejected top=fz_top until_ns=10
-- repro-fuzz: note=a signal declared twice in one architecture compiled, and sim died with KeyError: path already registered; IEEE 1076 forbids two homographs in one declarative region
entity fz_top is
end fz_top;
architecture bench of fz_top is
  signal a : integer := 0;
  signal a : integer := 1;
begin
  p : process begin a <= 2; wait; end process;
end bench;
