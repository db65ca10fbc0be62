-- RPL006 counts the statements the user wrote: the one case statement
-- after the wait-less loop is one unreachable statement, however many
-- Python statements its generated code takes (and the wait the
-- compiler appends for the sensitivity list is not the user's).
entity rpl006_case_bad is end rpl006_case_bad;

architecture a of rpl006_case_bad is
  signal x, y : bit;
begin
  spin : process (x)
  begin
    loop
      y <= not x;
    end loop;
    case x is
      when '0' => y <= '1';
      when others => y <= '0';
    end case;
  end process;

  mon : process (y)
  begin
    assert y = '0' or y = '1';
  end process;
end a;
