"""Tests for the scanner generator."""

import pytest

from repro.ag import LexError, LexerSpec, ListScanner, Token


def simple_lexer():
    lex = LexerSpec("t")
    lex.skip(r"\s+")
    lex.skip(r"--[^\n]*")
    lex.token("NUM", r"\d+", action=int)
    lex.token("ID", r"[A-Za-z_][A-Za-z0-9_]*")
    lex.token("ARROW", r"=>")
    lex.token("EQ", r"=")
    lex.keywords("ID", ["if", "then"], case_insensitive=True)
    return lex.build()


class TestScanning:
    def test_basic_kinds_and_values(self):
        toks = simple_lexer().scan("abc 42 =>")
        assert [t.kind for t in toks] == ["ID", "NUM", "ARROW"]
        assert toks[1].value == 42
        assert toks[0].value == "abc"

    def test_longest_literal_declared_first_wins(self):
        toks = simple_lexer().scan("= =>")
        assert [t.kind for t in toks] == ["EQ", "ARROW"]

    def test_line_and_column_tracking(self):
        toks = simple_lexer().scan("a\n  b\nc")
        assert [(t.line, t.column) for t in toks] == [(1, 1), (2, 3), (3, 1)]

    def test_comments_skipped_and_lines_counted(self):
        toks = simple_lexer().scan("a -- comment\nb")
        assert [t.text for t in toks] == ["a", "b"]
        assert toks[1].line == 2

    def test_keywords_case_insensitive(self):
        toks = simple_lexer().scan("IF x Then")
        assert [t.kind for t in toks] == ["kw_if", "ID", "kw_then"]

    def test_keyword_text_preserved(self):
        toks = simple_lexer().scan("IF")
        assert toks[0].text == "IF"

    def test_lex_error_reports_position(self):
        with pytest.raises(LexError) as info:
            simple_lexer().scan("ab\n  $")
        assert info.value.line == 2

    def test_empty_input(self):
        assert simple_lexer().scan("") == []

    def test_token_kinds_listing(self):
        lex = LexerSpec("t")
        lex.token("ID", r"[a-z]+")
        lex.keywords("ID", ["end"])
        assert "kw_end" in lex.token_kinds()
        assert "ID" in lex.token_kinds()


class TestSharedLexemes:
    def test_one_scan_shares_lexemes_and_str_values(self):
        lex = LexerSpec("t")
        lex.skip(r"\s+")
        lex.token("ID", r"[A-Za-z]+", action=str.lower)
        a, b, c = lex.build().scan("Abc Abc ABC")
        assert a.text is b.text and a.value is b.value
        assert c.text == "ABC" and c.value == "abc"
        assert (a.line, a.column, b.column) == (1, 1, 5)

    def test_other_values_are_made_per_token(self):
        lex = LexerSpec("t")
        lex.skip(r"\s+")
        lex.token("L", r"x", action=lambda text: [text])
        first, second = lex.build().scan("x x")
        assert first.text is second.text
        assert first.value == second.value == ["x"]
        assert first.value is not second.value


class TestListScanner:
    def test_pops_front_in_order(self):
        toks = [Token("A", "a"), Token("B", "b")]
        assert list(ListScanner(toks)) == toks

    def test_empty(self):
        assert list(ListScanner([])) == []

    def test_source_list_not_consumed(self):
        toks = [Token("A", "a")]
        scanner = ListScanner(toks)
        list(scanner)
        assert len(toks) == 1


class TestToken:
    def test_value_defaults_to_text(self):
        assert Token("X", "xyz").value == "xyz"

    def test_equality_ignores_position(self):
        assert Token("X", "a", line=1) == Token("X", "a", line=9)

    def test_inequality_on_kind(self):
        assert Token("X", "a") != Token("Y", "a")
