"""Table files: committed LALR(1) tables loaded instead of built, and
the in-memory fallback when a file is missing, stale or corrupt."""

import os

import pytest

from repro.ag import spec as spec_module
from repro.ag.lr import build_tables
from repro.ag.lr.tablefile import (
    grammar_signature,
    read_table_file,
    table_file_text,
)

from .calc_fixture import make_lexer, make_spec


def conflict_rows(tables):
    return [(c.state, c.terminal, c.kind, c.actions, c.resolution)
            for c in tables.conflicts]


def assert_same_tables(loaded, built):
    assert loaded.action == built.action
    assert loaded.goto == built.goto
    assert loaded.accept_index == built.accept_index
    assert [p.label for p in loaded.grammar.productions] \
        == [p.label for p in built.grammar.productions]
    assert conflict_rows(loaded) == conflict_rows(built)


def with_negation(spec):
    """The calc grammar plus unary minus: another signature."""
    p = spec.production("f_neg", "factor -> MINUS factor")
    p.rule("factor0.val", "factor1.val", fn=lambda v: -v)
    return spec


def run(compiled, text):
    return compiled.run(make_lexer().scan(text),
                        inherited={"env": {}})["val"]


@pytest.fixture()
def table_file(tmp_path):
    path = tmp_path / "calc.lalr.json"
    path.write_text(table_file_text(make_spec().grammar))
    return path


@pytest.fixture()
def no_build(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tables were built, not loaded")

    monkeypatch.setattr(spec_module, "build_tables", refuse)


class TestLoad:
    def test_loaded_equal_built(self, table_file):
        loaded = read_table_file(make_spec().grammar, str(table_file))
        assert loaded is not None
        assert_same_tables(loaded, build_tables(make_spec().grammar))

    def test_conflicts_round_trip(self, tmp_path):
        def ambiguous():
            spec = make_spec()
            spec.production("e_amb", "expr -> expr0 TIMES expr1")
            return spec

        path = tmp_path / "amb.lalr.json"
        path.write_text(table_file_text(ambiguous().grammar,
                                        allow_conflicts=True))
        built = build_tables(ambiguous().grammar, allow_conflicts=True)
        assert built.conflicts
        loaded = read_table_file(ambiguous().grammar, str(path),
                                 allow_conflicts=True)
        assert_same_tables(loaded, built)
        # The conflict policy is part of the signature.
        assert read_table_file(ambiguous().grammar, str(path)) is None

    def test_finish_loads_without_building(self, table_file, no_build):
        spec = make_spec()
        spec.tables_file = str(table_file)
        assert run(spec.finish(), "2 + 3 * (4 + 5)") == 29

    def test_loaded_tables_describe_states(self, table_file):
        spec = make_spec()
        spec.tables_file = str(table_file)
        tables = spec.finish().tables
        assert "$start -> . expr" in tables.describe_state(0)

    def test_text_is_deterministic(self):
        assert table_file_text(make_spec().grammar) \
            == table_file_text(make_spec().grammar)


class TestFallback:
    def test_stale_signature_rebuilds_and_parses(self, table_file):
        before = table_file.read_bytes()
        stale = with_negation(make_spec())
        assert read_table_file(stale.grammar, str(table_file)) is None
        stale.tables_file = str(table_file)
        assert run(stale.finish(), "-3 + 4") == 1
        assert table_file.read_bytes() == before

    def test_missing_file_builds(self, tmp_path):
        spec = make_spec()
        spec.tables_file = str(tmp_path / "absent.lalr.json")
        assert run(spec.finish(), "1 + 2") == 3
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("text", ["{not json", "[]", "{}",
                                      '{"format": "repro-lalr/1"}'])
    def test_corrupt_file_builds(self, tmp_path, text):
        path = tmp_path / "bad.lalr.json"
        path.write_text(text)
        spec = make_spec()
        spec.tables_file = str(path)
        assert run(spec.finish(), "2 * 3") == 6
        assert path.read_text() == text

    def test_bad_row_builds(self, table_file):
        # A matching signature over rows that do not decode.
        table_file.write_text(table_file.read_text().replace(
            '"action":[\n[', '"action":[\n[99,'))
        spec = make_spec()
        spec.tables_file = str(table_file)
        assert run(spec.finish(), "4 - 1") == 3

    def test_signature_covers_precedence_and_start(self):
        base = grammar_signature(make_spec().grammar)
        spec = make_spec()
        spec.precedence("left", "PLUS")
        assert grammar_signature(spec.grammar) != base
        spec = make_spec()
        spec.set_start("term")
        assert grammar_signature(spec.grammar) != base
