"""The corpus store and the committed regression corpus replay."""

import os

import pytest

from repro.gen import generate_for, check_design
from repro.gen.corpus import (
    CorpusEntry,
    iter_corpus,
    load_entry,
    parse_entry,
    render_entry,
    save,
)
from repro.gen.oracle import FAILURE_OUTCOMES

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


class TestStore:
    def test_render_parse_round_trip(self):
        design = generate_for(7, 119)
        result = check_design(design)
        text = render_entry(design, result, note="round trip")
        entry = parse_entry(text, name="rt")
        assert entry.expect == result.outcome
        assert entry.top == design.top
        assert entry.until_ns == design.until_ns
        # The three header lines stay, empty, so lines keep numbers.
        assert entry.source == "\n" * 3 + design.source
        assert entry.meta["seed"] == "7"
        assert entry.meta["index"] == "119"
        assert entry.meta["note"] == "round trip"

    def test_save_and_load(self, tmp_path):
        design = generate_for(7, 0)
        result = check_design(design)
        path = save(str(tmp_path), design, result, name="one")
        entry = load_entry(path)
        assert entry.name == "one"
        assert entry.source == "\n" * 2 + design.source
        again = entry.check()
        assert again.outcome == result.outcome

    def test_refuses_to_pin_failures(self):
        design = generate_for(7, 0)

        class Failed:
            outcome = "divergence"
        with pytest.raises(ValueError):
            render_entry(design, Failed())

    def test_iter_corpus_sorted(self, tmp_path):
        for name in ("b", "a", "c"):
            design = generate_for(7, 1)
            result = check_design(design)
            save(str(tmp_path), design, result, name=name)
        names = [e.name for e in iter_corpus(str(tmp_path))]
        assert names == ["a", "b", "c"]

    def test_iter_missing_dir_is_empty(self):
        assert iter_corpus("/nonexistent/gen/corpus") == []

    def test_defaults(self):
        entry = CorpusEntry("x", None, "entity fz_top is end;", {})
        assert entry.expect == "ok"
        assert entry.top == "fz_top"
        assert entry.until_ns == 1000


def _committed_entries():
    entries = iter_corpus(CORPUS_DIR)
    assert entries, "the committed corpus must not be empty"
    return entries


@pytest.mark.parametrize(
    "entry", _committed_entries(), ids=lambda e: e.name)
class TestCommittedCorpus:
    """Every committed entry replays to its pinned outcome."""

    def test_replays_to_pinned_outcome(self, entry):
        result = entry.check()
        assert result.outcome not in FAILURE_OUTCOMES, \
            (entry.name, result.outcome, result.detail)
        assert result.outcome == entry.expect, \
            (entry.name, result.outcome, result.detail)

    def test_rejections_carry_structured_diagnostics(self, entry):
        if entry.expect != "rejected":
            pytest.skip("only rejection entries")
        result = entry.check()
        assert result.diagnostics
