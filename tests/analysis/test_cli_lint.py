"""End-to-end `repro lint` CLI flows through ``main(argv, out=...)``.

Exit-code contract: 0 clean, 1 findings, 2 usage/compile trouble —
the same convention CI consumes (see .github/workflows/ci.yml).
"""

import json
import os

import pytest

from repro.cli import main

from .conftest import fixture_path

CLEAN = fixture_path("rpl002_clean.vhd")
BAD = fixture_path("rpl004_bad.vhd")


@pytest.fixture
def run_cli():
    def run(*argv):
        lines = []
        rc = main(list(argv), out=lines.append)
        return rc, "\n".join(str(line) for line in lines)

    return run


class TestExitCodes:
    def test_clean_fixture_exits_zero(self, run_cli):
        rc, text = run_cli("lint", CLEAN)
        assert rc == 0
        assert "no diagnostics" in text
        assert "unit(s) checked" in text

    def test_findings_exit_one(self, run_cli):
        rc, text = run_cli("lint", BAD)
        assert rc == 1
        assert "RPL004" in text and "RPL006" in text

    def test_missing_path_exits_two(self, run_cli):
        rc, text = run_cli("lint", "no_such_file.vhd")
        assert rc == 2

    def test_nothing_to_lint_exits_two(self, run_cli, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc, text = run_cli("lint", str(empty))
        assert rc == 2
        assert "nothing to lint" in text

    def test_compile_error_exits_two(self, run_cli, tmp_path):
        src = tmp_path / "broken.vhd"
        src.write_text("entity oops is\n")
        rc, text = run_cli("lint", str(src))
        assert rc == 2
        assert "fix compile errors first" in text


class TestSelection:
    def test_select_narrows_findings(self, run_cli):
        rc, text = run_cli("lint", "--select", "RPL006", BAD)
        assert rc == 1
        assert "RPL006" in text and "RPL004" not in text

    def test_ignore_all_exits_zero(self, run_cli):
        rc, text = run_cli("lint", "--ignore", "RPL", BAD)
        assert rc == 0


class TestFormats:
    def test_sarif_output_parses(self, run_cli):
        rc, text = run_cli("lint", "--format", "sarif", BAD)
        assert rc == 1
        payload = text[: text.rindex("}") + 1]
        doc = json.loads(payload)
        assert doc["version"] == "2.1.0"
        ids = {r["ruleId"] for r in doc["runs"][0]["results"]}
        assert ids == {"RPL004", "RPL006"}

    def test_sarif_emitted_even_when_clean(self, run_cli):
        rc, text = run_cli("lint", "--format", "sarif", CLEAN)
        assert rc == 0
        payload = text[: text.rindex("}") + 1]
        doc = json.loads(payload)
        assert doc["runs"][0]["results"] == []

    def test_text_format_carets_cite_fixture(self, run_cli):
        rc, text = run_cli("lint", "--format", "text", BAD)
        assert rc == 1
        assert "rpl004_bad.vhd" in text


class TestBaseline:
    def test_write_then_suppress_roundtrip(self, run_cli, tmp_path):
        baseline = str(tmp_path / "lint-baseline.json")
        rc, text = run_cli("lint", "--write-baseline", baseline, BAD)
        assert rc == 0
        assert os.path.exists(baseline)
        with open(baseline) as fh:
            doc = json.load(fh)
        assert doc["schema"] == "repro-lint-baseline/1"
        assert len(doc["findings"]) == 2

        rc, text = run_cli("lint", "--baseline", baseline, BAD)
        assert rc == 0
        assert "2 baseline-suppressed" in text

    def test_new_finding_escapes_baseline(self, run_cli, tmp_path):
        baseline = str(tmp_path / "b.json")
        rc, _ = run_cli("lint", "--write-baseline", baseline,
                        "--select", "RPL006", BAD)
        assert rc == 0
        rc, text = run_cli("lint", "--baseline", baseline, BAD)
        assert rc == 1
        assert "RPL004" in text
        assert "1 baseline-suppressed" in text

    def test_bad_baseline_exits_two(self, run_cli, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "other/9"}))
        rc, text = run_cli("lint", "--baseline", str(bogus), BAD)
        assert rc == 2
        assert "cannot load baseline" in text


class TestAGLint:
    def test_builtin_grammars_are_clean(self, run_cli):
        rc, text = run_cli("lint", "--ag", "principal", "--ag", "expr")
        assert rc == 0

    def test_werror_promotes_warnings(self, run_cli):
        rc, text = run_cli("-W", "lint", "--select", "RPL006", BAD)
        assert rc == 1
        assert "-Werror" in text


class TestBuildLint:
    def test_build_with_lint_reports_findings(self, run_cli,
                                              tmp_path):
        root = str(tmp_path / "lib")
        rc, text = run_cli("--root", root, "build", BAD, "--lint")
        assert "RPL004" in text and "RPL006" in text
        assert rc == 1  # lint errors fail the build

    def test_build_lint_clean_is_quiet_success(self, run_cli,
                                               tmp_path):
        root = str(tmp_path / "lib")
        rc, text = run_cli("--root", root, "build", CLEAN, "--lint")
        assert rc == 0
        assert "RPL" not in text
