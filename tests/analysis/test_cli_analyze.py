"""End-to-end `repro analyze` CLI flows through ``main(argv, out=...)``.

Exit-code contract matches `repro lint`: 0 clean (notes never gate),
1 new warning-or-worse findings, 2 compile/elaboration/usage trouble.
With ``--format sarif`` stdout is the SARIF document and nothing
else — CI redirects it straight into an artifact file.
"""

import json
import os

import pytest

from repro.cli import main

LOOP = """
entity inv is
  port (a : in bit; b : out bit);
end inv;
architecture rtl of inv is
begin
  b <= not a;
end rtl;

entity looptop is
end looptop;
architecture top of looptop is
  component inv
    port (a : in bit; b : out bit);
  end component;
  signal x, y : bit;
begin
  u1 : inv port map (a => x, b => y);
  u2 : inv port map (a => y, b => x);
end top;
"""

CLEAN = """
entity clean_top is
  port (din : in integer; dout : out integer);
end clean_top;
architecture a of clean_top is
begin
  dout <= din + 1;
end a;
"""

RACE = """
entity race is end race;
architecture a of race is
  signal x : integer := 0;
begin
  p1 : process
  begin
    x <= 1;
    wait for 10 ns;
  end process;
  p2 : process
  begin
    x <= 2;
    wait for 10 ns;
  end process;
end a;
"""


@pytest.fixture
def run_cli():
    def run(*argv):
        lines = []
        rc = main(list(argv), out=lines.append)
        return rc, "\n".join(str(line) for line in lines)

    return run


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.vhd"
    path.write_text(LOOP)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.vhd"
    path.write_text(CLEAN)
    return str(path)


class TestExitCodes:
    def test_loop_design_exits_one(self, run_cli, loop_file):
        rc, text = run_cli("analyze", loop_file)
        assert rc == 1
        assert "RPE001" in text
        assert ":looptop:x" in text

    def test_clean_design_exits_zero(self, run_cli, clean_file):
        rc, text = run_cli("analyze", clean_file)
        assert rc == 0
        assert "1 design(s) analyzed" in text

    def test_notes_do_not_gate(self, run_cli, tmp_path):
        # A dead signal is worth a note but must not fail the build.
        src = tmp_path / "dead.vhd"
        src.write_text("""
        entity deadtop is end deadtop;
        architecture a of deadtop is
          signal unused_s : integer := 0;
          signal seen : integer := 0;
        begin
          drv : seen <= unused_s + 1;
          obs : process (seen) begin assert seen >= 0; end process;
        end a;
        """)
        rc, text = run_cli("analyze", str(src))
        assert rc == 0
        assert "RPE004" in text

    def test_nothing_to_analyze_exits_two(self, run_cli, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc, text = run_cli("analyze", str(empty))
        assert rc == 2

    def test_missing_path_names_the_command(self, run_cli, tmp_path):
        missing = str(tmp_path / "nope.vhd")
        for command in ("analyze", "lint"):
            rc, text = run_cli(command, missing)
            assert rc == 2
            assert text == "%s: no such file or directory: %s" % (
                command, missing)

    def test_compile_error_exits_two(self, run_cli, tmp_path):
        src = tmp_path / "broken.vhd"
        src.write_text("entity oops is\n")
        rc, text = run_cli("analyze", str(src))
        assert rc == 2

    def test_top_flag_merges_files_into_one_design(
            self, run_cli, tmp_path):
        # Split the loop across two files: only the merged design
        # contains the cycle.
        split = LOOP.split("entity looptop", 1)
        (tmp_path / "inv.vhd").write_text(split[0])
        (tmp_path / "top.vhd").write_text(
            "entity looptop" + split[1])
        rc, text = run_cli(
            "analyze", str(tmp_path / "inv.vhd"),
            str(tmp_path / "top.vhd"), "--top", "looptop")
        assert rc == 1
        assert "RPE001" in text


class TestSelectIgnore:
    def test_ignore_silences_the_loop(self, run_cli, loop_file):
        rc, text = run_cli("analyze", loop_file,
                           "--ignore", "RPE001",
                           "--ignore", "RPE004")
        assert rc == 0

    def test_select_runs_only_named_rules(self, run_cli, loop_file):
        rc, text = run_cli("analyze", loop_file,
                           "--select", "RPE004")
        assert rc == 0
        assert "RPE001" not in text


class TestLevelsArtifact:
    def test_artifact_written_for_single_design(
            self, run_cli, clean_file, tmp_path):
        levels = tmp_path / "out" / "levels.json"
        rc, text = run_cli("analyze", clean_file,
                           "--levels-out", str(levels))
        assert rc == 0
        blob = json.loads(levels.read_text())
        assert blob["schema"] == "repro-levels/1"
        assert blob["cyclic"] == []

    def test_cyclic_signals_reported_in_artifact(
            self, run_cli, loop_file, tmp_path):
        levels = tmp_path / "levels.json"
        rc, text = run_cli("analyze", loop_file,
                           "--levels-out", str(levels))
        assert rc == 1
        blob = json.loads(levels.read_text())
        assert blob["cyclic"] == [":looptop:x", ":looptop:y"]
        assert blob["eval_order"] == []

    def test_levels_out_rejects_multiple_designs(
            self, run_cli, loop_file, clean_file, tmp_path):
        rc, text = run_cli("analyze", loop_file, clean_file,
                           "--levels-out",
                           str(tmp_path / "levels.json"))
        assert rc == 2


class TestSarifPurity:
    def test_stdout_is_pure_sarif(self, run_cli, loop_file, capsys):
        rc, text = run_cli("analyze", loop_file,
                           "--format", "sarif")
        assert rc == 1
        # No slicing, no rindex tricks: stdout must parse as-is.
        sarif = json.loads(text)
        rules = {res["ruleId"]
                 for run in sarif["runs"]
                 for res in run["results"]}
        assert "RPE001" in rules
        # The human tail went to stderr instead.
        assert "design(s) analyzed" in capsys.readouterr().err

    def test_sarif_emitted_even_when_clean(self, run_cli, clean_file):
        rc, text = run_cli("analyze", clean_file,
                           "--format", "sarif")
        assert rc == 0
        sarif = json.loads(text)
        (run,) = sarif["runs"]
        assert run["results"] == []


class TestExpectHeaders:
    def test_expected_failure_designs_do_not_gate(
            self, run_cli, tmp_path):
        src = tmp_path / "known_race.vhd"
        src.write_text(
            "-- repro-fuzz: expect=sim_error top=race until_ns=50\n"
            + RACE)
        rc, text = run_cli("analyze", str(src))
        assert rc == 0
        assert "RPE002" in text
        assert "not gating" in text

    def test_expected_rejection_is_skipped(self, run_cli, tmp_path):
        src = tmp_path / "known_bad.vhd"
        src.write_text(
            "-- repro-fuzz: expect=rejected\nentity oops is\n")
        rc, text = run_cli("analyze", str(src))
        assert rc == 0
        assert "expected; skipped" in text
        assert "0 design(s) analyzed" in text


class TestBaselinePortability:
    def test_write_baseline_stores_relative_keys(
            self, run_cli, loop_file, tmp_path):
        baseline = tmp_path / "baseline.json"
        rc, text = run_cli("analyze", loop_file,
                           "--write-baseline", str(baseline))
        assert rc == 0
        blob = json.loads(baseline.read_text())
        assert blob["schema"] == "repro-lint-baseline/1"
        files = {f["file"] for f in blob["findings"]}
        # The finding lives next to the baseline: stored relative.
        assert files == {"loop.vhd"}

    def test_baseline_suppresses_on_reload(
            self, run_cli, loop_file, tmp_path):
        baseline = tmp_path / "baseline.json"
        run_cli("analyze", loop_file,
                "--write-baseline", str(baseline))
        rc, text = run_cli("analyze", loop_file,
                           "--baseline", str(baseline))
        assert rc == 0
        assert "baseline-suppressed" in text

    def test_relative_keys_reanchor_from_any_cwd(
            self, run_cli, loop_file, tmp_path, monkeypatch):
        baseline = tmp_path / "baseline.json"
        run_cli("analyze", loop_file,
                "--write-baseline", str(baseline))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        rc, text = run_cli("analyze", loop_file,
                           "--baseline", str(baseline))
        assert rc == 0
        assert "baseline-suppressed" in text

    def test_absolute_keys_still_load_with_deprecation_note(
            self, run_cli, loop_file, tmp_path):
        baseline = tmp_path / "baseline.json"
        run_cli("analyze", loop_file,
                "--write-baseline", str(baseline))
        blob = json.loads(baseline.read_text())
        for finding in blob["findings"]:
            finding["file"] = os.path.join(
                str(tmp_path), finding["file"])
        baseline.write_text(json.dumps(blob))
        rc, text = run_cli("analyze", loop_file,
                           "--baseline", str(baseline))
        assert rc == 0
        assert "deprecated" in text
        assert "baseline-suppressed" in text

    def test_foreign_schema_fails_loudly(
            self, run_cli, loop_file, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"schema": "something-else/9"}')
        rc, text = run_cli("analyze", loop_file,
                           "--baseline", str(baseline))
        assert rc == 2
        assert "cannot load baseline" in text


class TestSimPreflight:
    def test_sim_analyze_refuses_to_start_on_loop(
            self, run_cli, loop_file):
        rc, text = run_cli("sim", loop_file,
                           "--until", "100ns", "--analyze")
        assert rc == 1
        assert "pre-flight" in text
        assert "RPE001" in text

    def test_sim_analyze_runs_clean_design(
            self, run_cli, tmp_path):
        src = tmp_path / "tick.vhd"
        src.write_text("""
        entity tick is end tick;
        architecture a of tick is
          signal clk : bit := '0';
        begin
          gen : process
          begin
            clk <= not clk after 5 ns;
            wait on clk;
          end process;
        end a;
        """)
        rc, text = run_cli("sim", str(src),
                           "--until", "100ns", "--analyze")
        assert rc == 0
        assert "simulation stopped" in text
