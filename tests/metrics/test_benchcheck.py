"""``repro bench-check``: comparison modes, baselines, the gate."""

import json
import time
from pathlib import Path

import pytest

from repro.metrics import benchcheck
from repro.metrics.benchcheck import (
    bench_check,
    compare,
    load_bench_json,
    normalized_cost,
)


#: The committed baselines and their scenario registry.
BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


def _rows_by_key(rows):
    return {r[0]: r for r in rows}


class TestCompareModes:
    BASE = {
        "values": {"exact_v": 100, "cost": 2.0, "speed": 10.0,
                   "ratio_v": 1.0},
        "checks": {"exact_v": "exact", "cost": "max", "speed": "min",
                   "ratio_v": "ratio"},
    }

    def test_all_pass_at_baseline(self):
        rows = compare(self.BASE, dict(self.BASE["values"]), 0.15)
        assert all(r[4] for r in rows)

    def test_exact_rejects_any_drift(self):
        cur = dict(self.BASE["values"], exact_v=101)
        assert not _rows_by_key(
            compare(self.BASE, cur, 0.5))["exact_v"][4]

    def test_max_allows_tolerance_above(self):
        cur = dict(self.BASE["values"], cost=2.2)
        assert _rows_by_key(compare(self.BASE, cur, 0.15))["cost"][4]
        cur["cost"] = 2.4
        assert not _rows_by_key(
            compare(self.BASE, cur, 0.15))["cost"][4]

    def test_max_always_allows_improvement(self):
        cur = dict(self.BASE["values"], cost=0.1)
        assert _rows_by_key(compare(self.BASE, cur, 0.0))["cost"][4]

    def test_min_allows_tolerance_below(self):
        cur = dict(self.BASE["values"], speed=9.0)
        assert _rows_by_key(compare(self.BASE, cur, 0.15))["speed"][4]
        cur["speed"] = 8.0
        assert not _rows_by_key(
            compare(self.BASE, cur, 0.15))["speed"][4]

    def test_ratio_symmetric(self):
        for cur_v, ok in ((1.1, True), (0.9, True), (1.2, False),
                          (0.8, False)):
            cur = dict(self.BASE["values"], ratio_v=cur_v)
            got = _rows_by_key(
                compare(self.BASE, cur, 0.15))["ratio_v"][4]
            assert got is ok, cur_v

    def test_missing_value_fails(self):
        cur = dict(self.BASE["values"])
        del cur["cost"]
        row = _rows_by_key(compare(self.BASE, cur, 0.15))["cost"]
        assert not row[4] and "missing" in row[5]

    def test_unknown_mode_fails(self):
        base = {"values": {"x": 1}, "checks": {"x": "wat"}}
        row = compare(base, {"x": 1}, 0.15)[0]
        assert not row[4] and "unknown" in row[5]


class TestNormalizedCost:
    def test_returns_best_ratio_and_result(self):
        calls = []

        def measure():
            calls.append(1)
            time.sleep(0.001)
            return "payload"

        ratio, dt, calib, result = normalized_cost(measure, repeats=2)
        assert len(calls) == 2
        assert result == "payload"
        assert ratio > 0 and dt > 0 and calib > 0
        assert ratio == pytest.approx(dt / calib)


class TestGate:
    def _write(self, path, data):
        path.write_text(json.dumps(data))
        return str(path)

    def test_missing_baseline_is_exit_2(self, tmp_path, capsys):
        rc = bench_check(str(tmp_path / "BENCH_nope.json"))
        assert rc == 2

    def test_malformed_baseline_is_exit_2(self, tmp_path):
        path = self._write(tmp_path / "BENCH_x.json", {"no": "values"})
        assert bench_check(path) == 2

    def test_unknown_scenario_without_current_is_exit_2(self,
                                                        tmp_path):
        path = self._write(
            tmp_path / "BENCH_mystery.json",
            {"bench": "mystery", "values": {"x": 1}, "checks": {}})
        assert bench_check(path) == 2

    def test_current_file_pass_and_fail(self, tmp_path):
        lines = []
        base = self._write(
            tmp_path / "BENCH_b.json",
            {"bench": "b", "values": {"n": 5, "cost": 1.0},
             "checks": {"n": "exact", "cost": "max"}})
        good = self._write(
            tmp_path / "cur_good.json",
            {"values": {"n": 5, "cost": 1.05}})
        bad = self._write(
            tmp_path / "cur_bad.json",
            {"values": {"n": 5, "cost": 2.0}})
        assert bench_check(base, tolerance=0.15, current_path=good,
                           out=lines.append) == 0
        assert bench_check(base, tolerance=0.15, current_path=bad,
                           out=lines.append) == 1
        text = "\n".join(lines)
        assert "ok " in text and "FAIL" in text

    @pytest.mark.parametrize("text", ['{"no": "values"}', "not json"])
    def test_current_without_values_is_exit_2(self, tmp_path, text):
        lines = []
        base = self._write(tmp_path / "BENCH_b.json",
                           {"bench": "b", "values": {"n": 5}})
        cur = tmp_path / "cur.json"
        cur.write_text(text)
        assert bench_check(base, current_path=str(cur),
                           out=lines.append) == 2
        assert len(lines) == 1 and lines[0].startswith("bench-check:")

    def test_missing_current_is_exit_2(self, tmp_path):
        lines = []
        base = self._write(tmp_path / "BENCH_b.json",
                           {"bench": "b", "values": {"n": 5}})
        assert bench_check(base, current_path=str(tmp_path / "nope"),
                           out=lines.append) == 2
        assert len(lines) == 1 and lines[0].startswith("bench-check:")

    def test_update_writes_baseline_from_current(self, tmp_path):
        base = tmp_path / "BENCH_b.json"
        cur = self._write(tmp_path / "cur.json",
                          {"values": {"n": 1}, "checks": {}})
        rc = bench_check(str(base), current_path=cur, update=True,
                         out=lambda *_: None)
        assert rc == 0
        written = json.loads(base.read_text())
        assert written["values"] == {"n": 1}
        # and the gate now passes against itself
        assert bench_check(str(base), current_path=cur,
                           out=lambda *_: None) == 0


class TestRegistry:
    """``benchmarks/scenarios.py`` and the committed baselines beside
    it: no scenario goes ungated and no baseline is orphaned."""

    def test_baselines_and_scenarios_match(self):
        registry = benchcheck._registry_beside(
            str(BENCH_DIR / "BENCH_simulation.json"))
        baselines = {}
        for path in BENCH_DIR.glob("BENCH_*.json"):
            baselines[path.name] = load_bench_json(str(path))["bench"]
        assert sorted(baselines.values()) == sorted(registry.SCENARIOS)
        for name, bench in baselines.items():
            assert name == "BENCH_%s.json" % bench


@pytest.fixture
def scenarios(monkeypatch):
    """The registry ``bench_check`` runs for the committed simulation
    baseline, with the window shrunk so the tests stay quick."""
    module = benchcheck._registry_beside(
        str(BENCH_DIR / "BENCH_simulation.json"))
    monkeypatch.setattr(module, "SIM_UNTIL_FS", 100 * 10**6)
    return module


@pytest.mark.slow
class TestScenarioIntegration:
    """The real simulation scenario: deterministic counters are
    reproducible, and an artificially slowed kernel trips the
    normalized-cost gate."""

    def test_simulation_scenario_self_consistent(self, scenarios,
                                                 tmp_path):
        first = scenarios.SCENARIOS["simulation"]()
        assert first["schema"] == "repro-metrics/1"
        assert first["kind"] == "bench"
        base = tmp_path / "BENCH_simulation.json"
        base.write_text(json.dumps(first))
        second = scenarios.SCENARIOS["simulation"]()
        rows = compare(first, second["values"], tolerance=10.0)
        by_key = _rows_by_key(rows)
        for key in ("cycles", "delta_cycles", "signal_events",
                    "signal_transactions", "process_resumes"):
            assert by_key[key][4], (key, by_key[key])

    def test_slowed_kernel_fails_gate(self, scenarios, monkeypatch):
        baseline = scenarios.SCENARIOS["simulation"]()

        from repro.sim.kernel import Kernel

        # ``run()`` drives the per-cycle hook directly (the calendar
        # scheduler peeks the heap once per cycle, not twice), so the
        # slowdown is injected there.
        orig = Kernel._cycle

        def slowed(self, tn):
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 2e-4:
                pass
            return orig(self, tn)

        monkeypatch.setattr(Kernel, "_cycle", slowed)
        slow = scenarios.SCENARIOS["simulation"]()
        rows = compare(baseline, slow["values"], tolerance=0.5)
        by_key = _rows_by_key(rows)
        assert not by_key["normalized_cost"][4]
        # semantics unchanged: exact counters still match
        assert by_key["cycles"][4]
