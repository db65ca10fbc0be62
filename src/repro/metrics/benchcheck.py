"""``repro bench-check`` — the CI perf-regression gate.

A *baseline* is a committed ``BENCH_<name>.json`` file in the shared
``repro-metrics/1`` envelope: a ``values`` dict of named measurements
plus a ``checks`` dict assigning each value a comparison mode.  The
gate re-runs the named scenario fresh (or reads ``--current FILE``)
and compares against the baseline:

- ``exact``  — deterministic counters (simulation cycles, signal
  events, AG evaluations): must match bit-for-bit; any drift means the
  *semantics* changed, not just the speed.
- ``max``    — cost-like values: current must not exceed
  ``base * (1 + tolerance)``.
- ``min``    — benefit-like values (speedups): current must be at
  least ``base * (1 - tolerance)``.
- ``ratio``  — must stay within ``tolerance`` relative either way.

The scenarios are not part of this package: a baseline's scenario is
``SCENARIOS[name]`` in the ``scenarios.py`` beside the baseline file
(``benchmarks/scenarios.py`` for the committed baselines).  Scenarios
report wall-clock costs through :func:`normalized_cost`, which divides
each cost by a fixed pure-Python calibration loop timed on the same
machine, so a committed baseline transfers between hosts of different
absolute speed — slowing the kernel still moves the ratio, which is
exactly what the gate must catch.

Baselines are refreshed with ``repro bench-check --baseline FILE
--update`` (re-runs the scenario and rewrites the file); CI runs the
gate with a generous tolerance so only genuine regressions fail.
"""

import importlib.util
import json
import os
import time

#: Iterations of the calibration loop (pure-Python integer work).
CALIBRATION_N = 300_000

#: Measurement repeats; the best (minimum) ratio is kept.
REPEATS = 5


def calibrate(n=CALIBRATION_N, repeats=3):
    """Seconds for the fixed reference loop (best of ``repeats``)."""
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc += i & 7
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return max(best, 1e-9)


def normalized_cost(measure, repeats=REPEATS):
    """``min over repeats of (measure() seconds / calibration
    seconds)`` — the calibration loop runs inside the same time window
    as each measurement, so host-load and frequency drift hit both and
    mostly cancel out of the ratio."""
    best = None
    for _ in range(repeats):
        calib = calibrate(repeats=1)
        t0 = time.perf_counter()
        result = measure()
        dt = time.perf_counter() - t0
        calib = min(calib, calibrate(repeats=1))
        ratio = dt / calib
        if best is None or ratio < best[0]:
            best = (ratio, dt, calib, result)
    return best


# -- comparison --------------------------------------------------------------


class CheckFailure(Exception):
    """A baseline could not be loaded or compared."""


def _close(a, b):
    if isinstance(a, float) or isinstance(b, float):
        scale = max(abs(a), abs(b), 1e-12)
        return abs(a - b) / scale <= 1e-9
    return a == b


def compare(baseline, current_values, tolerance=0.15):
    """[(key, mode, base, current, ok, detail)] for every check."""
    values = baseline.get("values", {})
    checks = baseline.get("checks", {})
    rows = []
    for key in sorted(values):
        mode = checks.get(key, "ratio")
        base = values[key]
        cur = current_values.get(key)
        if cur is None:
            rows.append((key, mode, base, None, False,
                         "missing from current run"))
            continue
        if mode == "exact":
            ok = _close(base, cur)
            detail = "must equal baseline"
        elif mode == "max":
            limit = base * (1.0 + tolerance)
            ok = cur <= limit
            detail = "<= %.6g (base %.6g +%.0f%%)" % (
                limit, base, tolerance * 100)
        elif mode == "min":
            limit = base * (1.0 - tolerance)
            ok = cur >= limit
            detail = ">= %.6g (base %.6g -%.0f%%)" % (
                limit, base, tolerance * 100)
        elif mode == "ratio":
            scale = max(abs(base), 1e-12)
            ok = abs(cur - base) / scale <= tolerance
            detail = "within %.0f%% of %.6g" % (tolerance * 100, base)
        else:
            ok, detail = False, "unknown check mode %r" % mode
        rows.append((key, mode, base, cur, ok, detail))
    return rows


def load_bench_json(path):
    with open(path) as f:
        try:
            data = json.load(f)
        except ValueError as exc:
            raise CheckFailure("%s: not JSON (%s)" % (path, exc))
    if not isinstance(data, dict) or "values" not in data:
        raise CheckFailure(
            "%s: not a repro-metrics bench file (no 'values')" % path)
    return data


def _registry_beside(baseline_path):
    """The ``scenarios.py`` module next to ``baseline_path``, freshly
    imported, or None when there is none."""
    path = os.path.join(os.path.dirname(os.path.abspath(baseline_path)),
                        "scenarios.py")
    if not os.path.isfile(path):
        return None
    spec = importlib.util.spec_from_file_location("scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_check(baseline_path, tolerance=0.15, current_path=None,
                update=False, out=print):
    """Run one gate; returns a process exit code (0 = pass)."""
    try:
        baseline = load_bench_json(baseline_path)
    except FileNotFoundError:
        if not update:
            out("bench-check: no baseline %s (run with --update to "
                "create it)" % baseline_path)
            return 2
        name = _bench_name_from_path(baseline_path)
        baseline = {"bench": name}
    except CheckFailure as exc:
        out("bench-check: %s" % exc)
        return 2
    name = baseline.get("bench") or _bench_name_from_path(
        baseline_path)
    if current_path is not None:
        try:
            current = load_bench_json(current_path)
        except (OSError, CheckFailure) as exc:
            out("bench-check: %s" % exc)
            return 2
        source = current_path
    else:
        scenarios = getattr(_registry_beside(baseline_path),
                            "SCENARIOS", {})
        scenario = scenarios.get(name)
        if scenario is None:
            out("bench-check: no built-in scenario %r "
                "(known: %s); pass --current FILE"
                % (name, ", ".join(sorted(scenarios)) or "none"))
            return 2
        current = scenario()
        source = "fresh %r run" % name
    if update:
        tmp = "%s.tmp.%d" % (baseline_path, os.getpid())
        with open(tmp, "w") as f:
            json.dump(current, f, indent=1, sort_keys=True)
            f.write("\n")
        os.replace(tmp, baseline_path)
        out("bench-check: baseline %s updated from %s"
            % (baseline_path, source))
        return 0
    rows = compare(baseline, current.get("values", {}), tolerance)
    failures = 0
    out("bench-check %s: baseline %s vs %s (tolerance %.0f%%)"
        % (name, baseline_path, source, tolerance * 100))
    for key, mode, base, cur, ok, detail in rows:
        mark = "ok  " if ok else "FAIL"
        out("  %s %-26s %-6s base=%-12s current=%-12s %s"
            % (mark, key, mode, _fmt(base), _fmt(cur), detail))
        if not ok:
            failures += 1
    if failures:
        out("bench-check: %d regression(s) against %s"
            % (failures, baseline_path))
        return 1
    out("bench-check: ok (%d check(s))" % len(rows))
    return 0


def _bench_name_from_path(path):
    stem = os.path.splitext(os.path.basename(path))[0]
    if stem.startswith("BENCH_"):
        stem = stem[len("BENCH_"):]
    return stem.lower()


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)
