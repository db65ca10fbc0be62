"""The metric families the CLI exports, pinned.

For ``repro compile`` and ``repro sim`` (both backends) of
``examples/metrics_demo.vhd`` and for ``repro build`` with one and two
jobs, the ``--metrics-out`` snapshot must hold exactly the pinned
families, each with the pinned type, label keys and, unless it is a
timing family, the pinned samples.  A family whose counter was never
set must still be there.  ``data/family_golden.json`` holds the pins;
regenerate it only when a change is meant to move them::

    PYTHONPATH=src python -m tests.metrics.test_family_golden
"""

import json
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).parents[2]
GOLDEN = Path(__file__).parent / "data" / "family_golden.json"
DEMO = str(ROOT / "examples" / "metrics_demo.vhd")
BUILD_FILES = [DEMO] + [
    str(ROOT / "tests" / "gen" / "corpus" / name)
    for name in ("compiled_case_and_loop.vhd",
                 "transport_preemption.vhd")]

#: Each run's arguments after ``--root LIB``.
RUNS = {
    "compile": ["compile", DEMO],
    "sim_event": ["sim", DEMO, "--until", "500ns", "--backend", "event"],
    "sim_compiled": ["sim", DEMO, "--until", "500ns",
                     "--backend", "compiled"],
    "build_jobs1": ["build", "--jobs", "1"] + BUILD_FILES,
    "build_jobs2": ["build", "--jobs", "2"] + BUILD_FILES,
}


def _timing(name):
    """Families whose samples are wall-clock readings (or, for worker
    pids, label values that vary between runs)."""
    return "seconds" in name or "utilization" in name


def families(run):
    """``{family: {"type", "labels", "samples"}}`` of one run's
    snapshot: the sorted label-key sets, and the samples of every
    non-timing family."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "m.json"
        rc = main(["--root", str(Path(tmp) / "libs")] + RUNS[run]
                  + ["--metrics-out", str(out)], out=lambda *a: None)
        assert rc == 0, run
        metrics = json.loads(out.read_text())["metrics"]
    pinned = {}
    for name, family in sorted(metrics.items()):
        samples = family["samples"]
        entry = {"type": family["type"],
                 "labels": sorted({",".join(sorted(s["labels"]))
                                   for s in samples})}
        if not _timing(name):
            entry["samples"] = samples
        pinned[name] = entry
    return pinned


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("run", sorted(RUNS))
def test_metric_families_are_pinned(run):
    assert families(run) == _golden()[run]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {run: families(run) for run in RUNS},
        indent=1, sort_keys=True) + "\n")
