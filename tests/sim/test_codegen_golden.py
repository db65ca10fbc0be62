"""Codegen's outcome per process, pinned.

For every corpus design, the shipped example, a 40-cell token ring and
three fixtures of ``test_compiled_backend.py``, a cold
:func:`repro.sim.codegen.build_program` must give the pinned
``Program.stats`` and, for each process in index order, the pinned
outcome: ``compiled <factory> pure|impure`` or ``reject_<reason>``.
The bytes are pinned too, as sha256 digests: each architecture's
``slot_forms`` (:mod:`repro.vhdl.slotform`) and the factories' text
codegen renders into the design's specialized module (the module is
that text after a fixed prelude and a fingerprint line).
``data/codegen_golden.json`` holds the pins (corpus designs added
later are not pinned); regenerate it only when a change is meant to
move them::

    PYTHONPATH=src python -m tests.sim.test_codegen_golden
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis import build_netlist, levelize
from repro.gen.corpus import iter_corpus
from repro.request import compile_sources
from repro.sim import CompiledKernel, codegen
from repro.vhdl.elaborate import Elaborator

from .test_compiled_backend import GENERIC_PAIR, NESTED, SLOT_AND_RESOLVED

ROOT = Path(__file__).parents[2]
GOLDEN = Path(__file__).parent / "data" / "codegen_golden.json"


def _ring_vhdl(n, tokens):
    spec = importlib.util.spec_from_file_location(
        "scenarios", ROOT / "benchmarks" / "scenarios.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ring_vhdl(n, tokens)


def designs():
    """``(name, source, top)`` of every pinned design."""
    out = [("corpus/%s" % e.name, e.source, e.top)
           for e in iter_corpus(ROOT / "tests" / "gen" / "corpus")]
    out += [(path.relative_to(ROOT).as_posix(), path.read_text(),
             path.stem) for path in sorted(ROOT.glob("examples/*.vhd"))]
    out += [("ring_vhdl(40, 4)", _ring_vhdl(40, 4), "ring"),
            ("SLOT_AND_RESOLVED", SLOT_AND_RESOLVED, "split"),
            ("NESTED", NESTED, "nested"),
            ("GENERIC_PAIR", GENERIC_PAIR, "pair")]
    return out


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(source, top):
    """The design's ``{"stats", "procs", "slot_forms", "module"}`` from
    a cold build, or None when it does not compile or elaborate."""
    built = compile_sources([("<golden>", source)])
    if not all(r.ok for r in built.results):
        return None
    kernel = CompiledKernel()
    sim = Elaborator(built.library, kernel=kernel).elaborate(top)
    if not sim.ok:
        return None
    graph = build_netlist(sim.records)
    _levels, _order, cyclic = levelize(graph)
    program = codegen.build_program(kernel, sim.records, graph, cyclic)
    procs = []
    for proc in sorted(kernel.processes, key=lambda p: p.index):
        plan = program.plans.get(proc.index)
        if plan is None:
            procs.append([proc.name,
                          "reject_%s" % program.rejects[proc.index]])
        else:
            procs.append([proc.name, "compiled %s %s" % (
                plan.resume, "pure" if plan.pure else "impure")])
    module = codegen._specialize(kernel, sim.records, graph, cyclic)[0]
    return {"stats": program.stats, "procs": procs,
            "slot_forms": {key: _sha256(json.dumps(node.slot_forms))
                           for key, node in built.library.units_of("work")
                           if getattr(node, "slot_forms", None) is not None},
            "module": _sha256(module)}


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(_golden()))
def test_codegen_outcome_is_pinned(name):
    source, top = {d[0]: d[1:] for d in designs()}[name]
    assert outcome(source, top) == _golden()[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {name: outcome(source, top) for name, source, top in designs()},
        indent=1, sort_keys=True) + "\n")
