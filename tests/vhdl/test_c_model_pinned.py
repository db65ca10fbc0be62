"""The derived C text is pinned: :func:`c_model` renders, for every unit
of the shipped VHDL sources and a 40-cell token ring, exactly the text
the AG used to store with each unit.

``data/c_model_digests.json`` maps ``<source>::<unit key>`` to the
SHA-256 of that stored text; units of sources added later are not
pinned."""

import hashlib
import importlib.util
import json
from pathlib import Path

from repro.vhdl.codegen.cmodel import c_model
from repro.vhdl.compiler import Compiler

ROOT = Path(__file__).parents[2]
DIGESTS = Path(__file__).parent / "data" / "c_model_digests.json"


def _ring_vhdl(n, tokens):
    spec = importlib.util.spec_from_file_location(
        "scenarios", ROOT / "benchmarks" / "scenarios.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ring_vhdl(n, tokens)


def _sources():
    paths = sorted(ROOT.glob("examples/*.vhd")) + sorted(
        ROOT.glob("tests/**/*.vhd"))
    for path in paths:
        name = path.relative_to(ROOT).as_posix()
        yield name, path.read_text()
    yield "ring_vhdl(40, 4)", _ring_vhdl(40, 4)


def test_derived_c_text_matches_pinned_digests():
    digests = {}
    for name, text in _sources():
        compiler = Compiler()
        compiler.compile(text, filename=name)
        for key, unit in compiler.library.units_of("work"):
            digests["%s::%s" % (name, key)] = hashlib.sha256(
                c_model(unit).encode()).hexdigest()
    pinned = json.loads(DIGESTS.read_text())
    assert len(pinned) == 85
    assert {k: digests.get(k) for k in pinned} == pinned
