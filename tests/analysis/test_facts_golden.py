"""Golden facts: every :class:`UnitFacts` field, pinned per unit.

The golden under ``golden/unit_facts.json`` is a canonical dump of the
facts :func:`repro.analysis.extract_unit_facts` produces for every
unit of a fixed source set: ``examples/metrics_demo.vhd``, the pinned
fuzz corpus, the lint fixtures and the first 25 designs of fuzz seed
7.  The set is the golden's own file list, so a source added later
does not change what is pinned.

A difference is a bug in whatever produces the facts, not a reason to
rewrite the golden.  ``python tests/analysis/test_facts_golden.py
--write`` rewrites it and exists only to pin a new, reviewed
producer.
"""

import glob
import json
import os
import sys

import pytest

from repro.analysis import extract_unit_facts
from repro.gen.grammar import generate_for
from repro.vhdl.compiler import Compiler

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "golden", "unit_facts.json")

#: fuzz designs pinned: generate_for(GEN_SEED, i) for i < GEN_COUNT
GEN_SEED = 7
GEN_COUNT = 25


def source_set():
    """(name, text) for every pinned source, in a fixed order."""
    files = [os.path.join(REPO, "examples", "metrics_demo.vhd")]
    files += sorted(glob.glob(os.path.join(REPO, "tests", "gen",
                                           "corpus", "*.vhd")))
    files += sorted(glob.glob(os.path.join(HERE, "fixtures", "*.vhd")))
    out = []
    for path in files:
        with open(path) as fh:
            out.append((os.path.relpath(path, REPO), fh.read()))
    for i in range(GEN_COUNT):
        out.append(("gen:%d:%d" % (GEN_SEED, i),
                    generate_for(GEN_SEED, i).source))
    return out


def _sorted(names):
    return sorted(names) if names is not None else None


def dump_facts(facts):
    """A JSON-able canonical form of one :class:`UnitFacts`."""
    return {
        "kind": facts.kind,
        "name": facts.name,
        "file": facts.file,
        "objects": [
            [py, o.name, o.kind, o.mode, o.line, o.resolved]
            for py, o in facts.objects.items()
        ],
        "processes": [{
            "label": p.label,
            "py": p.py,
            "line": p.line,
            "sensitivity": p.sensitivity,
            "plain_reads": _sorted(p.plain_reads),
            "guarded_reads": _sorted(p.guarded_reads),
            "attr_uses": _sorted(p.attr_uses),
            "drives": _sorted(p.drives),
            "drive_sites": [[d.target, d.guarded, d.zero_delay]
                            for d in p.drive_sites],
            "event_guards": _sorted(p.event_guards),
            "waits": [[w.signals, w.has_condition, w.has_timeout]
                      for w in p.waits],
            "waitless_loops": p.waitless_loops,
            "unreachable_stmts": p.unreachable_stmts,
        } for p in facts.processes],
        "instances": [
            [i.label, i.component,
             [list(kv) for kv in sorted(i.connections.items())]]
            for i in facts.instances
        ],
    }


def facts_of_source(name, text):
    """Dumped facts of every unit one source registers, in order."""
    compiler = Compiler()
    compiler.compile(text, filename=name)
    library = compiler.library
    return [
        dump_facts(extract_unit_facts(library._units[key]))
        for key in library.compile_order if key in library._units
    ]


def load_golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def write_golden():
    golden = {name: facts_of_source(name, text)
              for name, text in source_set()}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return golden


_SOURCES = dict(source_set())


def test_golden_covers_the_pinned_set():
    golden = load_golden()
    assert len(golden) == 49
    assert sum(len(units) for units in golden.values()) == 338
    assert sum(len(u["processes"]) for units in golden.values()
               for u in units) == 229
    assert set(golden) <= set(_SOURCES)


def _golden_names():
    # A missing golden fails test_golden_covers_the_pinned_set.
    return sorted(load_golden()) if os.path.exists(GOLDEN) else []


@pytest.mark.parametrize("name", _golden_names())
def test_unit_facts_match_golden(name):
    assert facts_of_source(name, _SOURCES[name]) == load_golden()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_facts_golden.py --write")
    written = write_golden()
    print("wrote %d sources, %d units to %s" % (
        len(written), sum(len(u) for u in written.values()), GOLDEN))
