"""The committed translator artifacts (``python -m repro.regen``):
fresh, equal to what the generators build, and all a compile-only
process loads."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import regen
from repro.ag.lr import build_tables
from repro.vhdl import expr_grammar, grammar
from repro.vif import nodes

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(scope="module")
def artifacts():
    return regen.artifacts()


def test_artifacts_are_fresh(artifacts):
    assert len(artifacts) == 3
    for path, text in artifacts:
        with open(path) as fh:
            assert fh.read() == text, (
                "%s is stale: run python -m repro.regen" % path)


def test_regen_writes_only_changed_artifacts(tmp_path, monkeypatch, capsys):
    path = tmp_path / "artifact.txt"
    monkeypatch.setattr(regen, "artifacts", lambda: [(str(path), "v1\n")])
    assert regen.main() == 0
    assert path.read_text() == "v1\n"
    assert regen.main() == 0
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] \
        == ["written", "unchanged"]


@pytest.mark.parametrize("make_spec, translator", [
    (grammar.principal_spec, grammar.principal_grammar),
    (expr_grammar.expr_spec, expr_grammar.expr_grammar),
], ids=["principal", "expr"])
def test_loaded_tables_equal_built(make_spec, translator):
    loaded = translator().tables
    # Loaded from the table file: no automaton was built for them.
    assert loaded._automaton is None
    built = build_tables(make_spec().grammar)
    assert loaded.action == built.action
    assert loaded.goto == built.goto
    assert loaded.accept_index == built.accept_index
    assert [p.label for p in loaded.grammar.productions] \
        == [p.label for p in built.grammar.productions]
    assert [(c.state, c.terminal, c.kind, c.actions, c.resolution)
            for c in loaded.conflicts] \
        == [(c.state, c.terminal, c.kind, c.actions, c.resolution)
            for c in built.conflicts]


def test_vif_module_matches_generator():
    with open(nodes.GENERATED_PATH) as fh:
        assert fh.read() == nodes.generated_source()


def test_vif_classes_come_from_committed_module():
    from repro.vif import _generated

    assert nodes.registry() is _generated.REGISTRY
    assert nodes.node_class("EnumType").__module__ == "repro.vif._generated"


def test_vif_module_of_another_schema_is_not_used(monkeypatch):
    text = nodes.schema_text()
    monkeypatch.setattr(nodes, "schema_text", lambda: text + "\n-- edit\n")
    assert nodes._committed() is None
    monkeypatch.setattr(nodes, "schema_text", lambda: text)
    assert nodes._committed() is not None


#: Modules a compile never runs: kernels and codegen, the LR automaton
#: and lookaheads (tables are loaded), the OAG analysis, and the VIF
#: schema processor and generator (the node module is committed).
NOT_LOADED = (
    "ast", "hashlib",
    "repro.sim.kernel", "repro.sim.compiled", "repro.sim.codegen",
    "repro.ag.lr.items", "repro.ag.lr.lalr",
    "repro.ag.ordered", "repro.ag.static_eval", "repro.ag.dependency",
    "repro.ag.stats",
    "repro.vif.schema_lang", "repro.vif.generator",
)

IMPORT_SCRIPT = """
import json, sys
import repro.cli
from repro.vhdl.grammar import principal_grammar
principal_grammar()
print(json.dumps(sorted(sys.modules)))
"""


def test_compile_only_start_imports_only_the_compiler():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "repro.vif._generated" in loaded
    assert sorted(loaded.intersection(NOT_LOADED)) == []
