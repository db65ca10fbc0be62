"""Reads made through procedure calls.

A procedure call reads what the callee's body reads, its signal
formals replaced by their actuals.  The principal AG records those
reads on the ``SubprogramEntry`` (``reads``, next to ``drives``) and
adds them to the calling process's ``Flow`` at each call, so a signal
read only inside an architecture-level procedure is live for analyze
(no RPE004) and missing from the caller's sensitivity list for lint
(RPL001).
"""

import os

from repro.analysis import LintEngine
from repro.analysis.facts import extract_unit_facts
from repro.gen.corpus import iter_corpus
from repro.request import analyze
from repro.vhdl.compiler import Compiler
from repro.vhdl.library import LibraryManager

CORPUS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "gen", "corpus")

#: ``p`` reads ``y`` only inside ``poke``; ``clk`` drives ``t`` and
#: ``y``, and ``poke`` drives the port ``x``.
[READS_VIA_PROCEDURE] = [e.source for e in iter_corpus(CORPUS)
                         if e.name == "reads_via_procedure"]

#: ``p`` reaches ``y`` through two calls: ``outer`` passes its signal
#: formal on to ``poke``.
NESTED = READS_VIA_PROCEDURE.replace("""begin
  clk : process""", """  procedure outer(signal w : in integer) is
  begin
    poke(w);
  end;
begin
  clk : process""").replace("    poke(t);", "    outer(t);")


def _library(source):
    library = LibraryManager(root=None)
    result = Compiler(library=library).compile(source, filename="t.vhd")
    assert result.ok, result.messages
    return library


def _process(library, label):
    arch = library.find_architecture("work", "fz_top", "bench")
    [proc] = [p for p in extract_unit_facts(arch).processes
              if p.label == label]
    return proc


def test_the_call_carries_the_callee_reads():
    for source, caller in ((READS_VIA_PROCEDURE, "poke"),
                           (NESTED, "outer")):
        p = _process(_library(source), "p")
        # ``y`` is read in the callee, ``t`` through the signal formal.
        assert {"s_y", "s_t"} <= p.plain_reads, caller
        assert not any(py.startswith("a_") for py in p.plain_reads)


def test_analyze_sees_the_read_signal_live():
    design = analyze(_library(READS_VIA_PROCEDURE), "fz_top")
    assert [d for d in design.findings if d.code == "RPE004"] == []


def test_lint_reports_the_missing_sensitivity():
    findings = LintEngine(
        library=_library(READS_VIA_PROCEDURE)).lint_library()
    [finding] = [d for d in findings if d.code == "RPL001"]
    assert "'p'" in finding.message and "'y'" in finding.message


def test_the_entry_records_the_body_reads():
    arch = _library(READS_VIA_PROCEDURE).find_architecture(
        "work", "fz_top", "bench")
    [poke] = [e for e in arch.decls if getattr(e, "name", "") == "poke"]
    assert poke.reads == [["a_v", "s_y"], []]
