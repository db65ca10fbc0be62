"""Compile-time / run-time parity for the multi-driver defect.

RPL002 and :meth:`repro.sim.signals.Signal.compute_value` diagnose
the same design error at different pipeline stages; both must cite
the same declaration site, so the user can go from a mid-simulation
crash to the lint finding (and baseline/fix it) without guessing.
"""

from repro.analysis import LintEngine
from repro.sim.runtime import RuntimeError_
from repro.vhdl.elaborate import Elaborator

from .conftest import compile_fixture, fixture_path


def simulate_until_error(compiler, top):
    elab = Elaborator(compiler.library)
    sim = elab.elaborate(top)
    sim.run(until_fs=10_000_000)
    assert not sim.ok
    assert isinstance(sim.error, RuntimeError_)
    (diag,) = sim.diagnostics
    assert diag.code == "SIM003"
    assert diag.span == sim.error.span
    return sim.error


class TestMultiDriverParity:
    def test_lint_fires_where_simulation_would_crash(self):
        compiler = compile_fixture("rpl002_bad.vhd")
        findings = LintEngine(
            library=compiler.library).lint_library()
        (lint_diag,) = [d for d in findings if d.code == "RPL002"]

        exc = simulate_until_error(compiler, "rpl002_bad")
        assert "no resolution function" in str(exc)

        # Both cite the same declaration span.
        assert exc.span is not None
        assert lint_diag.span == exc.span
        assert exc.span.file == fixture_path("rpl002_bad.vhd")
        assert exc.span.line == 7

    def test_runtime_message_cites_the_declaration(self):
        compiler = compile_fixture("rpl002_bad.vhd")
        exc = simulate_until_error(compiler, "rpl002_bad")
        assert "declared at" in str(exc)
        assert "rpl002_bad.vhd:7" in str(exc)

    def test_resolved_design_passes_both_stages(self):
        compiler = compile_fixture("rpl002_clean.vhd")
        findings = LintEngine(
            library=compiler.library).lint_library()
        assert findings == []
        elab = Elaborator(compiler.library)
        sim = elab.elaborate("rpl002_clean")
        sim.run(until_fs=10_000_000)
        assert sim.ok, sim.diagnostics


class TestKernelSpanPlumbing:
    def test_signal_decl_span_set_by_elaboration(self):
        compiler = compile_fixture("rpl002_bad.vhd")
        elab = Elaborator(compiler.library)
        sim = elab.elaborate("rpl002_bad")
        sig = sim.signal("x")
        assert sig.decl_span is not None
        assert sig.decl_span.line == 7
        assert sig.decl_span.file.endswith("rpl002_bad.vhd")

    def test_process_decl_line_recorded(self):
        compiler = compile_fixture("rpl002_bad.vhd")
        elab = Elaborator(compiler.library)
        sim = elab.elaborate("rpl002_bad")
        lines = {
            p.name.rsplit(":", 1)[-1]: p.decl_line
            for p in sim.kernel.processes
        }
        assert lines["p1"] == 10
        assert lines["p2"] == 16


class TestDesignScopeRaceParity:
    """RPE002 is the design-scope (post-elaboration) twin of RPL002:
    it must agree with the kernel on the pinned corpus designs —
    error exactly where the kernel raises, resolved-bus note exactly
    where the kernel runs clean."""

    @staticmethod
    def corpus_findings(name):
        import os

        from repro.analysis import build_netlist
        from repro.gen.corpus import load_entry
        from repro.vhdl.compiler import Compiler

        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "gen", "corpus", name)
        entry = load_entry(os.path.normpath(path))
        compiler = Compiler()
        result = compiler.compile(entry.source, entry.name + ".vhd")
        assert result.ok, result.messages
        elab = Elaborator(compiler.library)
        sim = elab.elaborate(entry.top)
        graph = build_netlist(sim.records)
        findings = LintEngine(
            library=compiler.library,
            select=["RPE002"]).lint_design(graph)
        return entry, compiler, findings

    def test_unresolved_feedback_race_is_an_error(self):
        entry, compiler, findings = self.corpus_findings(
            "multidriver_feedback_stim.vhd")
        assert entry.expect == "sim_error"
        (race,) = findings
        assert race.severity == "error"

        # The kernel crashes on the same signal, citing the same
        # declaration span the static finding is anchored to.
        exc = simulate_until_error(compiler, entry.top)
        assert "no resolution function" in str(exc)
        assert race.span == exc.span

    def test_resolved_same_instant_is_a_note_and_runs(self):
        entry, compiler, findings = self.corpus_findings(
            "resolved_same_instant.vhd")
        assert entry.expect == "ok"
        assert [d.severity for d in findings] == ["note"]
        assert "resolved" in findings[0].message

        elab = Elaborator(compiler.library)
        sim = elab.elaborate(entry.top)
        sim.run(until_fs=entry.until_ns * 1_000_000)  # must not raise

    def test_resolved_bus_behind_config_is_a_note_and_runs(self):
        entry, compiler, findings = self.corpus_findings(
            "config_unit_resolved_bus.vhd")
        assert entry.expect == "ok"
        assert [d.severity for d in findings] == ["note"]

        elab = Elaborator(compiler.library)
        sim = elab.elaborate(entry.top)
        sim.run(until_fs=entry.until_ns * 1_000_000)  # must not raise
