"""The request layer: each pipeline step the front ends share, once.

The CLI, the serve job runner and the fuzz oracle all drive the §2
pipeline (source → AG front end → VIF library → elaboration → the
virtual machine).  Each step they share is written here: compile
sources into one library, pick the top entity, elaborate and lint the
design, elaborate and run it, and sort findings.  A function returns
a plain record; the CLI formats it for a terminal, serve turns it into
JSON and the oracle compares records.  Nothing here catches an
exception (the oracle classifies a raised one as a crash), and every
dependency is imported on first use.
"""

from collections import namedtuple


class Compiled:
    """Sources compiled into one library, in input order."""

    def __init__(self, compiler):
        self.compiler = compiler
        self.library = compiler.library
        #: one :class:`~repro.vhdl.compiler.CompileResult` per source.
        self.results = []

    @property
    def failed(self):
        return [r for r in self.results if not r.ok]

    @property
    def sources(self):
        """File name -> text of each source that compiled."""
        return {r.filename: r.source for r in self.results if r.ok}

    @property
    def top(self):
        """The last entity compiled (the default top), or None."""
        from .vhdl.symtab import entry_kind

        entities = [u.name for r in self.results for u in r.units
                    if entry_kind(u) == "entity"]
        return entities[-1] if entities else None


def compile_sources(sources, work="work", ref=(), library=None,
                    werror=False, root=None):
    """Compile every source — a path, or a ``(name, text)`` pair — into
    ``library``, by default a fresh in-memory one, so read-only checks
    never touch a design library on disk; that one reads the ``ref``
    libraries from the disk library ``root``."""
    from .vhdl.compiler import Compiler
    from .vhdl.library import LibraryManager

    if library is None:
        library = LibraryManager(root=None, work=work,
                                 reference_libs=tuple(ref))
        if root is not None and ref:
            library.load_references(root)
    compiled = Compiled(Compiler(library=library, work=work,
                                 werror=werror))
    for source in sources:
        if isinstance(source, str):
            result = compiled.compiler.compile_file(source)
        else:
            name, text = source
            result = compiled.compiler.compile(text, filename=name)
        compiled.results.append(result)
    return compiled


class Design:
    """One elaborated design: its Simulation, a LIB001 warning per
    corrupt unit the library moved aside, the netlist and findings once
    the design rules ran, and whether the kernel ran (``waves`` holds
    its waveform recorder, when one was asked for)."""

    def __init__(self, sim, quarantined):
        self.sim = sim
        self.quarantined = quarantined
        self.graph = None
        self.findings = []
        self.ran = False
        self.waves = None

    @property
    def blocking(self):
        """Findings that must stop a simulation from starting."""
        return [d for d in self.findings
                if d.severity in ("error", "fatal")]


def _elaborate(library, top, arch=None, lib=None, kernel=None):
    from .vhdl.elaborate import Elaborator

    sim = Elaborator(library, kernel=kernel).elaborate(
        top, arch_name=arch, lib=lib)
    return Design(sim, library.quarantine_diagnostics())


def _lint(design, library, select=(), ignore=(), metrics=None):
    """Flatten the elaborated design and run the design (RPE) rules."""
    from .analysis import LintEngine

    design.graph = design.sim.netlist()
    design.findings = LintEngine(
        library=library, select=select, ignore=ignore,
        metrics=metrics).lint_design(design.graph)


def analyze(library, top, arch=None, select=(), ignore=(),
            metrics=None):
    """Elaborate ``top`` and run the design rules over its netlist; a
    design that does not elaborate has no findings."""
    design = _elaborate(library, top, arch)
    if design.sim.ok:
        _lint(design, library, select, ignore, metrics)
    return design


def simulate(library, top, kernel, until_fs=None, arch=None, lib=None,
             max_cycles=None, waves=None, preflight=False,
             metrics=None):
    """Elaborate ``top`` on ``kernel`` and run it.  ``waves`` lists
    the signal suffixes to record (all signals when none match); None
    records nothing.  With ``preflight`` the design rules run first,
    and a blocking finding keeps the kernel from starting."""
    design = _elaborate(library, top, arch, lib, kernel)
    sim = design.sim
    if not sim.ok:
        return design
    if preflight:
        with kernel.trace.span("analyze", cat="sim"):
            _lint(design, library, metrics=metrics)
        if design.blocking:
            return design
    if waves is not None:
        from .sim.tracing import WaveformRecorder

        names = sim.names
        signals = [names.lookup(path) for suffix in waves
                   for path in names.by_suffix(suffix)
                   if names.kind_of(path) == "signal"]
        design.waves = WaveformRecorder(kernel, signals or None)
    sim.run(until_fs=until_fs, max_cycles=max_cycles)
    design.ran = True
    return design


Findings = namedtuple("Findings", "ordered summary errors")


def sort_findings(findings, werror=False):
    """``findings`` through a :class:`~repro.diag.DiagnosticEngine`, so
    ``-Werror`` promotion, ordering and the summary line match the
    compiler's own diagnostics."""
    from .diag import DiagnosticEngine

    engine = DiagnosticEngine(werror=werror)
    for diag in findings:
        engine.emit(diag)
    return Findings(engine.sorted(), engine.summary(),
                    engine.error_count)
