"""The compiler driver.

"The compiler accepts a file containing compilation units, a list of
compiler directives, a working library ... and a reference library"
(§2).  :class:`Compiler` wires the scanner, the generated principal-AG
evaluator, exprEval cascading, VIF emission into the library, and the
back-end compile of the generated model.

Every input ends in a :class:`CompileResult`.  As in the paper, where
a compile's errors are the synthesized ``MSGS`` attribute returned
next to ``UNITS``, failure is data: semantic messages, and the lex,
parse, circularity and evaluation errors the AG raises, all arrive as
the result's ``messages`` and ``diagnostics``.

Phase timing goes through the span recorder of :mod:`repro.trace`:
every phase is a span, ``CompileResult.timings`` (the E4 bench's §2.2
time breakdown) sums them per name, and a multi-file (or multi-worker)
build renders them as one Chrome trace timeline.  Diagnostics are
collected structured (:mod:`repro.diag.diagnostic`): every message
carries an error code and a file/line/column span next to the legacy
string form.
"""

from ..ag.errors import AGError, LexError
from ..diag import AGObserver, DiagnosticEngine
from ..diag.diagnostic import drop_tracebacks
from ..trace.recorder import SpanRecorder
from .codegen.pymodel import compile_model
from .compile_ctx import CompileCtx
from .grammar import principal_grammar
from .lexer import scan
from .library import LibraryManager


class CompileError(Exception):
    """An internal error: :meth:`CompileResult.unit_names` met a unit
    without a name.  A failed compile is a result, never this."""


class CompileResult:
    """Outcome of compiling one source file."""

    def __init__(self, units, messages, source_lines, expr_evals,
                 registered_units=(), diagnostics=(), trace_events=(),
                 ag_stats=None, filename=None, error=None, source=None):
        self.units = list(units)
        self.messages = list(messages)
        self.source_lines = source_lines
        self.expr_evals = expr_evals
        #: (lib, key) library entries this compile registered, in
        #: registration order — the incremental build driver's view.
        self.registered_units = list(registered_units)
        #: structured :class:`repro.diag.Diagnostic` records mirroring
        #: ``messages`` (plus any with richer spans).
        self.diagnostics = list(diagnostics)
        #: Chrome trace events recorded for this compile.
        self.trace_events = list(trace_events)
        #: the compiler's :class:`repro.diag.AGObserver` (rule
        #: firings, memo hits/misses, accumulated across the
        #: compiler's lifetime), or None.
        self.ag_stats = ag_stats
        self.filename = filename
        #: the :class:`repro.ag.errors.AGError` that stopped the
        #: compile before any unit was produced (a lex, parse,
        #: circularity or evaluation error), or None.
        self.error = error
        #: the source text compiled, or None when it could not be read.
        self.source = source

    @property
    def ok(self):
        return not self.messages

    @property
    def timings(self):
        """Seconds per phase name: a view over ``trace_events``."""
        from ..trace.analyze import span_totals

        return {name: seconds for name, (seconds, _) in
                span_totals(self.trace_events).items()}

    def unit_names(self):
        """Names of the compiled units.

        Every VIF unit kind guarantees a ``name`` field; a unit
        arriving here without one is an internal error worth a clear
        diagnostic, not a silent ``"?"`` placeholder.
        """
        names = []
        for u in self.units:
            name = getattr(u, "name", None)
            if not name:
                raise CompileError(
                    "internal: compilation produced an unnamed %s "
                    "unit — VIF units must carry a name"
                    % type(u).__name__)
            names.append(name)
        return names

    def __repr__(self):
        # repr must never raise; show a placeholder for the
        # pathological unnamed case unit_names() diagnoses loudly.
        shown = ", ".join(
            getattr(u, "name", None) or "<unnamed>" for u in self.units)
        return "<CompileResult %s: %d message(s)>" % (
            shown, len(self.messages))


class Compiler:
    """Compiles VHDL source into a design library.

    ``tracer`` (an unbounded :class:`repro.trace.SpanRecorder`)
    accumulates phase spans across every ``compile`` call on this
    instance; ``observer`` (a :class:`repro.diag.AGObserver`)
    accumulates evaluation counters the same way, for the principal AG
    and the cascaded expression AG alike.  Both are created fresh when
    not supplied, so the plain one-shot API is unchanged.  ``werror``
    promotes warnings to errors at diagnostic-emission time.
    """

    def __init__(self, library=None, work="work", root=None,
                 tracer=None, observer=None, werror=False):
        self.library = library or LibraryManager(root=root, work=work)
        self.work = work
        self.tracer = tracer if tracer is not None else SpanRecorder()
        self.observer = observer if observer is not None else AGObserver()
        self.werror = werror
        # Force generation of the translator up front (the paper's
        # Linguist run happens before any compilation).
        with self.tracer.span("translator_generation"):
            principal_grammar()

    def compile(self, text, filename="<input>"):
        """Compile all design units in ``text``; returns a
        :class:`CompileResult` for every input.

        A lex, parse, circularity or evaluation error stops the
        compile: the result then has no units, its one message and
        diagnostic describe the error, and ``result.error`` holds the
        exception.
        """
        tracer = self.tracer
        engine = DiagnosticEngine(file=filename, werror=self.werror)
        cc = CompileCtx(self.library, self.work, filename=filename,
                        observer=self.observer)
        events_before = len(tracer)
        registered_before = len(self.library.compile_order)
        expr0 = cc.expr_eval.invocations
        try:
            units, messages = self._evaluate(text, filename, cc)
        except AGError as exc:
            return self._failed(exc, filename, events_before, text)
        expr_evals = cc.expr_eval.invocations - expr0

        # Back-end compile of the generated models (the host-compiler
        # phase of the paper's pipeline).
        with tracer.span("model_compile", file=filename):
            for unit in units:
                py = getattr(unit, "py_source", "")
                if py and "elaborate" in py:
                    try:
                        compile_model(py, getattr(unit, "name", "?"))
                    except SyntaxError as exc:
                        messages.append(
                            "internal: generated model for %s does "
                            "not compile: %s"
                            % (getattr(unit, "name", "?"), exc))

        engine.add_messages(messages, file=filename)
        source_lines = _count_lines(text)
        registered = self.library.compile_order[registered_before:]
        return CompileResult(
            units, messages, source_lines, expr_evals,
            registered_units=registered,
            diagnostics=engine.diagnostics,
            trace_events=tracer.events(since=events_before),
            ag_stats=self.observer,
            filename=filename,
            source=text,
        )

    def _failed(self, exc, filename, events_before, text=None):
        """The result of a compile that ``exc`` stopped: no units, no
        source lines, one message."""
        # The result outlives the compile, and the frames on the
        # tracebacks would keep the parse tree alive with it.
        drop_tracebacks(exc)
        engine = DiagnosticEngine(file=filename)
        engine.add_exception(exc, file=filename)
        return CompileResult(
            [], [str(exc)], 0, 0,
            diagnostics=engine.diagnostics,
            trace_events=self.tracer.events(since=events_before),
            ag_stats=self.observer, filename=filename, error=exc,
            source=text)

    def _evaluate(self, text, filename, cc):
        """Scan, parse and evaluate ``text``; returns the ``UNITS`` and
        ``MSGS`` goals as lists.

        The token list and the parse tree, with every attribute
        instance on it, are locals here, so they are freed when this
        returns: the back-end compile that follows runs on top of the
        units alone.
        """
        tracer = self.tracer
        grammar = principal_grammar()
        with tracer.span("scan", file=filename):
            tokens = scan(text, filename)
        with tracer.span("parse", file=filename):
            tree = grammar.parse(tokens, filename)
        with tracer.span("attribute_evaluation", file=filename):
            try:
                out = grammar.evaluate(
                    tree,
                    inherited={
                        "ENV": None,
                        "CC": cc,
                        "LEVEL": 0,
                        "RESULT": None,
                        "SCOPE": "",
                    },
                    goals=["UNITS", "MSGS"],
                    observer=self.observer,
                )
            finally:
                tree.release()
        return list(out["UNITS"]), list(out["MSGS"])

    def compile_file(self, path):
        """Compile the source file at ``path``.

        A file that cannot be read or decoded fails like a source the
        scanner rejects: a LEX001 diagnostic whose span names the file.
        """
        try:
            with open(path) as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            error = LexError("cannot read source: %s"
                             % (getattr(exc, "strerror", None) or exc),
                             file=path)
            return self._failed(error, path, len(self.tracer))
        return self.compile(text, filename=path)


def _count_lines(text):
    """Source lines stripped of blanks and comments (Figure 2's
    counting convention)."""
    n = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("--"):
            n += 1
    return n
