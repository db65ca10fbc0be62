"""Structured diagnostics and the collecting engine.

The seed compiler reported errors as bare strings (``"line 12: ..."``)
and raised on the first problem in strict mode.  Production front ends
do neither: they attach an error *code*, a severity, and a source
span to every message, and they *collect* so one run reports all
problems.  The Sasaki/Sassa systematic-debugging line of work
(PAPERS.md) argues the same for attribute grammars specifically —
anchored, machine-readable diagnostics are the debugging substrate.

:class:`Diagnostic` is the record; :class:`DiagnosticEngine` collects
them, promotes warnings under ``-Werror``, and adapts the legacy
string messages and exception types of :mod:`repro.ag` /
:mod:`repro.vhdl` into structured form so the whole pipeline can be
upgraded incrementally.
"""

import re

from .span import SourceSpan

# -- severities ---------------------------------------------------------------

NOTE = "note"
WARNING = "warning"
ERROR = "error"
FATAL = "fatal"

#: Ordering for "worst severity" comparisons.
SEVERITY_RANK = {NOTE: 0, WARNING: 1, ERROR: 2, FATAL: 3}

#: Default diagnostic codes by pipeline stage.
CODE_LEX = "LEX001"          # scanner rejected the input
CODE_PARSE = "PARSE001"      # parser rejected the token stream
CODE_SEM = "SEM001"          # semantic-rule diagnostic (MSGS attribute)
CODE_CIRC = "CIRC001"        # circular attribute dependency
CODE_EVAL = "EVAL001"        # a semantic rule raised
CODE_INTERNAL = "INT001"     # internal compiler error
CODE_BUILD = "BUILD001"      # build-driver level problem
CODE_LIB = "LIB001"          # corrupt library artifact quarantined

#: Human-readable one-liners for the SARIF rule table.
CODE_DESCRIPTIONS = {
    CODE_LEX: "input rejected by the generated scanner",
    CODE_PARSE: "input rejected by the generated LALR(1) parser",
    CODE_SEM: "semantic error reported by an attribute-grammar rule",
    CODE_CIRC: "circular attribute dependency",
    CODE_EVAL: "a semantic rule raised during attribute evaluation",
    CODE_INTERNAL: "internal compiler error",
    CODE_BUILD: "incremental build driver error",
    CODE_LIB: "corrupt design-library artifact moved to quarantine",
}


class Diagnostic:
    """One structured diagnostic.

    ``notes`` are free-text annotations; ``related`` is a list of
    ``(message, SourceSpan)`` pairs pointing at other source positions
    involved (the second declaration of a duplicate, the far end of a
    circular dependency, ...).
    """

    __slots__ = ("code", "severity", "message", "span", "notes",
                 "related")

    def __init__(self, code, severity, message, span=None, notes=(),
                 related=()):
        self.code = code
        self.severity = severity
        self.message = message
        self.span = span
        self.notes = list(notes)
        self.related = [(m, s) for m, s in related]

    # -- views -------------------------------------------------------------

    @property
    def rank(self):
        return SEVERITY_RANK.get(self.severity, SEVERITY_RANK[ERROR])

    def to_dict(self):
        out = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.span is not None:
            out["span"] = self.span.to_dict()
        if self.notes:
            out["notes"] = list(self.notes)
        if self.related:
            out["related"] = [
                {"message": m, "span": s.to_dict() if s else {}}
                for m, s in self.related
            ]
        return out

    @classmethod
    def from_dict(cls, d):
        return cls(
            d.get("code", CODE_SEM),
            d.get("severity", ERROR),
            d.get("message", ""),
            span=SourceSpan.from_dict(d.get("span")),
            notes=d.get("notes", ()),
            related=[
                (r.get("message", ""),
                 SourceSpan.from_dict(r.get("span")))
                for r in d.get("related", ())
            ],
        )

    def __str__(self):
        where = "%s: " % self.span if self.span is not None else ""
        return "%s%s[%s]: %s" % (where, self.severity, self.code,
                                 self.message)

    def __repr__(self):
        return "<Diagnostic %s>" % self


#: Legacy message shape emitted by the semantic rules:  ``line 12: ...``
#: (optionally ``line 12:5: ...``).  One regex adapts them all.
_LEGACY_RE = re.compile(r"^line (\d+)(?::(\d+))?: (.*)$", re.S)


def parse_legacy_message(text, file=None):
    """Adapt one legacy ``"line N: ..."`` string to a Diagnostic.

    Strings that do not match the legacy shape become span-less
    diagnostics anchored only to ``file``.  Messages starting with
    ``internal:`` are classified :data:`CODE_INTERNAL`.
    """
    text = str(text)
    span = SourceSpan(file=file)
    message = text
    m = _LEGACY_RE.match(text)
    if m is not None:
        line = int(m.group(1))
        column = int(m.group(2)) if m.group(2) else None
        span = SourceSpan(file=file, line=line, column=column or 1)
        message = m.group(3)
    code = CODE_SEM
    if message.startswith("internal:"):
        code = CODE_INTERNAL
    return Diagnostic(code, ERROR, message, span=span)


class DiagnosticEngine:
    """Collects diagnostics instead of raising on the first error.

    One engine per compilation (or per build).  ``werror`` promotes
    warnings to errors at emission time, so downstream consumers never
    need to know the flag existed.  ``max_errors`` caps collection the
    way production compilers do; further errors are counted but
    dropped.
    """

    def __init__(self, file=None, werror=False, max_errors=None):
        self.default_file = file
        self.werror = werror
        self.max_errors = max_errors
        self.diagnostics = []
        self.suppressed = 0

    # -- emission ----------------------------------------------------------

    def emit(self, diag):
        """Record one diagnostic (applying ``-Werror``); returns it."""
        if self.werror and diag.severity == WARNING:
            diag = Diagnostic(diag.code, ERROR,
                              diag.message + " [-Werror]",
                              span=diag.span, notes=diag.notes,
                              related=diag.related)
        if (self.max_errors is not None
                and diag.severity in (ERROR, FATAL)
                and self.error_count >= self.max_errors):
            self.suppressed += 1
            return diag
        self.diagnostics.append(diag)
        return diag

    def _make(self, severity, code, message, span, notes, related):
        if span is None:
            span = SourceSpan(file=self.default_file)
        elif span.file is None and self.default_file is not None:
            span = SourceSpan(self.default_file, span.line, span.column,
                              span.end_line, span.end_column)
        return self.emit(Diagnostic(code, severity, message, span=span,
                                    notes=notes, related=related))

    def error(self, code, message, span=None, notes=(), related=()):
        return self._make(ERROR, code, message, span, notes, related)

    def warning(self, code, message, span=None, notes=(), related=()):
        return self._make(WARNING, code, message, span, notes, related)

    def note(self, code, message, span=None, notes=(), related=()):
        return self._make(NOTE, code, message, span, notes, related)

    # -- adapters for the legacy error surface -----------------------------

    def add_messages(self, messages, file=None):
        """Adapt a list of legacy ``"line N: ..."`` strings."""
        file = file or self.default_file
        for text in messages:
            self.emit(parse_legacy_message(text, file=file))

    def add_exception(self, exc, file=None):
        """Adapt one pipeline exception into a diagnostic.

        Understands the span-carrying :class:`repro.ag.errors`
        hierarchy (ParseError/LexError line+column+file,
        CircularityError cycles) and falls back to a span-less error.
        """
        from ..ag.errors import (
            CircularityError, EvaluationError, LexError, ParseError,
        )

        file = getattr(exc, "file", None) or file or self.default_file
        line = getattr(exc, "line", None)
        column = getattr(exc, "column", None)
        span = SourceSpan(file=file, line=line, column=column)
        message = getattr(exc, "raw_message", None) or str(exc)
        if isinstance(exc, LexError):
            return self.error(CODE_LEX, message, span=span)
        if isinstance(exc, ParseError):
            return self.error(CODE_PARSE, message, span=span)
        if isinstance(exc, CircularityError):
            notes = []
            for node, attr in getattr(exc, "cycle", ()) or ():
                notes.append("on the cycle: %s.%s"
                             % (getattr(getattr(node, "symbol", None),
                                        "name", "?"), attr))
            return self.error(CODE_CIRC, str(exc), span=span,
                              notes=notes)
        if isinstance(exc, EvaluationError):
            return self.error(CODE_EVAL, str(exc), span=span)
        return self.error(CODE_INTERNAL, "%s: %s"
                          % (type(exc).__name__, exc), span=span)

    # -- queries -----------------------------------------------------------

    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self):
        return len(self.diagnostics)

    def count(self, severity):
        return sum(1 for d in self.diagnostics
                   if d.severity == severity)

    @property
    def error_count(self):
        return sum(1 for d in self.diagnostics
                   if d.severity in (ERROR, FATAL))

    @property
    def warning_count(self):
        return self.count(WARNING)

    @property
    def has_errors(self):
        return self.error_count > 0

    def sorted(self):
        """Diagnostics in (file, line, column) order, stable."""
        def key(pair):
            i, d = pair
            span = d.span or SourceSpan()
            return span.sort_key() + (i,)

        return [d for _, d in
                sorted(enumerate(self.diagnostics), key=key)]

    def summary(self):
        """``"2 error(s), 1 warning(s)"`` — the classic tail line."""
        parts = []
        for label, n in (("error", self.error_count),
                         ("warning", self.warning_count),
                         ("note", self.count(NOTE))):
            if n:
                parts.append("%d %s(s)" % (n, label))
        if self.suppressed:
            parts.append("%d suppressed" % self.suppressed)
        return ", ".join(parts) or "no diagnostics"
