"""Structured diagnostics and AG observability.

Two layers, one subsystem (phase spans live in :mod:`repro.trace`):

- :mod:`repro.diag.diagnostic` / :mod:`repro.diag.span` /
  :mod:`repro.diag.render` — structured, source-anchored diagnostics
  (error code, severity, file/line/column span, notes, related spans)
  collected by a :class:`DiagnosticEngine` and rendered as
  caret-annotated text, JSON lines, or SARIF 2.1.0.
- :mod:`repro.diag.observe` — :class:`AGObserver` counters for rule
  firings, demand-memo hits/misses, and visit-sequence visits, plus
  :func:`explain_cycle` for circularity post-mortems.
"""

from .diagnostic import (
    CODE_BUILD,
    CODE_CIRC,
    CODE_EVAL,
    CODE_INTERNAL,
    CODE_LEX,
    CODE_LIB,
    CODE_PARSE,
    CODE_SEM,
    ERROR,
    FATAL,
    NOTE,
    SEVERITY_RANK,
    WARNING,
    Diagnostic,
    DiagnosticEngine,
    parse_legacy_message,
)
from .observe import AGObserver, explain_cycle
from .render import (
    FORMATS,
    render,
    render_jsonl,
    render_sarif,
    render_text,
    sarif_run,
)
from .span import SourceSpan

__all__ = [
    "AGObserver",
    "CODE_BUILD",
    "CODE_CIRC",
    "CODE_EVAL",
    "CODE_INTERNAL",
    "CODE_LEX",
    "CODE_LIB",
    "CODE_PARSE",
    "CODE_SEM",
    "Diagnostic",
    "DiagnosticEngine",
    "ERROR",
    "FATAL",
    "FORMATS",
    "NOTE",
    "SEVERITY_RANK",
    "SourceSpan",
    "WARNING",
    "explain_cycle",
    "parse_legacy_message",
    "render",
    "render_jsonl",
    "render_sarif",
    "render_text",
    "sarif_run",
]
