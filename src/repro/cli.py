"""The script-driven user interface.

"The compiler is invoked by either a menu-based or script-driven user
interface" (§2).  This is the script-driven one::

    python -m repro compile design.vhd --root ./libs
    python -m repro compile a.vhd b.vhd --diag-format sarif
    python -m repro build pkg.vhd top.vhd --root ./libs --jobs 4 \
        --profile --trace-out build-trace.json
    python -m repro dump work rtl(counter) --root ./libs
    python -m repro simulate testbench --root ./libs --until 200ns \
        --trace clk --trace q
    python -m repro sim design.vhd --metrics-out m.json --top 5
    python -m repro stats --json
    python -m repro bench-check --baseline BENCH_simulation.json \
        --tolerance 0.15

Compile places successfully compiled units into the working library
(``--work``, default ``work``) under ``--root``; reference libraries
named with ``--ref`` can be read but never updated.

Observability flags (shared by ``compile`` and ``build``):
``--diag-format text|json|sarif`` selects the diagnostic rendering,
``--profile`` prints a per-phase wall-time table, ``--trace-out FILE``
writes a Chrome trace-event JSON (one merged timeline, one row per
build worker), ``-Werror`` promotes warnings to errors, and
``--explain-cycle`` pretty-prints attribute-dependency cycles.

Metrics flags (shared by ``compile``, ``build``, and ``simulate``):
``--metrics`` prints the registry summary, ``--metrics-out FILE``
writes the ``repro-metrics/1`` snapshot (``--metrics-format
prometheus`` switches to text exposition format).  ``simulate`` (alias
``sim``) additionally accepts a ``.vhd`` file instead of a unit name —
it compiles the file first so one snapshot covers compile → elaborate
→ simulate — and ``--top N`` prints the hot-process table.
"""

import argparse
import json
import os
import sys

from .sim import TIME_UNITS


def _parse_time(text):
    """'200ns' / '1 us' / '5000' (fs) -> femtoseconds."""
    text = text.strip().lower().replace(" ", "")
    for unit, scale in sorted(TIME_UNITS, key=lambda u: -len(u[0])):
        if text.endswith(unit):
            return int(float(text[: -len(unit)]) * scale)
    return int(text)


def _make_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AG-generated VHDL compiler and simulator "
                    "(PLDI 1989 reproduction)",
    )
    parser.add_argument("--root", default=None,
                        help="design-library directory (persistent)")
    parser.add_argument("--work", default="work",
                        help="working library name")
    parser.add_argument("--ref", action="append", default=[],
                        help="reference library (read-only)")
    parser.add_argument("--diag-format", default="text",
                        choices=("text", "json", "sarif"),
                        help="diagnostic rendering: caret-annotated "
                             "text, JSON lines, or SARIF 2.1.0")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-phase wall-time profile")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Chrome trace-event JSON "
                             "(implies trace collection)")
    parser.add_argument("-W", "--werror", dest="werror",
                        action="store_true",
                        help="treat warnings as errors (-Werror)")
    parser.add_argument("--explain-cycle", action="store_true",
                        help="pretty-print attribute dependency "
                             "cycles with production context")
    metrics_args = argparse.ArgumentParser(add_help=False)
    metrics_args.add_argument(
        "--metrics", action="store_true",
        help="collect a metrics registry and print its summary")
    metrics_args.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the repro-metrics/1 snapshot "
             "(implies metrics collection)")
    metrics_args.add_argument(
        "--metrics-format", default="json",
        choices=("json", "prometheus"),
        help="snapshot encoding for --metrics-out")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", parents=[metrics_args],
                       help="compile VHDL source files")
    p.add_argument("files", nargs="+")
    p.add_argument("--keep-going", action="store_true",
                   help="report diagnostics without failing")

    p = sub.add_parser(
        "build", parents=[metrics_args],
        help="incremental parallel build (skips unchanged files)")
    p.add_argument("files", nargs="+")
    p.add_argument("--jobs", "-j", type=int, default=1,
                   help="compile independent files with N workers")
    p.add_argument("--force", action="store_true",
                   help="rebuild everything, ignoring the cache")
    p.add_argument("--no-stats", action="store_true",
                   help="suppress the cache-stats report line")
    p.add_argument("--lint", action="store_true",
                   help="run the static design linter over every "
                        "unit the build produced")

    p = sub.add_parser(
        "lint", parents=[metrics_args],
        help="static design lint over compiled units (RPL rules) "
             "and attribute grammars (RPA rules)")
    p.add_argument("paths", nargs="*",
                   help=".vhd files or directories to compile and "
                        "lint (in-memory; the on-disk library is "
                        "not touched)")
    p.add_argument("--select", action="append", default=[],
                   metavar="PREFIX",
                   help="only run rules whose id starts with PREFIX "
                        "(repeatable; default: all rules)")
    p.add_argument("--ignore", action="append", default=[],
                   metavar="PREFIX",
                   help="skip rules whose id starts with PREFIX "
                        "(repeatable)")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="suppress findings recorded in this "
                        "repro-lint-baseline/1 file")
    p.add_argument("--write-baseline", default=None, metavar="FILE",
                   help="record current findings as the accepted "
                        "baseline and exit 0")
    p.add_argument("--format", dest="lint_format", default=None,
                   choices=("text", "json", "sarif"),
                   help="finding rendering (default: --diag-format)")
    p.add_argument("--ag", action="append", default=[],
                   choices=("principal", "expr"),
                   help="also lint a built-in attribute grammar "
                        "(RPA rules; repeatable)")

    p = sub.add_parser(
        "analyze", parents=[metrics_args],
        help="whole-design dataflow analysis over the elaborated "
             "design (RPE rules: combinational loops, drive races, "
             "cross-clock transfers, dead cones) plus the "
             "repro-levels/1 levelization artifact")
    p.add_argument("paths", nargs="*",
                   help=".vhd files or directories; without --top "
                        "each file is analyzed as an independent "
                        "design (its repro-fuzz header or last "
                        "entity picks the top)")
    p.add_argument("--top", default=None,
                   help="treat all files as one design and analyze "
                        "this entity/configuration (also usable "
                        "with --root and no files)")
    p.add_argument("--arch", default=None,
                   help="architecture of --top (default: latest)")
    p.add_argument("--select", action="append", default=[],
                   metavar="PREFIX",
                   help="only run rules whose id starts with PREFIX "
                        "(repeatable; default: all design rules)")
    p.add_argument("--ignore", action="append", default=[],
                   metavar="PREFIX",
                   help="skip rules whose id starts with PREFIX "
                        "(repeatable)")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="suppress findings recorded in this "
                        "repro-lint-baseline/1 file")
    p.add_argument("--write-baseline", default=None, metavar="FILE",
                   help="record current findings as the accepted "
                        "baseline and exit 0")
    p.add_argument("--format", dest="lint_format", default=None,
                   choices=("text", "json", "sarif"),
                   help="finding rendering (default: --diag-format)")
    p.add_argument("--levels-out", default=None, metavar="FILE",
                   help="write the repro-levels/1 levelization "
                        "artifact (single-design runs only)")

    p = sub.add_parser("dump", help="human-readable VIF of a unit")
    p.add_argument("library")
    p.add_argument("unit")

    p = sub.add_parser("list", help="list units in the library")

    p = sub.add_parser("simulate", aliases=["sim"],
                       parents=[metrics_args],
                       help="elaborate and run a design")
    p.add_argument("top", help="entity or configuration name, or a "
                               ".vhd file to compile first")
    p.add_argument("--arch", default=None)
    p.add_argument("--until", default="1us",
                   help="simulation time, e.g. 200ns")
    p.add_argument("--trace", action="append", default=[],
                   help="signal suffix to trace (repeatable)")
    p.add_argument("--vcd", default=None,
                   help="write a VCD file of the traced signals")
    p.add_argument("--top", dest="top_n", type=int, default=None,
                   metavar="N",
                   help="print the N hottest processes (resumes, "
                        "wall clock, sensitivity)")
    p.add_argument("--analyze", action="store_true",
                   help="run the elaborated-design analyzer as a "
                        "pre-flight; error-severity findings "
                        "(combinational loops, unresolved drive "
                        "races) abort before the kernel runs")
    p.add_argument("--backend", default="event",
                   choices=("event", "compiled", "scan"),
                   help="simulation backend: the activity kernel "
                        "(default), the per-design compiled backend, "
                        "or the O(design) reference scan")

    p = sub.add_parser("stats", help="print the AG-statistics table")
    p.add_argument("--json", dest="as_json", action="store_true",
                   help="emit the §4.1 table as JSON in the "
                        "repro-metrics/1 envelope (CI trend "
                        "tracking)")
    p.add_argument("--format", dest="stats_format", default=None,
                   choices=("table", "json", "prometheus"),
                   help="output encoding: human table (default), "
                        "repro-metrics/1 JSON, or Prometheus text "
                        "exposition (scrape-file friendly)")

    p = sub.add_parser(
        "serve",
        help="long-lived compile/lint/sim service over HTTP/JSON "
             "(batched builds, per-session work libraries, live "
             "/metrics)")
    p.add_argument("--host", default="127.0.0.1",
                   help="interface to bind (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8017,
                   help="TCP port (0 picks a free one; default 8017)")
    p.add_argument("--workers", type=int, default=2,
                   help="job worker threads / build fork width")
    p.add_argument("--ref-library", default=None, metavar="PATH[:NAME]",
                   help="shared read-only reference library: a root "
                        "built with `repro build --root PATH --work "
                        "NAME` (NAME defaults to 'ref')")
    p.add_argument("--state-dir", default=None, metavar="DIR",
                   help="where session workspaces live (default: a "
                        "private temp dir, removed at shutdown)")

    p = sub.add_parser(
        "fuzz", parents=[metrics_args],
        help="generative conformance sweep: seeded random designs "
             "through compile + lint + differential simulation "
             "(Kernel vs ScanKernel)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed of the sweep (default 0)")
    p.add_argument("--budget", type=int, default=50, metavar="N",
                   help="number of designs to generate and check "
                        "(default 50)")
    p.add_argument("--jobs", "-j", type=int, default=1,
                   help="check designs with N forked workers; "
                        "results are byte-identical to -j1")
    p.add_argument("--shrink", dest="shrink", action="store_true",
                   default=True,
                   help="minimize failing designs with the "
                        "decision-tape reducer (default)")
    p.add_argument("--no-shrink", dest="shrink",
                   action="store_false",
                   help="report failures without minimizing them")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="persist every minimized failure (after a "
                        "fix: its passing design) into DIR as "
                        "replayable .vhd corpus entries")
    p.add_argument("--format", default="text",
                   choices=("text", "json"),
                   help="report encoding (json prints the full "
                        "repro-metrics/1 fuzz-report envelope)")
    p.add_argument("--analyze", action="store_true",
                   help="also run the elaborated-design analyzer on "
                        "every generated design: analyzer crashes "
                        "and RPE001 findings on quiescent designs "
                        "are sweep failures")
    p.add_argument("--compiled", action="store_true",
                   help="add the compiled backend as a third "
                        "differential leg: every design must be "
                        "byte-identical across Kernel, ScanKernel, "
                        "and CompiledKernel")

    p = sub.add_parser(
        "bench-check",
        help="perf-regression gate: compare a fresh benchmark run "
             "against a committed BENCH_*.json baseline")
    p.add_argument("--baseline", required=True, action="append",
                   metavar="FILE",
                   help="committed baseline (repeatable)")
    p.add_argument("--tolerance", type=float, default=0.15,
                   help="relative tolerance for max/min/ratio "
                        "checks (default 0.15)")
    p.add_argument("--current", default=None, metavar="FILE",
                   help="compare against this bench JSON instead of "
                        "re-running the scenario")
    p.add_argument("--update", action="store_true",
                   help="rewrite the baseline from a fresh run "
                        "instead of checking")

    p = sub.add_parser(
        "trace",
        help="analyze span trees: merge Chrome-trace / span-JSONL "
             "files, render the tree, list the slowest spans, or "
             "roll time up per phase path")
    p.add_argument("traces", nargs="+", metavar="FILE",
                   help="Chrome trace JSON (or a /trace dump / "
                        "span JSONL) files to merge and analyze")
    p.add_argument("--view", default="tree",
                   choices=("tree", "slowest", "rollup", "summary"),
                   help="tree: indented span forest; slowest: top "
                        "spans by duration; rollup: flame-style "
                        "per-path totals; summary: connectivity "
                        "report as JSON")
    p.add_argument("--trace-id", default=None, metavar="ID",
                   help="restrict the analysis to one trace")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="cap the rows/spans printed")
    p.add_argument("--merge-out", default=None, metavar="FILE",
                   help="also write the merged events as one Chrome "
                        "trace JSON")
    return parser


def _library(args):
    from .vhdl.library import LibraryManager

    return LibraryManager(root=args.root, work=args.work,
                          reference_libs=tuple(args.ref))


def _wants_metrics(args):
    return bool(getattr(args, "metrics", False)
                or getattr(args, "metrics_out", None)
                or getattr(args, "top_n", None) is not None)


def _registry_for(args):
    """A live registry when any metrics flag asks for one, else the
    zero-overhead null registry."""
    from .metrics import NULL_REGISTRY, MetricsRegistry

    return MetricsRegistry() if _wants_metrics(args) else NULL_REGISTRY


def _emit_metrics(registry, args, out, title="metrics"):
    """Print/write the snapshot as the metrics flags request."""
    if args.metrics:
        out(registry.summary(title))
    if args.metrics_out:
        if args.metrics_format == "prometheus":
            text = registry.render_prometheus()
        else:
            text = json.dumps(registry.snapshot(), indent=1,
                              sort_keys=True) + "\n"
        tmp = "%s.tmp.%d" % (args.metrics_out, os.getpid())
        with open(tmp, "w") as f:
            f.write(text)
        os.replace(tmp, args.metrics_out)
        out("metrics snapshot written to %s" % args.metrics_out)


def _emit_trace(tracer, args, out, default_path=None):
    """Write the Chrome trace when requested; report where it went."""
    path = args.trace_out
    if path is None and args.profile:
        path = default_path
    if path:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        tracer.write(path)
        out("trace written to %s" % path)


def cmd_compile(args, out):
    from .ag.errors import CircularityError
    from .diag import explain_cycle, render
    from .vhdl.compiler import CompileError, Compiler

    compiler = Compiler(library=_library(args), work=args.work,
                        strict=False, werror=args.werror)
    failures = 0
    all_diags = []
    # Corrupt artifacts the library load moved aside surface as
    # structured LIB001 warnings, not silent state.
    for diag in compiler.library.quarantine_diagnostics():
        out(str(diag))
        all_diags.append(diag)
    for path in args.files:
        try:
            result = compiler.compile_file(path)
        except CompileError as exc:
            # Scan/parse failures abort one file, not the whole run.
            out("%s: %d error(s)" % (path, len(exc.messages)))
            for message in exc.messages:
                out("  %s" % message)
            cause = exc.__cause__
            if args.explain_cycle and isinstance(cause,
                                                 CircularityError):
                out(explain_cycle(cause))
            all_diags.extend(exc.diagnostics)
            failures += 1
            continue
        status = "ok" if result.ok else "%d error(s)" % len(
            result.messages)
        out("%s: %s (%d lines, units: %s)" % (
            path, status, result.source_lines,
            ", ".join(result.unit_names()) or "none"))
        for message in result.messages:
            out("  %s" % message)
        all_diags.extend(result.diagnostics)
        if not result.ok:
            failures += 1
    if args.diag_format != "text" and all_diags:
        out(render(all_diags, args.diag_format))
    if args.profile:
        out(compiler.tracer.summary("compile profile"))
        out(compiler.observer.summary())
    _emit_trace(compiler.tracer, args, out,
                default_path=os.path.join(
                    "bench-out", "repro-compile-trace.json"))
    if _wants_metrics(args):
        from .metrics.bridge import bridge_observer, bridge_tracer

        registry = _registry_for(args)
        bridge_observer(registry, compiler.observer)
        bridge_tracer(registry, compiler.tracer, prefix="compile")
        _emit_metrics(registry, args, out, "compile metrics")
    if args.werror and any(
            "[-Werror]" in d.message for d in all_diags):
        failures = failures or 1
    return 1 if failures and not args.keep_going else 0


def cmd_build(args, out):
    from .build import BuildError, IncrementalBuilder
    from .diag import Tracer, render

    if args.root is None:
        out("build: a persistent --root is required "
            "(the cache lives in <root>/build.state.json)")
        return 2
    try:
        builder = IncrementalBuilder(
            args.root, work=args.work,
            reference_libs=tuple(args.ref), jobs=args.jobs)
        lint_engine = None
        if args.lint:
            from .analysis import LintEngine

            lint_engine = LintEngine(work=args.work)
        report = builder.build(args.files, force=args.force,
                               lint=lint_engine)
    except BuildError as exc:
        out("build: %s" % exc)
        return 2
    for path in report.order:
        action = report.actions[path]
        reason = report.reasons.get(path, "")
        out("%-8s %s%s" % (action, path,
                           "  (%s)" % reason if reason else ""))
        for message in report.messages.get(path, ()):
            out("  %s" % message)
    if not args.no_stats:
        s = report.stats
        out("cache: %d hit(s), %d miss(es), %d invalidated, "
            "%d AG evaluation(s), jobs=%d"
            % (s.get("hits", 0), s.get("misses", 0),
               s.get("invalidated", 0), s.get("ag_evaluations", 0),
               report.jobs))
    lint_errors = 0
    if args.lint:
        from .diag import DiagnosticEngine

        diag_engine = DiagnosticEngine(werror=args.werror)
        for diag in report.lint_findings:
            diag_engine.emit(diag)
        for diag in diag_engine.sorted():
            out(str(diag))
        lint_errors = diag_engine.error_count
        out("lint: %s" % diag_engine.summary())
    diags = report.all_diagnostics()
    if args.diag_format != "text" and diags:
        out(render(diags, args.diag_format))
    tracer = Tracer()
    tracer.add_events(report.trace_events)
    if args.profile:
        out(tracer.summary("build profile"))
        firings = report.ag_stats.get("total_firings", 0)
        if firings:
            out("AG evaluation: %d rule firing(s) across workers"
                % firings)
    _emit_trace(tracer, args, out,
                default_path=os.path.join(args.root,
                                          "build-trace.json"))
    if _wants_metrics(args):
        from .metrics.bridge import bridge_build_report

        registry = _registry_for(args)
        bridge_build_report(registry, report)
        _emit_metrics(registry, args, out, "build metrics")
    return 0 if report.ok and not lint_errors else 1


def _collect_vhdl_paths(paths, out):
    """Expand files/directories into a sorted list of VHDL sources."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith((".vhd", ".vhdl")):
                        files.append(os.path.join(dirpath, name))
        elif os.path.isfile(path):
            files.append(path)
        else:
            out("lint: no such file or directory: %s" % path)
            return None
    return files


def _builtin_ag(name):
    """The built-in grammars ``repro lint --ag`` can check, with
    their evaluation-entry exemptions."""
    if name == "principal":
        from .vhdl.grammar import principal_grammar

        return (principal_grammar(),
                ("ENV", "CC", "LEVEL", "RESULT", "SCOPE"),
                ("UNITS", "MSGS"))
    from .vhdl.expr_grammar import expr_grammar

    return expr_grammar(), ("ENV", "CTX"), ("GOAL",)


def cmd_lint(args, out):
    from .analysis import (
        LintEngine,
        apply_baseline,
        load_baseline,
        write_baseline,
    )
    from .diag import DiagnosticEngine, render
    from .vhdl.compiler import CompileError, Compiler

    fmt = args.lint_format or args.diag_format
    registry = _registry_for(args)
    files = _collect_vhdl_paths(args.paths, out)
    if files is None:
        return 2
    if not files and not args.ag:
        out("lint: nothing to lint (no .vhd files, no --ag)")
        return 2

    # Compile into an in-memory library: lint is a read-only check
    # and must not disturb the persistent design library.
    from .vhdl.library import LibraryManager

    library = LibraryManager(root=None, work=args.work,
                             reference_libs=tuple(args.ref))
    compiler = Compiler(library=library, work=args.work, strict=False)
    sources = {}
    compile_failed = False
    for path in files:
        try:
            result = compiler.compile_file(path)
        except CompileError as exc:
            out("%s: %d error(s)" % (path, len(exc.messages)))
            for message in exc.messages:
                out("  %s" % message)
            compile_failed = True
            continue
        try:
            with open(path) as fh:
                sources[path] = fh.read()
        except OSError:
            pass
        if not result.ok:
            out("%s: %d error(s)" % (path, len(result.messages)))
            for message in result.messages:
                out("  %s" % message)
            compile_failed = True
    if compile_failed:
        out("lint: compilation failed; fix compile errors first")
        return 2

    engine = LintEngine(library=library, work=args.work,
                        select=args.select, ignore=args.ignore,
                        metrics=registry)
    findings = engine.lint_library() if files else []
    for name in args.ag:
        compiled, entry, goals = _builtin_ag(name)
        findings.extend(engine.lint_ag(
            compiled, entry_inherited=entry, goals=goals))

    if args.write_baseline:
        n = write_baseline(args.write_baseline, findings)
        out("lint baseline written to %s (%d finding(s))"
            % (args.write_baseline, n))
        _emit_metrics(registry, args, out, "lint metrics")
        return 0

    suppressed = []
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            out("lint: cannot load baseline: %s" % exc)
            return 2
        findings, suppressed = apply_baseline(findings, baseline)

    # Route through a DiagnosticEngine so -Werror promotion and
    # severity accounting match the compiler's own pipeline.
    diag_engine = DiagnosticEngine(werror=args.werror)
    for diag in findings:
        diag_engine.emit(diag)
    ordered = diag_engine.sorted()
    if ordered or fmt == "sarif":
        out(render(ordered, fmt, sources=sources))
    tail = "lint: %s" % diag_engine.summary()
    if suppressed:
        tail += ", %d baseline-suppressed" % len(suppressed)
    tail += " (%d unit(s) checked)" % len(
        [k for k in library._units if k[0] == args.work])
    out(tail)
    _emit_metrics(registry, args, out, "lint metrics")
    return 1 if ordered else 0


def _analyze_header_meta(path):
    """The ``-- repro-fuzz:`` header of a file, if any (corpus
    entries pin their top entity and expected outcome there)."""
    from .gen import corpus as corpus_store

    meta = {}
    try:
        with open(path) as fh:
            for line in fh:
                stripped = line.strip()
                if stripped.startswith(corpus_store.HEADER_PREFIX):
                    rest = stripped[
                        len(corpus_store.HEADER_PREFIX):].strip()
                    for key, value in corpus_store._KV.findall(rest):
                        meta[key] = value
                elif stripped and not stripped.startswith("--"):
                    break
    except OSError:
        pass
    return meta


def cmd_analyze(args, out):
    """Whole-design analysis: elaborate, flatten, run the RPE rules.

    Exit codes mirror ``lint``: 0 clean (notes allowed), 1 new
    warning-or-worse findings, 2 compile/elaboration/usage trouble.
    Files carrying a ``-- repro-fuzz: expect=`` header other than
    ``ok`` are analyzed for information only: the corpus pins known
    failures (multi-driver races above all) whose findings are
    expected, so they never gate.
    """
    from .analysis import (
        LintEngine,
        apply_baseline,
        build_netlist,
        levels_artifact,
        load_baseline,
        write_baseline,
    )
    from .diag import DiagnosticEngine, render
    from .vhdl.compiler import CompileError, Compiler
    from .vhdl.elaborate import ElaborationError, Elaborator
    from .vhdl.library import LibraryManager
    from .vhdl.symtab import entry_kind

    fmt = args.lint_format or args.diag_format
    # With --format sarif, stdout must be the SARIF document and
    # nothing else (CI redirects it straight into an artifact), so
    # every human-facing line moves to stderr.
    if fmt == "sarif":
        def say(line):
            print(line, file=sys.stderr)
    else:
        say = out
    registry = _registry_for(args)
    files = _collect_vhdl_paths(args.paths, say)
    if files is None:
        return 2
    if not files and not (args.top and args.root):
        say("analyze: nothing to analyze (no .vhd files; use --top "
            "with --root to analyze a built library)")
        return 2

    # Each job: (label, library, top, arch, expect, sources)
    jobs = []
    if args.top and files:
        # All files form one design.
        library = LibraryManager(root=None, work=args.work,
                                 reference_libs=tuple(args.ref))
        compiler = Compiler(library=library, work=args.work,
                            strict=False)
        sources = {}
        for path in files:
            try:
                result = compiler.compile_file(path)
            except CompileError as exc:
                say("%s: %d error(s)" % (path, len(exc.messages)))
                for message in exc.messages:
                    say("  %s" % message)
                return 2
            if not result.ok:
                say("%s: %d error(s)" % (path, len(result.messages)))
                for message in result.messages:
                    say("  %s" % message)
                return 2
            try:
                with open(path) as fh:
                    sources[path] = fh.read()
            except OSError:
                pass
        jobs.append((args.top, library, args.top, args.arch, "ok",
                     sources))
    elif args.top:
        jobs.append((args.top, _library(args), args.top, args.arch,
                     "ok", {}))
    else:
        # Each file is an independent design.
        for path in files:
            meta = _analyze_header_meta(path)
            expect = meta.get("expect", "ok")
            library = LibraryManager(root=None, work=args.work,
                                     reference_libs=tuple(args.ref))
            compiler = Compiler(library=library, work=args.work,
                                strict=False)
            try:
                result = compiler.compile_file(path)
                ok = result.ok
                messages = result.messages
            except CompileError as exc:
                ok = False
                messages = exc.messages
            if not ok:
                if expect == "rejected":
                    say("%s: does not compile (expected; skipped)"
                        % path)
                    continue
                say("%s: %d error(s)" % (path, len(messages)))
                for message in messages:
                    say("  %s" % message)
                return 2
            top = meta.get("top")
            if top is None:
                entities = [u.name for u in result.units
                            if entry_kind(u) == "entity"]
                if not entities:
                    say("%s: no entity to analyze; skipped" % path)
                    continue
                top = entities[-1]
            sources = {}
            try:
                with open(path) as fh:
                    sources[path] = fh.read()
            except OSError:
                pass
            jobs.append((path, library, top, None, expect, sources))

    if args.levels_out and len(jobs) != 1:
        say("analyze: --levels-out needs exactly one design "
            "(got %d)" % len(jobs))
        return 2

    gating = []       # findings that count toward the exit code
    informational = []  # findings on expected-failure designs
    all_sources = {}
    engine = LintEngine(library=None, work=args.work,
                        select=args.select, ignore=args.ignore,
                        metrics=registry)
    designs_analyzed = 0
    for label, library, top, arch, expect, sources in jobs:
        engine.context.library = library
        try:
            elab = Elaborator(library)
            sim = elab.elaborate(top, arch_name=arch)
        except ElaborationError as exc:
            if expect != "ok":
                say("%s: does not elaborate (expected; skipped): %s"
                    % (label, exc))
                continue
            say("analyze: %s: elaboration failed: %s" % (label, exc))
            return 2
        graph = build_netlist(sim.records)
        findings = engine.lint_design(graph)
        designs_analyzed += 1
        all_sources.update(sources)
        if expect == "ok":
            gating.extend(findings)
        else:
            informational.extend(findings)
        if args.levels_out:
            artifact = levels_artifact(graph)
            parent = os.path.dirname(args.levels_out)
            if parent:
                os.makedirs(parent, exist_ok=True)
            tmp = "%s.tmp.%d" % (args.levels_out, os.getpid())
            with open(tmp, "w") as fh:
                json.dump(artifact, fh, indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, args.levels_out)
            say("levelization artifact written to %s "
                "(%d level(s), %d cyclic signal(s))"
                % (args.levels_out,
                   len(artifact["levels"]),
                   len(artifact["cyclic"])))

    if args.write_baseline:
        n = write_baseline(args.write_baseline, gating)
        say("analyze baseline written to %s (%d finding(s))"
            % (args.write_baseline, n))
        _emit_metrics(registry, args, say, "analyze metrics")
        return 0

    suppressed = []
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            say("analyze: cannot load baseline: %s" % exc)
            return 2
        if baseline.deprecated_absolute:
            say("analyze: baseline %s has %d absolute-path entr%s "
                "(deprecated; rewrite with --write-baseline for a "
                "checkout-portable baseline)"
                % (args.baseline, baseline.deprecated_absolute,
                   "y" if baseline.deprecated_absolute == 1
                   else "ies"))
        gating, suppressed = apply_baseline(gating, baseline)

    diag_engine = DiagnosticEngine(werror=args.werror)
    for diag in gating:
        diag_engine.emit(diag)
    for diag in informational:
        diag_engine.emit(diag)
    ordered = diag_engine.sorted()
    if ordered or fmt == "sarif":
        out(render(ordered, fmt, sources=all_sources))
    blocking = [d for d in gating
                if d.severity not in ("note",)]
    tail = "analyze: %s" % diag_engine.summary()
    if suppressed:
        tail += ", %d baseline-suppressed" % len(suppressed)
    if informational:
        tail += ", %d on expected-failure designs (not gating)" \
            % len(informational)
    tail += " (%d design(s) analyzed)" % designs_analyzed
    say(tail)
    _emit_metrics(registry, args, say, "analyze metrics")
    return 1 if blocking else 0


def cmd_dump(args, out):
    lib = _library(args)
    out(lib.dump_vif(args.library, args.unit))
    return 0


def cmd_list(args, out):
    lib = _library(args)
    for libname, key in lib.compile_order:
        out("%s.%s" % (libname, key))
    return 0


def cmd_simulate(args, out):
    from contextlib import nullcontext

    from .sim import CompiledKernel, Kernel, ScanKernel
    from .sim.tracing import Tracer, format_fs
    from .vhdl.elaborate import Elaborator

    registry = _registry_for(args)
    span_tracer = None
    if args.trace_out or args.profile:
        from .diag.trace import Tracer as SpanTracer

        span_tracer = SpanTracer()

    def _span(name, **spargs):
        if span_tracer is None:
            return nullcontext()
        return span_tracer.phase(name, cat="cli", **spargs)

    # Sampled kernel spans (every 100th timestep / resume) keep the
    # trace readable on long runs while still exposing the §2.2-style
    # where-did-the-time-go breakdown down to delta cycles.
    backend = getattr(args, "backend", "event") or "event"
    kernel_cls = {"event": Kernel, "compiled": CompiledKernel,
                  "scan": ScanKernel}[backend]
    kernel = kernel_cls(metrics=registry, trace=span_tracer,
                        trace_sample=100)
    top = args.top
    compiler = None
    if top.endswith((".vhd", ".vhdl")) or os.path.isfile(top):
        # A source file: compile it first, then simulate its last
        # entity — one metrics snapshot covers compile → elaborate →
        # simulate.
        from .vhdl.compiler import CompileError, Compiler
        from .vhdl.symtab import entry_kind

        compiler = Compiler(library=_library(args), work=args.work,
                            strict=False, werror=args.werror)
        try:
            result = compiler.compile_file(top)
        except CompileError as exc:
            out("%s: %d error(s)" % (top, len(exc.messages)))
            for message in exc.messages:
                out("  %s" % message)
            return 1
        if not result.ok:
            out("%s: %d error(s)" % (top, len(result.messages)))
            for message in result.messages:
                out("  %s" % message)
            return 1
        entities = [u.name for u in result.units
                    if entry_kind(u) == "entity"]
        if not entities:
            out("%s: no entity to simulate" % top)
            return 1
        library = compiler.library
        top = entities[-1]
    else:
        library = _library(args)
    with _span("sim", top=str(top)):
        with _span("elaborate"):
            elab = Elaborator(library, kernel=kernel)
            sim = elab.elaborate(top, arch_name=args.arch)
        graph = None
        if args.analyze:
            # Pre-flight: the whole-design analyzer sees the same
            # elaborated hierarchy the kernel is about to run; an
            # error-severity finding (combinational loop, unresolved
            # drive race) would hang or abort the simulation anyway,
            # so fail fast with the structured diagnostic instead.
            from .analysis import LintEngine, build_netlist
            from .diag import render as render_findings

            with _span("analyze"):
                graph = build_netlist(sim.records)
                findings = LintEngine(
                    library=library, work=args.work,
                    metrics=registry).lint_design(graph)
            if findings:
                out(render_findings(findings, args.diag_format))
            blocking = [d for d in findings
                        if d.severity in ("error", "fatal")]
            if blocking:
                out("sim: analyze pre-flight found %d blocking "
                    "finding(s); not starting the kernel"
                    % len(blocking))
                return 1
        if backend == "compiled":
            # Specialize before the first cycle; the --analyze
            # pre-flight's DesignGraph (if any) is threaded through so
            # the netlist is extracted exactly once.
            with _span("codegen"):
                kernel.compile_design(sim.records, graph=graph)
            out("codegen: %d/%d process(es) compiled, %d slot "
                "signal(s), %.1f ms"
                % (kernel.compiled_procs, len(kernel.processes),
                   kernel.slot_signals,
                   kernel.codegen_seconds * 1e3))
        tracer = None
        if args.trace or args.vcd:
            signals = []
            for suffix in args.trace or ["*"]:
                for path in sim.names.by_suffix(suffix):
                    if sim.names.kind_of(path) == "signal":
                        signals.append(sim.names.lookup(path))
            tracer = Tracer(sim.kernel, signals or None)
        until = _parse_time(args.until)
        with _span("kernel_run"):
            end = sim.run(until_fs=until)
    out("simulation stopped at %s (%d cycles)"
        % (format_fs(end), sim.kernel.cycles))
    for path, sig in sim.names.signals():
        out("  %-30s = %s" % (path, sig.image(sig.value)))
    if tracer is not None and args.vcd:
        with open(args.vcd, "w") as f:
            f.write(tracer.vcd())
        out("VCD written to %s" % args.vcd)
    if _wants_metrics(args):
        from .metrics.bridge import (
            bridge_kernel,
            bridge_observer,
            bridge_tracer,
            format_calendar_stats,
            format_hot_processes,
        )

        bridge_kernel(registry, kernel)
        if compiler is not None:
            bridge_observer(registry, compiler.observer)
            bridge_tracer(registry, compiler.tracer,
                          prefix="compile")
        out(format_hot_processes(
            kernel, args.top_n if args.top_n is not None else 5))
        out(format_calendar_stats(kernel))
        _emit_metrics(registry, args, out, "simulation metrics")
    if span_tracer is not None:
        if compiler is not None:
            # One merged trace: compile phases + elaboration + the
            # sampled kernel timeline.
            span_tracer.add_events(compiler.tracer.events)
        if args.profile:
            out(span_tracer.summary("sim profile"))
        _emit_trace(span_tracer, args, out,
                    default_path=os.path.join(
                        "bench-out", "repro-sim-trace.json"))
    return 0


def cmd_stats(args, out):
    from .ag import format_table
    from .vhdl.expr_grammar import expr_grammar
    from .vhdl.grammar import principal_grammar

    stats = [
        principal_grammar().statistics(),
        expr_grammar().statistics(),
    ]
    fmt = args.stats_format or (
        "json" if getattr(args, "as_json", False) else "table")
    if fmt == "json":
        from .metrics import envelope

        out(json.dumps(
            envelope("ag-stats",
                     grammars=[s.as_dict() for s in stats]),
            indent=2, sort_keys=True))
        return 0
    if fmt == "prometheus":
        from .metrics import MetricsRegistry

        registry = MetricsRegistry()
        for s in stats:
            d = s.as_dict()
            name = d.pop("name")
            for key, value in d.items():
                registry.gauge(
                    "ag_grammar_%s" % key,
                    "attribute-grammar statistic: %s (paper §4.1)"
                    % key,
                ).labels(grammar=name).set(value)
        out(registry.render_prometheus().rstrip("\n"))
        return 0
    out(format_table(stats))
    return 0


def cmd_serve(args, out):
    import asyncio
    import signal

    from .serve import ServeServer
    from .serve.session import SessionError

    try:
        server = ServeServer(
            host=args.host, port=args.port,
            state_dir=args.state_dir, ref_library=args.ref_library,
            workers=args.workers)
    except SessionError as exc:
        out("serve: %s" % exc)
        return 2

    async def main():
        await server.start()
        out("repro serve: listening on %s (workers=%d%s)"
            % (server.url, args.workers,
               ", ref-library %s" % args.ref_library
               if args.ref_library else ""))
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # non-POSIX loop
                pass
        await stop.wait()
        out("repro serve: draining in-flight jobs ...")
        await server.stop()
        out("repro serve: shutdown complete (%d request(s) served)"
            % server.app.total_requests())

    asyncio.run(main())
    return 0


def cmd_fuzz(args, out):
    """Exit 0 on a clean sweep, 1 when any design diverged/crashed,
    2 on usage errors — mirroring the compile-command convention."""
    from .gen import corpus as corpus_store
    from .gen.runner import run_sweep

    if args.budget < 1:
        out("fuzz: --budget must be at least 1")
        return 2
    registry = _registry_for(args)
    report = run_sweep(
        args.seed, args.budget, jobs=args.jobs,
        shrink_failures=args.shrink, metrics=registry,
        analyze=args.analyze, compiled=args.compiled)

    if args.format == "json":
        out(json.dumps(report.as_envelope(), indent=1,
                       sort_keys=True))
    else:
        parts = ["%s=%d" % (k, v)
                 for k, v in sorted(report.counts.items())]
        out("fuzz: seed=%d budget=%d jobs=%d: %s (%.1f designs/s)"
            % (report.seed, report.budget, report.jobs,
               " ".join(parts) or "nothing ran",
               report.designs_per_second))
        for failure in report.failures:
            tag = "minimized to %d line(s)" % failure["min_lines"] \
                if failure.get("shrunk") else "unminimized"
            out("FAIL design %d [%s] %s — %s"
                % (failure["index"], failure["outcome"], tag,
                   failure["detail"]))
            out("  replay: %s" % failure["replay"])
            source = failure.get("min_source") or failure["source"]
            for line in source.splitlines():
                out("  | " + line)

    if args.corpus and report.failures:
        from .gen.grammar import replay as replay_design

        os.makedirs(args.corpus, exist_ok=True)
        for failure in report.failures:
            choices = failure.get("min_choices")
            if choices is None:
                continue
            design = replay_design(choices, seed=report.seed,
                                   index=failure["index"])
            name = "fail_seed%d_i%d" % (report.seed,
                                        failure["index"])
            path = os.path.join(args.corpus, "%s.vhd" % name)
            text = "\n".join([
                "%s expect=%s top=%s until_ns=%d" % (
                    corpus_store.HEADER_PREFIX, failure["outcome"],
                    design.top, design.until_ns),
                "%s seed=%d index=%d" % (corpus_store.HEADER_PREFIX,
                                         report.seed,
                                         failure["index"]),
                "%s note=UNFIXED failure — do not commit as-is" % (
                    corpus_store.HEADER_PREFIX),
            ]) + "\n" + design.source
            with open(path, "w") as handle:
                handle.write(text)
            out("fuzz: wrote failing design to %s" % path)

    _emit_metrics(registry, args, out, "fuzz metrics")
    return 0 if report.ok else 1


def cmd_bench_check(args, out):
    from .metrics.benchcheck import bench_check

    if args.current is not None and len(args.baseline) > 1:
        out("bench-check: --current works with a single --baseline")
        return 2
    rc = 0
    for baseline in args.baseline:
        rc = max(rc, bench_check(
            baseline, tolerance=args.tolerance,
            current_path=args.current, update=args.update, out=out))
    return rc


def cmd_trace(args, out):
    try:
        return _cmd_trace(args, out)
    except BrokenPipeError:
        # `repro trace big.json | head` closing the pipe early is
        # normal operator behavior, not an error.
        return 0


def _cmd_trace(args, out):
    from .trace import analyze

    try:
        event_lists = [analyze.load_spans(p) for p in args.traces]
    except OSError as exc:
        out("trace: %s" % exc)
        return 2
    except ValueError as exc:
        out("trace: not a trace file: %s" % exc)
        return 2
    events = analyze.merge_spans(*event_lists)
    if args.merge_out:
        parent = os.path.dirname(args.merge_out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        tmp = "%s.tmp.%d" % (args.merge_out, os.getpid())
        with open(tmp, "w") as f:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, f, sort_keys=True)
        os.replace(tmp, args.merge_out)
        out("merged trace written to %s" % args.merge_out)
    report = analyze.validate(events, trace_id=args.trace_id)
    if args.view == "summary":
        out(json.dumps(report, indent=2, sort_keys=True))
        return 0
    out("%d span(s) in %d trace(s): %d root(s), %d unresolved "
        "parent(s), %d process(es)"
        % (report["spans"], len(report["trace_ids"]),
           report["roots"], report["unresolved_parents"],
           len(report["pids"])))
    if args.view == "tree":
        for line in analyze.render_tree(events, trace_id=args.trace_id,
                                        max_spans=args.limit):
            out(line)
    elif args.view == "slowest":
        for span in analyze.slowest_spans(
                events, n=args.limit or 10, trace_id=args.trace_id):
            out("%12.3f ms  %-28s pid %-7s trace %s"
                % (span.get("dur", 0) / 1000.0,
                   span.get("name", "?"), span.get("pid", "?"),
                   (span.get("trace_id") or "-")[:16]))
    else:  # rollup
        rows = analyze.rollup(events, trace_id=args.trace_id)
        for line in analyze.render_rollup(rows, limit=args.limit):
            out(line)
    return 0


COMMANDS = {
    "analyze": cmd_analyze,
    "build": cmd_build,
    "compile": cmd_compile,
    "dump": cmd_dump,
    "lint": cmd_lint,
    "list": cmd_list,
    "simulate": cmd_simulate,
    "sim": cmd_simulate,
    "stats": cmd_stats,
    "serve": cmd_serve,
    "fuzz": cmd_fuzz,
    "bench-check": cmd_bench_check,
    "trace": cmd_trace,
}


_PARSER = None


def _parser():
    """The argument parser, built once per process: ``parse_args``
    returns a fresh namespace on every call and copies list defaults
    before appending, so calls share no state through it."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _make_parser()
    return _PARSER


def main(argv=None, out=print):
    args = _parser().parse_args(argv)
    return COMMANDS[args.command](args, out)


if __name__ == "__main__":
    sys.exit(main())
