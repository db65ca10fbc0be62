"""The :class:`IncrementalBuilder` facade.

Rebuilds only source files whose token-stream fingerprint or whose
recorded dependency *interface digests* changed; everything else is a
cache hit that performs **zero** AG evaluations.  Dirty files are
compiled in topological batches, optionally in parallel, and the
manifest (fingerprints, digests, unit graph, compile order) is saved
atomically back to ``build.state.json`` in the library root.

Invalidation is digest-based, which yields early cutoff: editing a
package *body* rebuilds that file, but because the package
declaration's interface digest is unchanged the architectures that
merely ``use`` the package stay cached.
"""

import os

from ..trace.recorder import SpanRecorder
from ..vhdl.lexer import scan
from .cache import STATE_NAME, BuildCache
from .fingerprint import interface_digest, raw_fingerprint, \
    tokens_fingerprint
from .scheduler import Scheduler, file_batches, harvest_names


class BuildError(Exception):
    """The build could not run (bad root, unreadable input, ...)."""


class BuildReport:
    """What one :meth:`IncrementalBuilder.build` call did."""

    #: Per-file actions, in the order the build considered them.
    ACTIONS = ("compiled", "hit", "failed", "skipped")

    def __init__(self):
        self.order = []        # paths, schedule order
        self.actions = {}      # path -> action
        self.reasons = {}      # path -> why it was rebuilt / skipped
        self.messages = {}     # path -> [legacy string, ...]
        self.diagnostics = {}  # path -> [Diagnostic dict, ...]
        self.units = {}        # path -> [(lib, key), ...]
        self.stats = {}        # cache stats snapshot
        self.batches = []      # the file schedule that was used
        self.jobs = 1
        #: merged Chrome trace events: driver phases + every worker's
        #: compile phases (each carrying the recording pid, and each
        #: ``attribute_evaluation`` span its compile's AG totals)
        self.trace_events = []
        #: repro.diag.Diagnostic lint findings (``build(lint=...)``)
        self.lint_findings = []

    def record(self, path, action, reason="", messages=(), units=(),
               diagnostics=()):
        if path not in self.actions:
            self.order.append(path)
        self.actions[path] = action
        if reason:
            self.reasons[path] = reason
        if messages:
            self.messages[path] = list(messages)
        if diagnostics:
            self.diagnostics[path] = [dict(d) for d in diagnostics]
        if units:
            self.units[path] = [tuple(u) for u in units]

    def all_diagnostics(self):
        """Structured :class:`repro.diag.Diagnostic` records, in
        schedule order (for SARIF / JSON rendering)."""
        from ..diag import Diagnostic

        out = []
        for path in self.order:
            for d in self.diagnostics.get(path, ()):
                out.append(Diagnostic.from_dict(d))
        return out

    def paths(self, action):
        return [p for p in self.order if self.actions[p] == action]

    @property
    def ok(self):
        return not self.paths("failed") and not self.paths("skipped")

    def summary(self):
        lines = []
        for path in self.order:
            action = self.actions[path]
            reason = self.reasons.get(path, "")
            line = "%-8s %s" % (action, path)
            if reason:
                line += "  (%s)" % reason
            lines.append(line)
            for msg in self.messages.get(path, ()):
                lines.append("  %s" % msg)
        s = self.stats
        if s:
            lines.append(
                "cache: %d hit(s), %d miss(es), %d invalidated, "
                "%d AG evaluation(s)"
                % (s.get("hits", 0), s.get("misses", 0),
                   s.get("invalidated", 0), s.get("ag_evaluations", 0)))
        return "\n".join(lines)


class IncrementalBuilder:
    """Incremental, parallel front end over the one-shot compiler."""

    def __init__(self, root, work="work", reference_libs=(), jobs=1,
                 state_name=STATE_NAME):
        if not root:
            raise BuildError(
                "incremental builds need a persistent library root")
        self.root = os.path.abspath(root)
        self.work = work
        self.reference_libs = tuple(reference_libs)
        self.jobs = max(1, int(jobs or 1))
        self.cache = BuildCache(self.root, state_name=state_name).load()

    # -- public API --------------------------------------------------------

    def build(self, paths, force=False, lint=None):
        """Bring the library up to date with ``paths``.

        Returns a :class:`BuildReport`.  Only the *work* library is
        ever written; reference libraries are read-only inputs whose
        interface digests participate in invalidation but which are
        never scheduled for a rebuild.

        ``lint`` is an optional :class:`repro.analysis.LintEngine`;
        when given, the driver invokes it on every unit the build
        touched (compiled *or* cache-hit — lint rules evolve
        independently of source content) and collects the findings in
        ``report.lint_findings``.
        """
        paths = self._normalize(paths)
        report = BuildReport()
        report.jobs = self.jobs
        tracer = SpanRecorder()

        # One root span over the whole build: every phase below it —
        # including worker-side spans shipped back across the fork
        # boundary — forms a single connected tree, which attaches to
        # the caller's ambient span (e.g. a serve request) when one
        # is active.
        with tracer.span("build", cat="build", files=len(paths)):
            self._build_steps(paths, force, lint, report, tracer)

        report.stats = dict(self.cache.stats)
        report.trace_events = tracer.events()
        return report

    def _build_steps(self, paths, force, lint, report, tracer):
        """The traced body of :meth:`build` (one span per phase)."""
        texts = {}
        with tracer.span("read_sources", files=len(paths)):
            for path in paths:
                try:
                    with open(path) as f:
                        texts[path] = f.read()
                except (OSError, UnicodeDecodeError) as exc:
                    raise BuildError("cannot read %s: %s" % (path, exc))

        fingerprints, provides, requires = {}, {}, {}
        with tracer.span("fingerprint", files=len(paths)):
            for path, text in texts.items():
                try:
                    tokens = scan(text, path)
                except Exception:
                    fingerprints[path] = raw_fingerprint(text)
                    provides[path], requires[path] = set(), set()
                    continue
                fingerprints[path] = tokens_fingerprint(tokens)
                provides[path], requires[path] = harvest_names(
                    tokens, work=self.work,
                    reference_libs=self.reference_libs)

        # File-level scheduling DAG from the syntactic name sets.
        provider = {}
        for path in paths:  # later files win, like recompilation does
            for name in provides[path]:
                provider[name] = path
        deps = {
            path: {
                provider[name]
                for name in requires[path]
                if provider.get(name) not in (None, path)
            }
            for path in paths
        }
        report.batches = file_batches(paths, deps)

        new_digests = {}
        failed = set()
        scheduler = Scheduler(self.root, self.work,
                              self.reference_libs, jobs=self.jobs)
        try:
            for batch_no, batch in enumerate(report.batches):
                to_compile = []
                for path in batch:
                    if deps[path] & failed:
                        failed.add(path)  # propagate downstream
                        report.record(
                            path, "skipped",
                            reason="depends on a failed file")
                        continue
                    reason = self._dirty_reason(
                        path, fingerprints[path], new_digests, force)
                    if reason is None:
                        self.cache.record_hit()
                        entry = self.cache.file_entry(path)
                        report.record(path, "hit",
                                      units=entry["units"])
                    else:
                        self.cache.record_miss()
                        to_compile.append(path)
                        report.reasons[path] = reason
                with tracer.span("batch", index=batch_no,
                                 files=len(to_compile)):
                    results = scheduler.run_batch(to_compile)
                for result in results:
                    tracer.add_events(result.get("trace", ()))
                    self._absorb(result, fingerprints, requires,
                                 new_digests, failed, report)
        finally:
            scheduler.close()

        with tracer.span("save_manifest"):
            self.cache.save()
        if lint is not None:
            with tracer.span("lint", files=len(report.units)):
                self._lint(report, lint)

    def _lint(self, report, lint):
        """Invoke the lint engine per built unit, in build order."""
        library = self.library()
        lint.context.library = library
        seen = set()
        for path in report.order:
            for key in report.units.get(path, ()):
                key = tuple(key)
                if key in seen:
                    continue
                seen.add(key)
                node = library.find_unit(*key) \
                    or library._units.get(key)
                if node is not None:
                    report.lint_findings.extend(lint.lint_unit(node))

    def library(self):
        """A :class:`LibraryManager` over the built root, with the
        recorded deterministic compile order applied."""
        from ..vhdl.library import LibraryManager

        lib = LibraryManager(root=self.root, work=self.work,
                             reference_libs=self.reference_libs)
        lib.apply_compile_order(self.cache.compile_order)
        return lib

    # -- internals ---------------------------------------------------------

    def _normalize(self, paths):
        out, seen = [], set()
        for path in paths:
            ap = os.path.abspath(path)
            if ap not in seen:
                seen.add(ap)
                out.append(ap)
        if not out:
            raise BuildError("nothing to build")
        return out

    def _dirty_reason(self, path, fingerprint, new_digests, force):
        """Why ``path`` must be rebuilt, or None for a cache hit."""
        if force:
            return "forced"
        entry = self.cache.file_entry(path)
        if entry is None:
            return "not built before"
        if entry["fingerprint"] != fingerprint:
            return "source changed"
        for lib, key in entry["units"]:
            if not os.path.exists(self._artifact(lib, key)):
                return "artifact missing"
        for unit, recorded in sorted(
                self.cache.recorded_dep_digests(path).items()):
            current = self._current_digest(unit, new_digests)
            if current != recorded:
                self.cache.record_invalidation()
                return "interface of %s.%s changed" % unit
        return None

    def _absorb(self, result, fingerprints, requires, new_digests,
                failed, report):
        """Fold one compile result into cache, graph, and report."""
        path = result["path"]
        self.cache.stats["ag_evaluations"] += 1
        if not result["ok"]:
            failed.add(path)
            self.cache.forget_file(path)
            report.record(path, "failed",
                          reason=report.reasons.get(path, ""),
                          messages=result["messages"],
                          diagnostics=result.get("diagnostics", ()))
            return
        units = [(u["lib"], u["key"]) for u in result["units"]]
        unit_set = set(units)
        dep_digests = {}
        for u in result["units"]:
            unit = (u["lib"], u["key"])
            new_digests[unit] = u["digest"]
            self.cache.set_digest(unit, u["digest"])
            edges = [tuple(d) for d in u["depends"]]
            self.cache.graph.set_deps(unit, edges)
            for dep in edges:
                if dep in unit_set:
                    continue
                digest = self._current_digest(dep, new_digests)
                if digest is not None:
                    dep_digests[dep] = digest
        # The VIF depends-set records what was *referenced*; values the
        # compiler folded at compile time (a used package's constants,
        # say) leave no foreign ref behind.  Union in the syntactic
        # requirements so those reads invalidate too.
        for dep in self._resolve_requires(requires.get(path, ())):
            if dep in unit_set or dep in dep_digests:
                continue
            digest = self._current_digest(dep, new_digests)
            if digest is not None:
                dep_digests[dep] = digest
        self.cache.set_file_entry(path, fingerprints[path], units,
                                  dep_digests)
        # Deterministic compile-order recording: recompiled units move
        # to the end (the §3.3 latest-architecture rule), in schedule
        # order — never in worker completion order.
        self.cache.compile_order = [
            entry for entry in self.cache.compile_order
            if entry not in unit_set
        ] + units
        report.record(path, "compiled",
                      reason=report.reasons.get(path, ""),
                      messages=result["messages"], units=units,
                      diagnostics=result.get("diagnostics", ()))

    def _resolve_requires(self, names):
        """Map syntactic required names to library units that exist
        (work first, then reference libraries, then STD)."""
        out = []
        for name in sorted(names):
            for lib in (self.work,) + self.reference_libs + ("std",):
                unit = (lib, name)
                if unit == ("std", "standard") or os.path.exists(
                        self._artifact(lib, name)):
                    out.append(unit)
                    break
        return out

    def _artifact(self, lib, key):
        from ..vhdl.library import unit_filename

        return os.path.join(self.root, lib,
                            unit_filename(key, "vif.json"))

    def _current_digest(self, unit, new_digests):
        """Interface digest of ``unit`` as of now (None if unknown)."""
        if unit in new_digests:
            return new_digests[unit]
        digest = self.cache.digest_of(unit)
        if digest is not None:
            return digest
        payload = self._load_payload(unit)
        if payload is None:
            return None
        digest = interface_digest(payload)
        self.cache.set_digest(unit, digest)
        return digest

    def _load_payload(self, unit):
        lib, key = unit
        if (lib, key) == ("std", "standard"):
            from ..vhdl.stdpkg import standard

            return standard().payload
        path = self._artifact(lib, key)
        if not os.path.exists(path):
            return None
        import json

        try:
            with open(path) as f:
                return json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            return None

