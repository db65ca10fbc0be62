"""The service's job layer: batching, execution, and draining.

Compile requests are not executed one-by-one.  Each arriving compile
job parks in a per-session pending list for one *batch window* (a few
milliseconds); everything that accumulated is then merged into a
single :class:`repro.build.IncrementalBuilder` run — the existing
topological fork scheduler compiles the union of all requested files
in dependency order, possibly in parallel workers — and the one
:class:`~repro.build.driver.BuildReport` is sliced back per request.
Ten clients posting the same package therefore cost one AG evaluation,
exactly like ten files in one ``repro build`` invocation.

Simulation, lint and analyze jobs are read-only: they run directly on
the executor against a pinned library snapshot, concurrent with each
other and with at most one writer per session (the workspace lock).
Their pipeline steps are :mod:`repro.request`'s; this layer turns the
records into JSON.

Every job resolves to a plain JSON-able dict carrying the request id,
per-job diagnostics as JSON lines (:func:`repro.diag.render_jsonl` —
the same records ``--diag-format json`` prints), and queue/run timing.
"""

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

from ..diag import Diagnostic, render_jsonl
from ..metrics import NULL_REGISTRY
from ..request import analyze, compile_sources, simulate, sort_findings
from ..trace.context import current_context, make_span, use
from ..trace.recorder import NULL_RECORDER

#: How long a compile job waits for batch-mates before running.
BATCH_WINDOW_S = 0.01


class JobError(Exception):
    """A job could not be accepted (not: a job that ran and failed).

    ``diagnostics`` optionally carries structured
    :class:`~repro.diag.Diagnostic` records explaining the rejection;
    the app layer renders them as JSONL in the error response.
    """

    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class _CompileJob:
    """One pending compile request inside a batch."""

    __slots__ = ("id", "names", "paths", "force", "future",
                 "submitted", "submitted_ts", "ctx")

    def __init__(self, job_id, names, paths, force, future, ctx=None):
        self.id = job_id
        self.names = names   # client-facing file names
        self.paths = paths   # absolute paths inside the workspace
        self.force = force
        self.future = future
        self.submitted = time.perf_counter()
        self.submitted_ts = time.time() * 1e6  # epoch µs, for spans
        self.ctx = ctx       # the submitting request's span context


class JobRunner:
    """Executes jobs on a worker pool with per-session batching."""

    def __init__(self, workers=2, metrics=NULL_REGISTRY,
                 batch_window=BATCH_WINDOW_S, trace=NULL_RECORDER):
        self.workers = max(1, int(workers or 1))
        self.batch_window = batch_window
        self.trace = trace  # a bounded repro.trace.SpanRecorder
        self.executor = ThreadPoolExecutor(
            max_workers=max(2, self.workers),
            thread_name_prefix="repro-serve")
        self.metrics = metrics
        self._m_jobs = metrics.counter(
            "serve_jobs_total", "jobs executed by kind")
        self._m_batches = metrics.counter(
            "serve_batches_total",
            "compile batches handed to the build scheduler")
        self._m_batch_size = metrics.histogram(
            "serve_batch_files",
            "source files per merged compile batch")
        self._m_queue_s = metrics.histogram(
            "serve_job_queue_seconds",
            "time a compile job waited for its batch to run",
            buckets=_seconds_buckets())
        self._seq = 0
        self._pending = {}   # session id -> [_CompileJob]
        self._drainers = {}  # session id -> asyncio.Task
        self._active = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # -- bookkeeping -------------------------------------------------------

    def next_id(self):
        self._seq += 1
        return self._seq

    def _job_started(self):
        self._active += 1
        self._idle.clear()

    def _job_finished(self):
        self._active -= 1
        if self._active <= 0:
            self._idle.set()

    async def drain(self, timeout=60.0):
        """Wait until every accepted job has resolved."""
        # Pending batches may still be inside their window; kick them.
        for sid in list(self._drainers):
            task = self._drainers.get(sid)
            if task is not None and not task.done():
                await task
        await asyncio.wait_for(self._idle.wait(), timeout=timeout)

    def close(self):
        self.executor.shutdown(wait=True)

    @property
    def active_jobs(self):
        return self._active

    # -- compile (batched) -------------------------------------------------

    async def compile(self, workspace, files, force=False):
        """Queue one compile request; resolves when its batch ran."""
        loop = asyncio.get_running_loop()
        paths = workspace.write_sources(files)
        names = [entry["name"] for entry in files]
        # Capture the request's span context *here*: the drainer task
        # runs in whichever request's context created it, so each job
        # must carry its own.
        job = _CompileJob(self.next_id(), names, paths, force,
                          loop.create_future(), ctx=current_context())
        self._job_started()
        self._pending.setdefault(workspace.id, []).append(job)
        drainer = self._drainers.get(workspace.id)
        if drainer is None or drainer.done():
            self._drainers[workspace.id] = asyncio.ensure_future(
                self._drain_session(workspace))
        return await job.future

    async def _drain_session(self, workspace):
        """Run merged batches until the session has nothing pending.

        A compile that arrives while a batch builds finds this drainer
        alive and only queues, so the drainer must come back for it.
        """
        while True:
            await asyncio.sleep(self.batch_window)
            jobs = self._pending.pop(workspace.id, [])
            if not jobs:
                return
            await self._run_batch(workspace, jobs)

    async def _run_batch(self, workspace, jobs):
        """Build one merged batch and resolve its jobs."""
        loop = asyncio.get_running_loop()
        if workspace.lock is None:
            workspace.lock = asyncio.Lock()
        batch_paths = []
        force = False
        for job in jobs:
            force = force or job.force
            for path in job.paths:
                if path not in batch_paths:
                    batch_paths.append(path)
        self._m_batches.inc()
        self._m_batch_size.observe(len(batch_paths))
        # The batch runs as a child span of the first traced job's
        # request; batch-mates link to it via ``batch_member`` spans
        # (a batch has many requesting parents but one execution).
        lead_ctx = next((j.ctx for j in jobs if j.ctx is not None),
                        None)
        batch_ctx = lead_ctx.child() if lead_ctx is not None else None
        started = time.perf_counter()
        started_ts = time.time() * 1e6
        try:
            async with workspace.lock:
                report = await loop.run_in_executor(
                    self.executor, self._run_build,
                    workspace, batch_paths, force, batch_ctx)
        except Exception as exc:
            for job in jobs:
                if not job.future.done():
                    job.future.set_exception(
                        JobError("build failed: %s" % exc))
                self._m_jobs.labels(kind="compile").inc()
                self._job_finished()
            return
        run_s = time.perf_counter() - started
        workspace.invalidate()
        self._record_batch_spans(jobs, batch_ctx, report, started,
                                 started_ts, run_s, len(batch_paths))
        for job in jobs:
            self._m_queue_s.observe(max(0.0,
                                        started - job.submitted))
            result = self._slice_report(workspace, job, report,
                                        run_s, len(batch_paths),
                                        len(jobs))
            if not job.future.done():
                job.future.set_result(result)
            self._m_jobs.labels(kind="compile").inc()
            self._job_finished()

    def _record_batch_spans(self, jobs, batch_ctx, report, started,
                            started_ts, run_s, batch_files):
        """Collect this batch's span tree into the span recorder."""
        if batch_ctx is None:
            return
        spans = [make_span(
            "compile_batch", batch_ctx, started_ts, run_s * 1e6,
            cat="serve", files=batch_files, jobs=len(jobs))]
        for job in jobs:
            if job.ctx is None:
                continue
            wait_s = max(0.0, started - job.submitted)
            spans.append(make_span(
                "queue_wait", job.ctx.child(), job.submitted_ts,
                wait_s * 1e6, cat="serve", job=job.id))
            if job.ctx.span_id != batch_ctx.parent_id:
                # A batch-mate: its request did not own the batch
                # execution, so leave a membership span that links to
                # the batch's identity.
                spans.append(make_span(
                    "batch_member", job.ctx.child(), started_ts,
                    run_s * 1e6, cat="serve", job=job.id,
                    batch_trace=batch_ctx.trace_id,
                    batch_span=batch_ctx.span_id))
        self.trace.add_events(spans)
        self.trace.add_events(getattr(report, "trace_events", ()))

    def _run_build(self, workspace, paths, force, ctx=None):
        # Executor threads do not inherit the caller's contextvars;
        # re-activate the batch span explicitly so the builder's
        # phases (and its fork workers) parent into it.
        with use(ctx):
            builder = workspace.builder(jobs=self.workers)
            return builder.build(paths, force=force)

    def _slice_report(self, workspace, job, report, run_s,
                      batch_files, batch_jobs):
        """This job's per-file view of the merged batch report."""
        results = []
        diagnostics = []
        ok = True
        for name, path in zip(job.names, job.paths):
            action = report.actions.get(path, "skipped")
            if action in ("failed", "skipped"):
                ok = False
            results.append({
                "path": name,
                "action": action,
                "reason": report.reasons.get(path, ""),
                "messages": list(report.messages.get(path, ())),
                "units": [list(u)
                          for u in report.units.get(path, ())],
            })
            for d in report.diagnostics.get(path, ()):
                diagnostics.append(Diagnostic.from_dict(d))
        return {
            "id": job.id,
            "kind": "compile",
            "session": workspace.id,
            "ok": ok,
            "results": results,
            "stats": dict(report.stats),
            "diagnostics_jsonl": render_jsonl(diagnostics),
            "timing": {
                "queued_s": round(
                    max(0.0, time.perf_counter() - job.submitted
                        - run_s), 6),
                "run_s": round(run_s, 6),
                "batch_files": batch_files,
                "batch_jobs": batch_jobs,
            },
        }

    # -- read-only jobs ----------------------------------------------------

    async def _job(self, kind, workspace, fn, *args, **span_args):
        """Run ``fn(*args)`` on the executor as one job of ``kind``
        and return its result dict, stamped with the job's id, kind,
        session and timing.  The job counts once in
        ``serve_jobs_total`` and records one span named ``kind``,
        which the spans ``fn`` records nest under."""
        loop = asyncio.get_running_loop()
        job_id = self.next_id()
        ctx = current_context()
        self._job_started()
        submitted = time.perf_counter()

        def run():
            # Executor threads do not inherit the caller's contextvars.
            with use(ctx), self.trace.span(kind, cat="serve",
                                           job=job_id, **span_args):
                return fn(*args)

        try:
            result = await loop.run_in_executor(self.executor, run)
        finally:
            self._m_jobs.labels(kind=kind).inc()
            self._job_finished()
        result.update(id=job_id, kind=kind, session=workspace.id,
                      timing={"run_s": round(
                          time.perf_counter() - submitted, 6)})
        return result

    async def simulate(self, workspace, top, arch=None, until_fs=None,
                       lib=None, backend="event"):
        """Elaborate + run against a pinned snapshot of the session
        library; concurrent with other readers and with writers.
        ``backend`` selects the kernel: ``event`` (default) or
        ``compiled`` (per-design specialized code)."""
        return await self._job("sim", workspace, self._run_sim,
                               workspace, top, arch, until_fs, lib,
                               backend, top=top)

    def _run_sim(self, workspace, top, arch, until_fs, lib, backend):
        from ..sim import TRACE_SAMPLE, backend_kernel

        snapshot = workspace.snapshot()
        # A traced kernel samples timestep / process-resume spans into
        # the kernel_run span the run opens.
        kernel = backend_kernel(backend)(trace=self.trace,
                                         trace_sample=TRACE_SAMPLE)
        design = simulate(snapshot, top, kernel, until_fs=until_fs,
                          arch=arch, lib=lib)
        sim = design.sim
        result = {"library_version": snapshot.version}
        if design.ran:
            # A run that fails still answers with the state at its stop.
            result.update(end_fs=sim.now, cycles=kernel.cycles, signals=[
                [path, sig.image(sig.value)]
                for path, sig in sim.names.signals()])
        result.update(ok=sim.ok, diagnostics_jsonl=render_jsonl(
            design.quarantined + sim.diagnostics))
        if not sim.ok:
            result["error"] = _error_text(sim)
            return result
        result.update(top=top, backend=backend,
                      delta_cycles=kernel.delta_cycles,
                      report_lines=sim.report_lines())
        if backend == "compiled":
            result["codegen"] = {
                "seconds": round(kernel.codegen_seconds, 6),
                "compiled_procs": kernel.compiled_procs,
                "slot_signals": kernel.slot_signals,
            }
        return result

    async def lint(self, workspace, files=None, select=(), ignore=()):
        """Compile ``files`` in memory and lint (no library writes),
        or lint the session library when no files are given."""
        return await self._job("lint", workspace, self._run_lint,
                               workspace, files, tuple(select),
                               tuple(ignore))

    def _run_lint(self, workspace, files, select, ignore):
        from ..analysis import LintEngine

        library, _top, failure = _library_for(workspace, files)
        if failure is not None:
            return failure
        result = _findings(LintEngine(
            library=library, work="work", select=select,
            ignore=ignore).lint_library())
        result["ok"] = not result["findings"]
        return result

    async def analyze(self, workspace, files=None, top=None,
                      select=(), ignore=()):
        """Elaborate and run the whole-design (RPE) rules — either
        over ``files`` compiled in memory or over the session
        library.  Read-only, like lint: runs on the executor against
        a pinned snapshot, concurrent with other readers."""
        return await self._job("analyze", workspace, self._run_analyze,
                               workspace, files, top, tuple(select),
                               tuple(ignore))

    def _run_analyze(self, workspace, files, top, select, ignore):
        from ..analysis import levels_artifact

        library, last_entity, failure = _library_for(workspace, files)
        if failure is not None:
            return failure
        top = last_entity if top is None else top
        if top is None:
            return {"ok": False, "error": "no entity to analyze"
                    if files else "analyze without files needs a "
                                  "'top' entity name"}
        design = analyze(library, top, select=select, ignore=ignore)
        sim = design.sim
        diagnostics = render_jsonl(design.quarantined + sim.diagnostics)
        if not sim.ok:
            return {"ok": False, "error": _error_text(sim),
                    "diagnostics_jsonl": diagnostics}
        result = _findings(design.findings)
        result.update(ok=not design.blocking, top=top,
                      levels=levels_artifact(design.graph))
        if diagnostics:
            result["diagnostics_jsonl"] = diagnostics
        return result


def _findings(findings):
    """The response fields of lint and analyze that report
    ``findings``, sorted."""
    ordered, summary, _errors = sort_findings(findings)
    return {"findings": len(ordered),
            "findings_jsonl": render_jsonl(ordered), "summary": summary}


def _error_text(sim):
    """A failed simulation's ``error`` field: ``Type: message``."""
    return "%s: %s" % (type(sim.error).__name__, sim.error)


def _library_for(workspace, files):
    """What lint and analyze read: ``files`` compiled in memory, never
    touching the session library, or else the session's pinned
    snapshot.  Returns ``(library, last entity compiled, failure)``;
    ``failure`` is the response for the first file that does not
    compile, or None."""
    if not files:
        return workspace.snapshot(), None, None
    compiled = compile_sources([(f.get("name", "<input>"),
                                 f.get("text", "")) for f in files])
    if not compiled.failed:
        return compiled.library, compiled.top, None
    result = compiled.failed[0]
    return None, None, {"ok": False,
                        "error": "%s: %d compile error(s)"
                                 % (result.filename, len(result.messages)),
                        "messages": list(result.messages)}


def _seconds_buckets():
    from ..metrics.registry import SECONDS_BUCKETS

    return SECONDS_BUCKETS
