"""`repro serve` — the long-lived compile-and-simulate service.

Routes (all JSON unless noted):

=====================  ======  =====================================
``/healthz``           GET     liveness probe
``/metrics``           GET     Prometheus text exposition (live)
``/stats``             GET     AG statistics (``repro stats --json``)
``/sessions``          GET     list live session ids
``/session``           POST    create/ensure a session
``/session/<id>``      DELETE  drop a session and its workspace
``/compile``           POST    batched compile into the session work
                               library (``files``, ``force``)
``/lint``              POST    in-memory lint of posted ``files`` (or
                               the session library when omitted)
``/analyze``           POST    elaborate + whole-design (RPE) rules
                               over posted ``files`` or the session
                               library (``top``, ``select``,
                               ``ignore``); the response carries the
                               ``repro-levels/1`` artifact
``/sim``               POST    elaborate + simulate (``top``,
                               ``arch``, ``until``, ``lib``)
``/trace``             GET     recent spans from the in-memory ring
                               (``?trace_id=`` filters to one tree)
=====================  ======  =====================================

Every request runs under a root span: an incoming W3C ``traceparent``
header is honored (the request root becomes a child of the caller's
span — two requests sent with the same header form one trace), a
malformed or absent one starts a fresh trace, and the response always
carries the request's own ``traceparent`` back.  Spans from the job
layer — queue waits, compile batches, fork-worker compiles, sampled
kernel timesteps — land in a bounded
:class:`~repro.trace.SpanRecorder` that ``GET /trace`` exposes.

The app owns one :class:`~repro.metrics.MetricsRegistry` for its whole
lifetime — ``serve_requests_total{route=,status=}``,
``serve_inflight``, ``serve_request_seconds{route=}`` histograms, and
the job/batch families from :mod:`repro.serve.jobs` — and ``/metrics``
renders it live through the same Prometheus renderer the file sinks
use.  During shutdown the app stops admitting jobs (503) while
in-flight ones drain.
"""

import asyncio
import os
import shutil
import tempfile
import time

from ..diag import Diagnostic, render_jsonl
from ..metrics import MetricsRegistry
from ..metrics.registry import SECONDS_BUCKETS
from ..sim import BACKENDS, parse_time
from ..trace import SpanContext, SpanRecorder, make_span, use
from .http import (
    HTTPError,
    HTTPServer,
    PROMETHEUS_CONTENT_TYPE,
    Response,
)
from .jobs import JobError, JobRunner
from .session import SessionError, SessionManager, resolve_reference


def error_response(status, message, diagnostics=()):
    """A structured error body: machine-readable like the success
    path, never a raw traceback.  Every error carries JSONL
    diagnostics — the ones attached to the failure when it had any,
    otherwise one synthesized ``SRV001`` record, so clients parse a
    single shape for all rejections."""
    diags = list(diagnostics)
    if not diags:
        diags = [Diagnostic("SRV001", "error", message)]
    return Response.json({
        "ok": False,
        "error": message,
        "status": status,
        "diagnostics_jsonl": render_jsonl(diags),
    }, status=status)


class ServeApp:
    """Route dispatch over sessions, jobs, and the metrics registry."""

    def __init__(self, state_dir=None, ref_library=None, workers=2,
                 registry=None, batch_window=None,
                 trace_capacity=16384):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.trace = SpanRecorder(capacity=trace_capacity)
        self._owns_state_dir = state_dir is None
        # Absolute: build reports key files by absolute path, and
        # session workspaces must agree with them.
        self.state_dir = os.path.abspath(
            state_dir or tempfile.mkdtemp(prefix="repro-serve-"))
        ref = resolve_reference(ref_library) \
            if isinstance(ref_library, str) else ref_library
        self.sessions = SessionManager(
            os.path.join(self.state_dir, "sessions"), ref=ref)
        kwargs = {} if batch_window is None \
            else {"batch_window": batch_window}
        self.jobs = JobRunner(workers=workers, metrics=self.registry,
                              trace=self.trace, **kwargs)
        self.draining = False
        self._started = time.perf_counter()
        self._m_requests = self.registry.counter(
            "serve_requests_total",
            "HTTP requests by route and status")
        self._m_inflight = self.registry.gauge(
            "serve_inflight", "requests currently being handled")
        self._m_latency = self.registry.histogram(
            "serve_request_seconds",
            "request wall time by route", buckets=SECONDS_BUCKETS)
        self._m_uptime = self.registry.gauge(
            "serve_uptime_seconds",
            "seconds since the service started")

    # -- lifecycle ---------------------------------------------------------

    def warm(self):
        """Load both translators before the first request (the
        paper's Linguist step runs before any compilation), so forked
        compile workers inherit them."""
        from ..build.pool import warm_grammar

        warm_grammar()

    async def shutdown(self):
        """Stop admitting jobs, drain in-flight ones, release."""
        self.draining = True
        await self.jobs.drain()
        self.jobs.close()
        if self._owns_state_dir:
            shutil.rmtree(self.state_dir, ignore_errors=True)

    def total_requests(self):
        family = self.registry.get("serve_requests_total")
        if family is None:
            return 0
        return family.value + sum(
            child.value for child in family._children.values())

    # -- dispatch ----------------------------------------------------------

    async def handle(self, request):
        route = self._route_label(request)
        # One root span per request.  A valid incoming traceparent
        # makes this request a child of the caller's span (so a
        # client can stitch /compile + /sim into one trace by sending
        # the same header); anything malformed is silently ignored
        # and a fresh trace starts.
        remote = SpanContext.from_traceparent(
            request.headers.get("traceparent"))
        ctx = remote.child() if remote is not None else SpanContext()
        self._m_inflight.inc()
        t0 = time.perf_counter()
        ts_us = time.time() * 1e6
        try:
            with use(ctx):
                response = await self._dispatch(request)
        except HTTPError as exc:
            response = error_response(exc.status, exc.message)
        except (SessionError, JobError) as exc:
            response = error_response(
                400, str(exc), getattr(exc, "diagnostics", ()))
        except Exception as exc:  # keep the daemon alive: 500 + count
            response = error_response(
                500, "%s: %s" % (type(exc).__name__, exc))
        finally:
            self._m_inflight.dec()
        elapsed = time.perf_counter() - t0
        self._m_latency.labels(route=route).observe(
            elapsed, trace_id=ctx.trace_id)
        self._m_requests.labels(
            route=route, status=str(response.status)).inc()
        self.trace.add(make_span(
            "request", ctx, ts_us, elapsed * 1e6, cat="serve",
            route=route, method=request.method,
            status=response.status))
        response.headers.append(("traceparent", ctx.to_traceparent()))
        return response

    def _route_label(self, request):
        head = request.path.strip("/").split("/", 1)[0] or "root"
        known = ("healthz", "metrics", "stats", "session", "sessions",
                 "compile", "lint", "analyze", "sim", "trace")
        return head if head in known else "other"

    async def _dispatch(self, request):
        method, path = request.method, request.path.rstrip("/")
        if path == "" or path == "/":
            path = "/healthz" if method == "GET" else path
        if method == "GET" and path == "/healthz":
            return Response.json({
                "ok": True,
                "draining": self.draining,
                "inflight_jobs": self.jobs.active_jobs,
            })
        if method == "GET" and path == "/metrics":
            return self._metrics()
        if method == "GET" and path == "/stats":
            return self._stats()
        if method == "GET" and path == "/trace":
            return self._trace(request)
        if method == "GET" and path == "/sessions":
            return Response.json({"ok": True,
                                  "sessions": self.sessions.list()})
        if path == "/session" and method == "POST":
            body = request.json()
            ws = self._workspace(body)
            return Response.json({"ok": True, "session": ws.id},
                                 status=201)
        if path.startswith("/session/") and method == "DELETE":
            sid = path[len("/session/"):]
            try:
                self.sessions.drop(sid)
            except SessionError as exc:
                raise HTTPError(404, str(exc))
            return Response.json({"ok": True, "session": sid})
        if path == "/compile" and method == "POST":
            return await self._compile(request)
        if path == "/lint" and method == "POST":
            return await self._lint(request)
        if path == "/analyze" and method == "POST":
            return await self._analyze(request)
        if path == "/sim" and method == "POST":
            return await self._sim(request)
        if path in ("/compile", "/lint", "/analyze", "/sim",
                    "/session"):
            raise HTTPError(405, "%s does not accept %s"
                            % (path, method))
        raise HTTPError(404, "no route %s %s"
                        % (method, request.path))

    # -- route bodies ------------------------------------------------------

    def _workspace(self, body, create=True):
        sid = body.get("session") or "default"
        if not isinstance(sid, str):
            raise HTTPError(400, "'session' must be a string")
        try:
            return self.sessions.get(sid, create=create)
        except SessionError as exc:
            raise HTTPError(400, str(exc))

    def _require_up(self):
        if self.draining:
            raise HTTPError(503, "service is draining; "
                            "no new jobs accepted")

    async def _compile(self, request):
        self._require_up()
        body = request.json()
        files = body.get("files")
        if not isinstance(files, list) or not files:
            raise HTTPError(400, "'files' must be a non-empty list "
                            "of {name, text} objects")
        ws = self._workspace(body)
        result = await self.jobs.compile(
            ws, files, force=bool(body.get("force")))
        return Response.json(result)

    async def _lint(self, request):
        self._require_up()
        body = request.json()
        ws = self._workspace(body)
        files = body.get("files")
        if files is not None and not isinstance(files, list):
            raise HTTPError(400, "'files' must be a list when given")
        result = await self.jobs.lint(
            ws, files=files,
            select=body.get("select") or (),
            ignore=body.get("ignore") or ())
        return Response.json(result)

    async def _analyze(self, request):
        self._require_up()
        body = request.json()
        ws = self._workspace(body)
        files = body.get("files")
        if files is not None and not isinstance(files, list):
            raise HTTPError(400, "'files' must be a list when given")
        top = body.get("top")
        if top is not None and not isinstance(top, str):
            raise HTTPError(400, "'top' must be a string when given")
        result = await self.jobs.analyze(
            ws, files=files, top=top,
            select=body.get("select") or (),
            ignore=body.get("ignore") or ())
        return Response.json(result)

    async def _sim(self, request):
        self._require_up()
        body = request.json()
        top = body.get("top")
        if not isinstance(top, str) or not top:
            raise HTTPError(400, "'top' (an entity or configuration "
                            "name) is required")
        until = body.get("until", "1us")
        try:
            until_fs = parse_time(str(until))
        except ValueError:
            raise HTTPError(400, "bad 'until' value %r" % (until,))
        backend = body.get("backend", "event")
        if not isinstance(backend, str) or backend not in BACKENDS:
            raise HTTPError(400, "bad 'backend' value %r (one of: %s)"
                            % (backend, ", ".join(BACKENDS)))
        ws = self._workspace(body)
        result = await self.jobs.simulate(
            ws, top, arch=body.get("arch"), until_fs=until_fs,
            lib=body.get("lib"), backend=backend)
        return Response.json(result)

    def _trace(self, request):
        """Recent spans (newest last); ``?trace_id=`` narrows to one
        tree.  Note the handling request's own span is recorded only
        after its response is built, so a trace never contains the
        ``/trace`` fetch that read it."""
        wanted = (request.query.get("trace_id") or [None])[0]
        spans = self.trace.events(trace_id=wanted or None)
        return Response.json({
            "ok": True,
            "count": len(spans),
            "dropped": self.trace.dropped,
            "spans": spans,
        })

    def _metrics(self):
        self._m_uptime.set(
            round(time.perf_counter() - self._started, 3))
        return Response.text(self.registry.render_prometheus(),
                             content_type=PROMETHEUS_CONTENT_TYPE)

    def _stats(self):
        from ..metrics import envelope
        from ..vhdl.expr_grammar import expr_grammar
        from ..vhdl.grammar import principal_grammar

        stats = [
            principal_grammar().statistics(),
            expr_grammar().statistics(),
        ]
        return Response.json(envelope(
            "ag-stats", grammars=[s.as_dict() for s in stats]))


class ServeServer:
    """One app bound to one HTTP listener, with graceful shutdown."""

    def __init__(self, host="127.0.0.1", port=0, **app_kwargs):
        self.app = ServeApp(**app_kwargs)
        self.http = HTTPServer(self.app.handle, host=host, port=port)

    @property
    def address(self):
        return self.http.address

    @property
    def url(self):
        return "http://%s:%d" % self.http.address

    async def start(self):
        self.app.warm()
        await self.http.start()
        return self

    async def stop(self):
        """Graceful: stop accepting, let open requests finish, drain
        the job queue, release the workers."""
        self.app.draining = True
        await self.http.stop()
        await self.app.shutdown()


class BackgroundServer:
    """A server on its own thread + event loop (tests, benchmarks).

    ``with BackgroundServer() as handle: requests(handle.url)`` — the
    exit path performs the same graceful drain as SIGTERM.
    """

    def __init__(self, host="127.0.0.1", port=0, **app_kwargs):
        import threading

        self._ready = threading.Event()
        self._startup_error = None
        self._loop = None
        self.server = None

        def run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                self.server = loop.run_until_complete(
                    ServeServer(host=host, port=port,
                                **app_kwargs).start())
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-serve", daemon=True)
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._startup_error is not None:
            raise self._startup_error

    @property
    def url(self):
        return self.server.url

    @property
    def port(self):
        return self.server.address[1]

    def stop(self, timeout=60):
        if self._loop is None or self.server is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop)
        future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
