"""The per-layer ledger: spans around each layer's public entry point.

:class:`Ledger` patches the entry points named in ``LAYERS`` from the
outside (nothing in the program records these spans) and records one
Chrome complete event per call, parented through a per-thread stack of
open spans.  A job — one user call — is the root of each tree, so the
self times of the layers in a tree, plus the job's own remainder, add
up to the job's wall time.

Counters are read at the same boundaries.  Reading them can cost
(walking a parse tree, serializing a payload), so that work is deferred
until the job's span has closed and never lands inside a layer.
"""

import functools
import json
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager

#: The layers, in pipeline order.  ``job`` is each tree's root.
LAYERS = ("translator", "library_open", "vif_read", "scan", "parse",
          "ag_eval", "expr_eval", "vif_write", "model_compile",
          "elaborate", "netlist", "levelize", "codegen", "kernel_run",
          "job")

#: ``(layer.counter, unit)`` read at the layer boundaries.
COUNTERS = (
    ("library_open.units_loaded", "count"),
    ("scan.tokens", "count"),
    ("parse.nodes", "count"),
    ("ag_eval.rule_firings", "count"),
    ("ag_eval.memo_hits", "count"),
    ("ag_eval.memo_misses", "count"),
    ("vif_write.bytes", "bytes"),
    ("model_compile.source_bytes", "bytes"),
    ("elaborate.signals", "count"),
    ("elaborate.processes", "count"),
    ("codegen.programs_built", "count"),
    ("codegen.compiled_procs", "count"),
    ("codegen.slot_signals", "count"),
    ("kernel_run.timesteps", "count"),
    ("kernel_run.delta_cycles", "count"),
    ("kernel_run.resumes", "count"),
    ("kernel_run.signal_events", "count"),
)

#: Span names the server records (``GET /trace``) -> ledger layer.
#: Names not listed roll up as ``serve.build``.
SERVER_LAYERS = {
    "scan": "scan",
    "parse": "parse",
    "attribute_evaluation": "ag_eval",
    "model_compile": "model_compile",
    "elaborate": "elaborate",
    "codegen": "codegen",
    "kernel_run": "kernel_run",
    "timestep": "kernel_run",
    "process_resume": "kernel_run",
    "request": "serve.request",
    "queue_wait": "serve.queue_wait",
    "compile_batch": "serve.compile_batch",
    "batch_member": "serve.batch_member",
    "sim": "serve.sim",
}
#: Sampled kernel spans: time in kernel_run, but not kernel_run calls.
KERNEL_SAMPLES = ("timestep", "process_resume")
SERVE_LAYERS = ("serve.request", "serve.queue_wait", "serve.compile_batch",
                "serve.batch_member", "serve.sim", "serve.build")


def count_nodes(tree):
    """Nonterminal nodes of a parse tree."""
    n = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.child_trees())
    return n


class Ledger:
    """Span recorder and entry-point patcher for one traced run."""

    def __init__(self):
        self.events = []
        #: counters summed over every traced job, and over the first
        #: ledger pass only (:meth:`close_pass` freezes the latter)
        self.counters = Counter()
        self.first_pass = None
        self._first_events = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self._deferred = []
        self._epoch_us = time.time() * 1e6 - time.perf_counter() * 1e6
        self.recording = False

    # -- spans -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, ctx=None, **args):
        """One complete event around the body, identified by ``ctx`` or
        else a child of the innermost open span of this thread.  Yields
        the span's :class:`SpanContext`."""
        from repro.trace.context import SpanContext, make_span

        stack = self._stack()
        if ctx is None:
            ctx = stack[-1].child() if stack else SpanContext()
        stack.append(ctx)
        t0 = time.perf_counter()
        try:
            yield ctx
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.events.append(make_span(
                name, ctx, self._epoch_us + t0 * 1e6, (t1 - t0) * 1e6,
                cat="pipeline", **args))

    @contextmanager
    def job(self, name, **args):
        """A root span for one user call; deferred counter reads run
        after it closes.  Yields its :class:`SpanContext`."""
        from repro.trace.context import SpanContext

        try:
            with self.span("job", SpanContext(), call=name, **args) as ctx:
                yield ctx
        finally:
            deferred, self._deferred = self._deferred, []
            for read in deferred:
                read()

    def count(self, name, value):
        with self._lock:
            self.counters[name] += value

    def close_pass(self):
        """Freeze the first pass's counters and span calls (the exact
        counts; later passes add only to the totals)."""
        if self.first_pass is None:
            self.first_pass = Counter(self.counters)
            self._first_events = len(self.events)

    def first_names(self):
        """Span names recorded in the first pass."""
        return [ev["name"] for ev in self.events[:self._first_events]]

    def add_events(self, events):
        """Adopt spans recorded elsewhere (the server's ``/trace``)."""
        with self._lock:
            self.events.extend(events)

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, layer, before=None, after=None):
        """Wrap ``owner.attr`` in a span of ``layer`` (a name, or a
        function of the call's arguments returning one or ``None`` for
        no span).  ``before(args, kwargs)`` and ``after(state, args,
        kwargs, result)`` read counters around the span."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        ledger = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = layer(args) if callable(layer) else layer
            if name is None or not ledger.recording:
                return original(*args, **kwargs)
            state = before(args, kwargs) if before else None
            with ledger.span(name):
                result = original(*args, **kwargs)
            if after:
                after(state, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        """Wrap every layer's entry point (idempotent per ledger)."""
        if self._patches:
            return
        from repro.ag import spec
        from repro.analysis import dataflow, netlist
        from repro.sim import compiled
        from repro.vhdl import compiler, elaborate, expr_grammar, grammar
        from repro.vhdl import library
        from repro.vif import io as vif_io

        principal = grammar.principal_grammar
        count = self.count

        def defer(read):
            self._deferred.append(read)

        # translator: only the calls that generate a grammar.
        def cold(module):
            return lambda args: (
                "translator" if module._GRAMMAR is None else None)

        self._patch(compiler, "principal_grammar", cold(grammar))
        self._patch(expr_grammar, "expr_grammar", cold(expr_grammar))

        self._patch(
            library.LibraryManager, "__init__", "library_open",
            after=lambda s, a, k, r: count(
                "library_open.units_loaded", len(a[0].compile_order) - 1))
        self._patch(vif_io.VIFReader, "read_unit", "vif_read")
        self._patch(compiler, "scan", "scan",
                    after=lambda s, a, k, r: count("scan.tokens", len(r)))

        # The cascaded exprEval parses and evaluates with the
        # expression grammar, nested inside ag_eval.
        def ag_layer(kind):
            return lambda args: (kind if args[0] is principal()
                                 else "expr_eval")

        def nodes(state, args, kwargs, tree):
            if args[0] is principal():
                defer(lambda: count("parse.nodes", count_nodes(tree)))

        self._patch(spec.CompiledAG, "parse", ag_layer("parse"),
                    after=nodes)

        def observed(args, kwargs):
            observer = kwargs.get("observer")
            if observer is None or args[0] is not principal():
                return None
            return (observer, observer.total_firings,
                    observer.cache_hits, observer.cache_misses)

        def firings(state, args, kwargs, result):
            if state is not None:
                observer, fired, hits, misses = state
                count("ag_eval.rule_firings",
                      observer.total_firings - fired)
                count("ag_eval.memo_hits", observer.cache_hits - hits)
                count("ag_eval.memo_misses",
                      observer.cache_misses - misses)

        self._patch(spec.CompiledAG, "evaluate", ag_layer("ag_eval"),
                    before=observed, after=firings)
        self._patch(
            vif_io.VIFWriter, "write", "vif_write",
            after=lambda s, a, k, payload: defer(lambda: count(
                "vif_write.bytes", len(json.dumps(payload)))))
        self._patch(
            compiler, "compile_model", "model_compile",
            after=lambda s, a, k, r: count("model_compile.source_bytes",
                                           len(a[0])))

        def design_size(state, args, kwargs, sim):
            count("elaborate.signals", len(sim.kernel.signals))
            count("elaborate.processes", len(sim.kernel.processes))

        self._patch(elaborate.Elaborator, "elaborate", "elaborate",
                    after=design_size)
        self._patch(netlist, "build_netlist", "netlist")
        self._patch(dataflow, "levelize", "levelize")

        def specialized(state, args, kwargs, result):
            kernel = args[0]
            count("codegen.compiled_procs", kernel.compiled_procs)
            count("codegen.slot_signals", kernel.slot_signals)
            count("codegen.processes", len(kernel.processes))

        self._patch(compiled.CompiledKernel, "compile_design", "codegen",
                    after=specialized)
        # A cold codegen calls build_program, a cached one does not;
        # counted only, as it runs inside the codegen span.
        build_program = compiled.build_program

        def counted_build(*args, **kwargs):
            if self.recording:
                count("codegen.programs_built", 1)
            return build_program(*args, **kwargs)

        compiled.build_program = counted_build
        self._patches.append((compiled, "build_program", build_program))

        def run_before(args, kwargs):
            kernel = args[0].kernel
            return kernel.cycles, kernel.delta_cycles

        def run_after(state, args, kwargs, result):
            kernel = args[0].kernel
            cycles, deltas = state
            deltas = kernel.delta_cycles - deltas
            count("kernel_run.timesteps", kernel.cycles - cycles - deltas)
            count("kernel_run.delta_cycles", deltas)

            def activity():
                count("kernel_run.resumes",
                      sum(p.resumes for p in kernel.processes))
                count("kernel_run.signal_events",
                      sum(s.events for s in kernel.signals))

            defer(activity)

        self._patch(elaborate.Simulation, "run", "kernel_run",
                    before=run_before, after=run_after)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- output ---------------------------------------------------------------

    def write(self, path):
        """The merged Chrome trace, loadable by ``repro trace``."""
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        tmp = "%s.tmp.%d" % (path, os.getpid())
        with open(tmp, "w") as fh:
            json.dump({"traceEvents": self.events,
                       "displayTimeUnit": "ms"}, fh)
        os.replace(tmp, path)


def layer_of(name):
    """The ledger layer a span name belongs to."""
    if name in LAYERS:
        return name
    return SERVER_LAYERS.get(name, "serve.build")


def layer_self_us(events):
    """Self microseconds per layer, from the span trees'
    ``repro.trace.analyze.rollup`` rows."""
    from repro.trace import analyze

    totals = Counter()
    for row in analyze.rollup(events):
        totals[layer_of(row["path"].rsplit(" > ", 1)[-1])] += row["self_us"]
    return totals


def job_walls_us(events):
    """Durations of the job roots."""
    return [ev["dur"] for ev in events
            if ev.get("ph") == "X" and ev["name"] == "job"]


def max_gap(events):
    """The largest share by which a job's layer self times, summed
    over its tree, miss the job's wall time (overlapping children make
    the sum exceed it)."""
    from repro.trace import analyze

    worst = 0.0
    for root in analyze.build_trees(events):
        dur = root["span"].get("dur", 0.0)
        if root["span"].get("name") != "job" or not dur:
            continue
        covered = 0.0
        stack = [root]
        while stack:
            node = stack.pop()
            children = sum(c["span"].get("dur", 0.0)
                           for c in node["children"])
            covered += max(0.0, node["span"].get("dur", 0.0) - children)
            stack.extend(node["children"])
        worst = max(worst, abs(covered - dur) / dur)
    return worst
