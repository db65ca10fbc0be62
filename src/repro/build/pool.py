"""A warmed fork-context worker pool shared across subsystems.

Both the incremental build scheduler and the ``repro fuzz`` sweep
runner fan CPU-bound tasks across processes the same way: a ``fork``
multiprocessing context whose parent *warms* both generated grammars
first, so every worker inherits the translators instead of loading or
building them per process.  :class:`ForkPool` owns that
recipe in one place.

The pool degrades gracefully: when ``fork`` is unavailable (or
``jobs=1``) every task runs inline in the parent, so callers get one
code path whose results are byte-identical either way —
:meth:`map_ordered` always returns results in *input* order, never
completion order.
"""

import multiprocessing
import os

from repro.trace.context import SpanContext, current_context, use


def _call_with_context(fn, ctx_dict, args):
    """Worker-side shim: re-activate the submitter's span context.

    Top-level (picklable) on purpose.  The forked worker runs ``fn``
    under the deserialized context, so any ``SpanRecorder.span`` the
    task records parents into the submitting job's span tree.
    """
    ctx = SpanContext.from_dict(ctx_dict) if ctx_dict else None
    with use(ctx):
        return fn(*args)


def fork_available():
    return (
        os.name == "posix"
        and "fork" in multiprocessing.get_all_start_methods()
    )


def warm_grammar():
    """The default warm step: load both translators -- the principal
    AG and the expression AG its rules cascade into -- so no worker
    loads or builds either on its first job."""
    from ..vhdl.expr_grammar import expr_grammar
    from ..vhdl.grammar import principal_grammar

    principal_grammar()
    expr_grammar()


class ForkPool:
    """Ordered task fan-out over warmed forked workers.

    ``warm`` runs once in the parent immediately before the executor
    is created (default: :func:`warm_grammar`).  ``on_error`` maps a
    worker exception to a substitute result — when omitted, worker
    exceptions propagate.
    """

    def __init__(self, jobs=1, warm=warm_grammar, on_error=None):
        self.jobs = max(1, int(jobs or 1))
        self.warm = warm
        self.on_error = on_error
        self._executor = None

    @property
    def parallel(self):
        return self.jobs > 1 and fork_available()

    def map_ordered(self, fn, argtuples):
        """``[fn(*args) for args in argtuples]`` — possibly forked,
        always in input order."""
        argtuples = list(argtuples)
        if not argtuples:
            return []
        if not self.parallel or len(argtuples) == 1:
            return [self._run_inline(fn, args) for args in argtuples]
        executor = self._ensure_executor()
        # Ship the ambient span context (if any) with every task, so
        # worker-side tracer events re-parent into the submitter's
        # span.  Inline runs need nothing: the context is already
        # ambient in this thread.
        ctx = current_context()
        ctx_dict = ctx.to_dict() if ctx is not None else None
        futures = [
            executor.submit(_call_with_context, fn, ctx_dict, args)
            for args in argtuples
        ]
        results = []
        for args, future in zip(argtuples, futures):
            try:
                results.append(future.result())
            except Exception as exc:
                if self.on_error is None:
                    raise
                results.append(self.on_error(args, exc))
        return results

    def _run_inline(self, fn, args):
        try:
            return fn(*args)
        except Exception as exc:
            if self.on_error is None:
                raise
            return self.on_error(args, exc)

    def _ensure_executor(self):
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            if self.warm is not None:
                self.warm()
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("fork"),
            )
        return self._executor

    def close(self):
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
