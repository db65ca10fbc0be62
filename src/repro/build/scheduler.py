"""Topological batch scheduling and the per-file compile task.

Files are layered with Kahn's algorithm over a *syntactic* file-level
dependency approximation (harvested from the token stream, see
:func:`harvest_names`) so that a cold build — where no semantic
dependency data exists yet — can still be parallelized safely.  The
semantic unit-level graph from the VIF ``depends`` sets takes over for
*invalidation* once a build has run.

Both the serial and the parallel path execute the exact same
:func:`compile_file_task` (a fresh disk-backed library per file), so a
``--jobs N`` build produces byte-identical artifacts to a serial one.
Parallel workers run under a ``fork`` multiprocessing context: the
parent warms both generated grammars once and every worker inherits
them instead of re-running the Linguist step.

Compile-*order* is recorded deterministically from the schedule
(batch by batch, input order within a batch), never from worker
completion order, so §3.3's usage-history-dependent
latest-architecture default stays reproducible.
"""

import os

from .fingerprint import interface_digest
from .pool import ForkPool, fork_available

#: Token kinds that terminate a selected-name path.
_NAME_END = {"DOT"}


def harvest_names(tokens, work="work", reference_libs=()):
    """Syntactic (provides, requires) name sets of one design file.

    ``provides`` — primary-unit names the file declares (entities,
    packages, configurations).  ``requires`` — primary-unit names the
    compile will need resolved: ``use`` paths, the target entity of
    architectures/configurations, packages of package bodies, and
    ``lib.name`` selected prefixes for any visible library name.
    This is a conservative approximation used only for *scheduling*;
    correctness of invalidation rests on the semantic VIF ``depends``
    sets.
    """
    provides = set()
    requires = set()
    libnames = {work.lower(), "work", "std"}
    libnames.update(l.lower() for l in reference_libs)
    toks = list(tokens)

    def kind(i):
        return toks[i].kind if 0 <= i < len(toks) else None

    def val(i):
        if 0 <= i < len(toks):
            v = toks[i].value
            return v.lower() if isinstance(v, str) else None
        return None

    i = 0
    while i < len(toks):
        k = kind(i)
        if k == "kw_library":
            j = i + 1
            while kind(j) in ("ID", "COMMA"):
                if kind(j) == "ID":
                    libnames.add(val(j))
                j += 1
            i = j
            continue
        if k == "kw_entity" and kind(i + 1) == "ID" \
                and kind(i + 2) == "kw_is":
            provides.add(val(i + 1))
            i += 3
            continue
        if k == "kw_package" and kind(i + 1) == "kw_body" \
                and kind(i + 2) == "ID":
            requires.add(val(i + 2))
            i += 3
            continue
        if k == "kw_package" and kind(i + 1) == "ID":
            provides.add(val(i + 1))
            i += 2
            continue
        if k in ("kw_architecture", "kw_configuration") \
                and kind(i + 1) == "ID" and kind(i + 2) == "kw_of" \
                and kind(i + 3) == "ID":
            if k == "kw_configuration":
                provides.add(val(i + 1))
            requires.add(val(i + 3))
            i += 4
            continue
        if k == "ID" and val(i) in libnames and kind(i + 1) == "DOT" \
                and kind(i + 2) == "ID":
            requires.add(val(i + 2))
            i += 3
            continue
        i += 1
    return provides, requires - provides


def file_batches(paths, deps):
    """Kahn layering of ``paths``; ``deps[p]`` names the files ``p``
    needs compiled first.  Input order is the tie-break within a
    batch, and a (spurious, syntactically-induced) cycle degrades to
    singleton batches in input order rather than failing.
    """
    index = {p: i for i, p in enumerate(paths)}
    remaining = {
        p: {d for d in deps.get(p, ()) if d in index and d != p}
        for p in paths
    }
    batches = []
    while remaining:
        ready = sorted(
            (p for p, d in remaining.items() if not d),
            key=index.__getitem__,
        )
        if not ready:
            for p in sorted(remaining, key=index.__getitem__):
                batches.append([p])
            break
        batches.append(ready)
        ready_set = set(ready)
        for p in ready:
            del remaining[p]
        for d in remaining.values():
            d -= ready_set
    return batches


def compile_file_task(root, work, reference_libs, path):
    """Compile one source file against the on-disk library root.

    Runs in a worker process (or inline for a serial build) and
    returns only picklable primitives: produced units with their
    ``depends`` edges and interface digests, diagnostics (both legacy
    strings and structured dicts), and phase-trace events (carrying
    this worker's pid, so the driver's merged Chrome trace shows one
    row per worker).
    """
    from ..vhdl.compiler import CompileError, Compiler
    from ..vhdl.library import LibraryManager

    library = LibraryManager(
        root=root, work=work, reference_libs=tuple(reference_libs)
    )
    compiler = Compiler(library=library, work=work, strict=False)
    try:
        # One wrapping span per file: in a forked worker the pool has
        # re-activated the submitting batch's span context, so this
        # (and the compiler phases nested in it) re-parent into the
        # driver's tree across the process boundary.
        with compiler.tracer.span("compile_file", cat="build",
                                  file=os.path.basename(path)):
            result = compiler.compile_file(path)
    except (CompileError, OSError) as exc:
        messages = getattr(exc, "messages", None) or [str(exc)]
        diagnostics = [
            d.to_dict() for d in getattr(exc, "diagnostics", ())
        ]
        return {
            "path": path,
            "ok": False,
            "messages": list(messages),
            "units": [],
            "source_lines": 0,
            "diagnostics": diagnostics,
            "trace": compiler.tracer.events(),
            "ag_stats": compiler.observer.as_dict(),
        }
    units = []
    for lib, key in result.registered_units:
        payload = library.payload_of(lib, key)
        units.append({
            "lib": lib,
            "key": key,
            "depends": [list(d) for d in payload.get("depends", [])],
            "digest": interface_digest(payload),
        })
    return {
        "path": path,
        "ok": result.ok,
        "messages": list(result.messages),
        "units": units,
        "source_lines": result.source_lines,
        "diagnostics": [d.to_dict() for d in result.diagnostics],
        "trace": compiler.tracer.events(),
        "ag_stats": compiler.observer.as_dict(),
    }


def _fork_available():
    # Kept as an alias: diagnostics tests (and older callers) import
    # the gate from here; the implementation lives with the pool.
    return fork_available()


def _worker_failure(args, exc):
    """Substitute result for a crashed build worker: report, go on."""
    path = args[-1]
    return {
        "path": path,
        "ok": False,
        "messages": ["internal: build worker failed: %s" % exc],
        "units": [],
        "source_lines": 0,
        "diagnostics": [],
        "trace": [],
        "ag_stats": {},
    }


class Scheduler:
    """Runs compile batches serially or on a fork-based worker pool.

    The pool itself — warmed ``fork`` workers, ordered results,
    inline degradation — is the shared :class:`~repro.build.pool.ForkPool`;
    this class only binds it to :func:`compile_file_task`.
    """

    def __init__(self, root, work="work", reference_libs=(), jobs=1):
        self.root = root
        self.work = work
        self.reference_libs = tuple(reference_libs)
        self.pool = ForkPool(jobs=jobs, on_error=_worker_failure)

    @property
    def jobs(self):
        return self.pool.jobs

    @property
    def parallel(self):
        return self.pool.parallel

    def run_batch(self, paths):
        """Compile ``paths`` (one batch); results in input order."""
        return self.pool.map_ordered(
            compile_file_task,
            [(self.root, self.work, self.reference_libs, p)
             for p in paths])

    def close(self):
        self.pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
