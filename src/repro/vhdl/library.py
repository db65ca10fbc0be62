"""Design libraries and separate compilation.

"The compiler accepts a file containing compilation units, a list of
compiler directives, a working library where the successfully compiled
units are placed and a reference library which can be referenced in
addition to the work library but which can not be updated."

The manager tracks compile order because §3.3's default-configuration
rule is *usage-history* dependent: "the default for an architecture
name in the binding of a component to an entity-architecture is the
latest compiled architecture for that entity", which "makes the VHDL
description itself non-deterministic" — benchmark E5 and the
separate-compilation example exercise exactly this.

A unit is stored as its VIF payload and nothing else: the payload
carries the generated Python model (``py_source``), and the
illustrative C text is derived from that model on demand
(:func:`repro.vhdl.codegen.cmodel.c_model`).  The shared
:class:`repro.vif.io.VIFReader` resolves foreign references so a
declaration read from two different units is one node object.

Concurrency model (the ``repro serve`` substrate): the in-memory
contents live in one immutable :class:`_State` (units dict, compile
order, version) that is *published* by plain attribute assignment.
Readers capture the current state once per query — or pin one with
:meth:`LibraryManager.snapshot` for a whole job — and therefore never
observe a half-applied commit.  Writers serialize on a single commit
lock and write a unit's one file (atomic tempfile + ``os.replace``)
*before* publishing, so a racing reader sees either the old unit or
the new one, in memory and, unit by unit, on disk alike.  ``read_only``
managers additionally refuse registration and never move quarantined
files they do not own.
"""

import json
import os
import tempfile
import threading

from ..vif.core import VIFError
from ..vif.io import VIFReader, VIFWriter, dump_unit, unit_depends
from .stdpkg import standard
from .symtab import entry_kind


def unit_filename(key, suffix):
    """Filesystem-safe artifact name for a unit key (shared with the
    incremental-build driver, which probes artifacts directly)."""
    safe = "".join(ch if ch.isalnum() or ch in "()._-" else "_"
                   for ch in key)
    return "%s.%s" % (safe, suffix)


def _atomic_write(path, text):
    """Write ``text`` to ``path`` via tempfile + ``os.replace`` so a
    crash mid-write can never leave a truncated artifact behind."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.",
                               suffix=".part")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def unit_key(node):
    """Storage key for a unit node."""
    kind = entry_kind(node)
    if kind == "architecture":
        return "%s(%s)" % (node.name, node.entity_name)
    if kind == "package_body":
        return "body(%s)" % node.name
    return node.name


class LibraryError(Exception):
    """Missing library/unit or an attempt to update a reference library."""


class _State:
    """One immutable published version of the in-memory library.

    ``units`` and ``order`` are never mutated after publication; a
    commit builds replacements and swaps the whole object in a single
    attribute store, which is atomic under the GIL."""

    __slots__ = ("units", "order", "version")

    def __init__(self, units, order, version):
        self.units = units    # {(lib, key): unit node}
        self.order = order    # ((lib, key), ...) registration order
        self.version = version


class _LibraryQueries:
    """Query surface shared by the live manager and pinned snapshots.

    Every method captures ``self._view()`` exactly once, so a single
    query is internally consistent even while a writer publishes."""

    def _view(self):
        raise NotImplementedError

    def find_unit(self, lib, name):
        """A primary unit by simple name (entity/package/config)."""
        return self._view().units.get((lib, name))

    def find_architecture(self, lib, entity_name, arch_name):
        return self._view().units.get(
            (lib, "%s(%s)" % (arch_name, entity_name)))

    def find_package_body(self, lib, pkg_name):
        return self._view().units.get((lib, "body(%s)" % pkg_name))

    def units_of(self, lib):
        """(key, node) pairs of one library, in compile order."""
        state = self._view()
        return [
            (key, state.units[(l, key)])
            for l, key in state.order
            if l == lib
        ]

    def latest_architecture(self, lib, entity_name):
        """The §3.3 default rule: latest *compiled* architecture."""
        state = self._view()
        suffix = "(%s)" % entity_name
        latest = None
        for l, key in state.order:
            if l == lib and key.endswith(suffix):
                latest = state.units[(l, key)]
        return latest

    @property
    def compile_order(self):
        """The registration order, as a fresh list (callers may slice
        and index; they must not try to mutate the library through
        it)."""
        return list(self._view().order)

    @property
    def _units(self):
        """The published units mapping (read-only by convention)."""
        return self._view().units


class LibraryManager(_LibraryQueries):
    """A set of design libraries (in memory, optionally disk-backed).

    ``read_only=True`` opens the root purely for reading: registration
    raises :class:`LibraryError` and corrupt artifacts are recorded in
    ``quarantined`` but never renamed (the files belong to the
    writer).  Concurrent reader jobs in one process should pin a
    :meth:`snapshot` instead of re-querying the live manager when they
    need one frozen view across many lookups.
    """

    def __init__(self, root=None, work="work", reference_libs=(),
                 read_only=False):
        self.root = root
        self.work = work
        self.read_only = bool(read_only)
        self._write_lock = threading.RLock()
        self._payloads = {}   # (lib, key) -> VIF payload (append-only)
        self._libraries = {work, "std"}
        self._libraries.update(reference_libs)
        self._read_only = set(reference_libs) | {"std"}
        #: Corrupt on-disk artifacts moved aside at load time:
        #: [(path, reason), ...] — inspect (or render via
        #: :meth:`quarantine_diagnostics`) instead of crashing.
        self.quarantined = []
        self.reader = VIFReader(self._load_payload)
        std = standard()
        self._payloads[("std", "standard")] = std.payload
        # Foreign references into STANDARD must resolve to the
        # singleton's node objects (identity-based typing), not to
        # copies materialized from the payload.
        self.reader.seed("std", "standard", std.node_table,
                         {"unit": std.package})
        self._state = _State({("std", "standard"): std.package},
                             (("std", "standard"),), 0)
        if root is not None:
            self._load_root()

    # -- state publication -------------------------------------------------

    def _view(self):
        return self._state

    def _publish(self, units, order):
        self._state = _State(units, tuple(order),
                             self._state.version + 1)

    @property
    def version(self):
        """Monotonic commit counter of the published state."""
        return self._state.version

    def snapshot(self):
        """A read-only view pinned to the current published state."""
        return LibrarySnapshot(self)

    # -- queries ---------------------------------------------------------------

    def has_library(self, name):
        return name in self._libraries

    def add_library(self, name, read_only=False):
        self._libraries.add(name)
        if read_only:
            self._read_only.add(name)

    # -- registration ------------------------------------------------------------

    def register_unit(self, lib, node):
        """Place a successfully compiled unit into a library.

        Recompiling a unit replaces it; compile order is extended, so
        the latest-architecture default tracks usage history.  The
        commit is single-writer (serialized on the manager's commit
        lock) and publishes in-memory state only after the VIF file
        landed, so concurrent snapshot readers see either the whole
        unit or none of it.
        """
        if self.read_only:
            raise LibraryError(
                "library manager opened read-only; cannot register "
                "%r into %r" % (unit_key(node), lib))
        if lib in self._read_only:
            raise LibraryError(
                "library %r is a reference library and cannot be "
                "updated" % lib)
        if lib not in self._libraries:
            raise LibraryError("unknown library %r" % lib)
        key = unit_key(node)
        writer = VIFWriter(lib, key)
        payload = writer.write({"unit": node})
        with self._write_lock:
            if self.root is not None:
                self._store(lib, key, payload)
            self._payloads[(lib, key)] = payload
            state = self._state
            units = dict(state.units)
            units[(lib, key)] = node
            self._publish(units, state.order + ((lib, key),))
        return key

    def install_unit(self, lib, key, node, payload=None):
        """Adopt an already-compiled unit — e.g. a stored VIF payload
        rehydrated in a fresh session — without re-running the writer
        or touching the disk.  Same commit discipline as
        :meth:`register_unit` (single writer, whole-state publish)."""
        if self.read_only:
            raise LibraryError(
                "library manager opened read-only; cannot install "
                "%r into %r" % (key, lib))
        if lib in self._read_only:
            raise LibraryError(
                "library %r is a reference library and cannot be "
                "updated" % lib)
        with self._write_lock:
            self._libraries.add(lib)
            if payload is not None:
                self._payloads[(lib, key)] = payload
            state = self._state
            units = dict(state.units)
            units[(lib, key)] = node
            self._publish(units, state.order + ((lib, key),))
        return key

    # -- VIF access -----------------------------------------------------------------

    def _load_payload(self, lib, key):
        payload = self._payloads.get((lib, key))
        if payload is None and self.root is not None:
            path = self._path(lib, key)
            if os.path.exists(path):
                try:
                    with open(path) as f:
                        payload = json.load(f)
                except (json.JSONDecodeError, UnicodeDecodeError,
                        OSError) as exc:
                    self._quarantine(path, str(exc))
                    return None
                self._payloads[(lib, key)] = payload
        return payload

    def _quarantine(self, path, reason):
        """Record a corrupt artifact and (when this manager owns the
        root) move it aside as ``*.corrupt`` so the unit reads as
        missing instead of raising at load time.  Read-only managers
        only record: the writer owns the files, and yanking one from
        under it would turn *our* race into *its* corruption."""
        self.quarantined.append((path, reason))
        if self.read_only:
            return
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            pass

    def quarantine_diagnostics(self):
        """The quarantine log as structured diagnostics (code LIB001),
        ready for the same renderers as compile diagnostics."""
        from ..diag import Diagnostic, SourceSpan
        from ..diag.diagnostic import CODE_LIB, WARNING

        return [
            Diagnostic(CODE_LIB, WARNING,
                       "corrupt library artifact quarantined: %s"
                       % reason,
                       span=SourceSpan(file=path))
            for path, reason in self.quarantined
        ]

    def payload_of(self, lib, key):
        return self._load_payload(lib, key)

    def dump_vif(self, lib, key):
        """The human-readable VIF form of a stored unit."""
        payload = self._load_payload(lib, key)
        if payload is None:
            raise LibraryError("no VIF for %s.%s" % (lib, key))
        return dump_unit(payload)

    def read_foreign(self, lib, key):
        """Re-read a unit through the VIF reader (foreign-reference
        path; used by benches to measure VIF time)."""
        return self.reader.read_unit(lib, key)["unit"]

    def depends_of(self, lib, key):
        """The stored dependency metadata of a unit: the ``(library,
        unit)`` pairs its VIF payload records foreign references to
        (what the compile actually read, per the writer's depends
        set)."""
        payload = self._load_payload(lib, key)
        if payload is None:
            return []
        return unit_depends(payload)

    def apply_compile_order(self, recorded):
        """Reorder ``compile_order`` to match a recorded sequence.

        Disk loading is alphabetical; an incremental build records the
        true deterministic order so §3.3's latest-architecture default
        is reproducible across sessions.  Entries not mentioned in
        ``recorded`` (STANDARD, reference units) keep their relative
        position at the front."""
        recorded = [tuple(e) for e in recorded]
        with self._write_lock:
            state = self._state
            present = set(state.order)
            recorded_set = set(recorded)
            order = [
                e for e in state.order if e not in recorded_set
            ] + [e for e in recorded if e in present]
            self._publish(state.units, order)

    # -- disk persistence ----------------------------------------------------------

    def _path(self, lib, key):
        return os.path.join(self.root, lib, unit_filename(key, "vif.json"))

    def _store(self, lib, key, payload):
        os.makedirs(os.path.join(self.root, lib), exist_ok=True)
        _atomic_write(self._path(lib, key),
                      json.dumps(payload, indent=1))

    def _load_root(self):
        if not os.path.isdir(self.root):
            return
        state = self._state
        units = dict(state.units)
        loaded = []
        for lib in sorted(os.listdir(self.root)):
            lib_dir = os.path.join(self.root, lib)
            if not os.path.isdir(lib_dir):
                continue
            self._libraries.add(lib)
            for fname in sorted(os.listdir(lib_dir)):
                if not fname.endswith(".vif.json"):
                    continue
                key = fname[: -len(".vif.json")]
                try:
                    roots = self.reader.read_unit(lib, key)
                except VIFError as exc:
                    # Corrupt JSON was already quarantined by
                    # _load_payload; a structurally bad payload is
                    # quarantined here.  Either way, skip the unit.
                    path = os.path.join(lib_dir, fname)
                    if os.path.exists(path):
                        self._quarantine(path, str(exc))
                    continue
                units[(lib, key)] = roots["unit"]
                loaded.append((lib, key))
        self._publish(units, list(state.order) + self._dependency_order(
            loaded))

    def _dependency_order(self, loaded):
        """``loaded`` (file-name order) reordered so that every unit
        follows what it depends on: a package body its declaration, a
        client the packages its VIF references.  File-name order breaks
        ties, so independent units keep their order."""
        present = set(loaded)
        order = []
        placed = set()

        def pending(entry):
            lib, key = entry
            deps = self.depends_of(lib, key)
            if key.startswith("body(") and key.endswith(")"):
                deps = [(lib, key[len("body("):-1])] + deps
            return iter([d for d in deps if d in present])

        # Depth-first, with an explicit stack so a long chain of
        # packages cannot exhaust the recursion limit.
        for root in loaded:
            if root in placed:
                continue
            placed.add(root)  # marked on entry: cycles terminate
            stack = [(root, pending(root))]
            while stack:
                entry, deps = stack[-1]
                dep = next((d for d in deps if d not in placed), None)
                if dep is None:
                    stack.pop()
                    order.append(entry)
                else:
                    placed.add(dep)
                    stack.append((dep, pending(dep)))
        return order


class LibrarySnapshot(_LibraryQueries):
    """A read-only library view pinned to one published state.

    All structural queries answer from the captured state even while
    the owning manager commits new units.  Payload access delegates to
    the owner — its payload cache is append-only, and a payload, once
    written for a (lib, key), is only ever replaced by a re-commit of
    the same unit."""

    read_only = True

    def __init__(self, owner):
        self._owner = owner
        self._snap = owner._view()
        self.root = owner.root
        self.work = owner.work
        self.reader = owner.reader
        self.quarantined = owner.quarantined

    def _view(self):
        return self._snap

    @property
    def version(self):
        return self._snap.version

    def snapshot(self):
        return self

    def has_library(self, name):
        return self._owner.has_library(name)

    def register_unit(self, lib, node):
        raise LibraryError(
            "cannot register units through a library snapshot")

    def add_library(self, name, read_only=False):
        raise LibraryError(
            "cannot add libraries through a library snapshot")

    def payload_of(self, lib, key):
        return self._owner.payload_of(lib, key)

    def dump_vif(self, lib, key):
        return self._owner.dump_vif(lib, key)

    def read_foreign(self, lib, key):
        return self._owner.read_foreign(lib, key)

    def depends_of(self, lib, key):
        return self._owner.depends_of(lib, key)

    def quarantine_diagnostics(self):
        return self._owner.quarantine_diagnostics()
