"""Concurrency contract of the design-library layer.

Two levels:

* in-process — the copy-on-write ``LibraryManager`` publishes whole
  states, so a reader thread racing a writer never observes a
  half-committed library, and a pinned :meth:`snapshot` stays frozen
  while the writer moves on;
* multi-process — N reader processes hammer a library root (manifest
  plus VIF artifacts) while one writer process commits builds; readers
  must only ever see valid JSON and fully-formed libraries, and the
  final ``build.state.json`` must be intact (no ``.corrupt``
  quarantine files).
"""

import json
import multiprocessing
import os
import threading

import pytest

from repro.build import IncrementalBuilder
from repro.build.cache import BuildCache
from repro.vhdl.library import LibraryError, LibraryManager

ENTITY = "entity e%d is end e%d;\n"


def compile_entity(library, n):
    from repro.vhdl.compiler import Compiler

    compiler = Compiler(library=library, work="work")
    result = compiler.compile(ENTITY % (n, n), filename="e%d.vhd" % n)
    assert result.ok, result.messages
    return result


class TestSnapshotIsolation:
    def test_snapshot_pins_version_and_contents(self):
        library = LibraryManager(root=None)
        compile_entity(library, 1)
        snap = library.snapshot()
        v1 = snap.version
        order1 = list(snap.compile_order)
        compile_entity(library, 2)
        # The live manager moved on ...
        assert library.version > v1
        assert library.find_unit("work", "e2") is not None
        # ... the pinned snapshot did not.
        assert snap.version == v1
        assert list(snap.compile_order) == order1
        assert snap.find_unit("work", "e2") is None

    def test_snapshot_is_read_only(self):
        library = LibraryManager(root=None)
        compile_entity(library, 1)
        snap = library.snapshot()
        with pytest.raises(LibraryError):
            snap.register_unit("work", library.find_unit("work", "e1"))
        with pytest.raises(LibraryError):
            snap.add_library("other")

    def test_read_only_manager_rejects_writes(self, tmp_path):
        root = str(tmp_path)
        library = LibraryManager(root=root)
        compile_entity(library, 1)
        reader = LibraryManager(root=root, read_only=True)
        assert reader.find_unit("work", "e1") is not None
        with pytest.raises(LibraryError):
            reader.register_unit("work",
                                 reader.find_unit("work", "e1"))

    def test_reader_threads_race_writer_without_tearing(self):
        """Readers iterating the library mid-commit never see a
        partial state (no dict-mutation errors, no half libraries)."""
        library = LibraryManager(root=None)
        compile_entity(library, 0)
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    snap = library.snapshot()
                    order = list(snap.compile_order)
                    units = dict(snap._units)
                    # Every ordered key must resolve in the same
                    # snapshot — a torn publish would break this.
                    for lib_key in order:
                        if lib_key not in units:
                            errors.append("order/units tear: %r"
                                          % (lib_key,))
                            return
                    again = list(snap.compile_order)
                    if again != order:
                        errors.append("snapshot mutated underfoot")
                        return
                except Exception as exc:  # any raise is a failure
                    errors.append(repr(exc))
                    return

        threads = [threading.Thread(target=reader)
                   for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for n in range(1, 40):
                compile_entity(library, n)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
        assert errors == []
        assert len(library.compile_order) >= 40


def _writer_proc(root, rounds, done):
    """Commit one new source per round through the real build path."""
    src_dir = os.path.join(root, "src")
    os.makedirs(src_dir, exist_ok=True)
    lib_root = os.path.join(root, "libs")
    for n in range(rounds):
        path = os.path.join(src_dir, "e%d.vhd" % n)
        with open(path, "w") as f:
            f.write(ENTITY % (n, n))
        builder = IncrementalBuilder(lib_root, work="work", jobs=1)
        report = builder.build([path])
        if any(a == "failed" for a in report.actions.values()):
            done.put(("writer-error", n))
            return
    done.put(("writer-done", rounds))


def _reader_proc(root, stop_flag, out):
    """Reload manifest + library until told to stop; report tears."""
    lib_root = os.path.join(root, "libs")
    reads = 0
    try:
        while not stop_flag.is_set():
            if not os.path.isdir(lib_root):
                continue
            cache = BuildCache(lib_root).load()
            library = LibraryManager(root=lib_root, work="work",
                                     read_only=True)
            if library.quarantined:
                out.put(("corrupt-artifact",
                         list(library.quarantined)))
                return
            # Every unit recorded in the manifest order must be
            # loadable from the library directory right now.
            for lib, key in cache.compile_order:
                if "(" in key:
                    continue  # secondary units need their primary
                if library.find_unit(lib, key) is None:
                    out.put(("missing-unit", (lib, key)))
                    return
            reads += 1
    except Exception as exc:
        out.put(("reader-error", repr(exc)))
        return
    out.put(("reader-done", reads))


@pytest.mark.slow
class TestMultiProcessStress:
    def test_readers_race_writer_on_disk(self, tmp_path):
        """N reader processes + 1 writer: snapshot isolation on disk
        and an uncorrupted build.state.json at the end."""
        ctx = multiprocessing.get_context("fork")
        root = str(tmp_path)
        stop_flag = ctx.Event()
        out = ctx.Queue()
        rounds = 12
        n_readers = 3

        writer = ctx.Process(target=_writer_proc,
                             args=(root, rounds, out))
        readers = [ctx.Process(target=_reader_proc,
                               args=(root, stop_flag, out))
                   for _ in range(n_readers)]
        writer.start()
        for p in readers:
            p.start()
        try:
            writer.join(timeout=300)
            assert not writer.is_alive(), "writer hung"
        finally:
            stop_flag.set()
            for p in readers:
                p.join(timeout=60)
                if p.is_alive():
                    p.terminate()

        results = []
        while len(results) < 1 + n_readers:
            results.append(out.get(timeout=60))
        tags = [tag for tag, _ in results]
        bad = [r for r in results
               if r[0] not in ("writer-done", "reader-done")]
        assert bad == [], bad
        assert tags.count("writer-done") == 1
        assert tags.count("reader-done") == n_readers

        # Final state: valid manifest, all units present, nothing
        # quarantined.
        lib_root = os.path.join(root, "libs")
        with open(os.path.join(lib_root,
                               "build.state.json")) as f:
            manifest = json.load(f)
        assert manifest["compile_order"]
        assert len(manifest["compile_order"]) == rounds
        corrupt = [name for _, _, files in os.walk(lib_root)
                   for name in files if name.endswith(".corrupt")]
        assert corrupt == []
        final = LibraryManager(root=lib_root, read_only=True)
        assert final.quarantined == []
        for n in range(rounds):
            assert final.find_unit("work", "e%d" % n) is not None


class TestQuarantineDiagnostics:
    def test_corrupt_artifact_surfaces_as_diagnostic(self, tmp_path):
        root = str(tmp_path)
        library = LibraryManager(root=root)
        compile_entity(library, 1)
        # Smash one artifact on disk, then reload.
        work = os.path.join(root, "work")
        victims = [os.path.join(work, f) for f in os.listdir(work)
                   if f.endswith(".json")]
        assert victims
        with open(victims[0], "w") as f:
            f.write("{ not json")
        reloaded = LibraryManager(root=root)
        assert reloaded.quarantined
        diags = reloaded.quarantine_diagnostics()
        assert diags
        assert all(d.code == "LIB001" for d in diags)
        assert all(d.severity == "warning" for d in diags)
        # Structured rendering works (JSON lines, one per artifact).
        from repro.diag import render_jsonl

        lines = render_jsonl(diags).splitlines()
        assert len(lines) == len(diags)
        assert json.loads(lines[0])["code"] == "LIB001"

    def test_read_only_reload_does_not_move_corrupt_files(
            self, tmp_path):
        """A read-only reader must not quarantine (rename) files out
        from under the writer that owns them."""
        root = str(tmp_path)
        library = LibraryManager(root=root)
        compile_entity(library, 1)
        work = os.path.join(root, "work")
        victim = [os.path.join(work, f) for f in os.listdir(work)
                  if f.endswith(".json")][0]
        with open(victim, "w") as f:
            f.write("{ not json")
        reader = LibraryManager(root=root, read_only=True)
        assert reader.quarantined  # reported ...
        assert os.path.exists(victim)  # ... but left in place
        assert not os.path.exists(victim + ".corrupt")
