"""Elaboration: turning compiled units into a running simulation.

Generated models define ``elaborate(ctx)``; the :class:`Elaborator`
builds the design hierarchy by executing them — resolving component
bindings at this point, per the paper's §3.3 trade-off of postponing
work "until the configuration information is available".  Binding
resolution order:

1. an explicit configuration *unit* selected for the top (or bindings
   it carries for inner instances);
2. configuration *specifications* compiled into the architecture;
3. the default rules: an entity with the component's name in the work
   library, and **the latest compiled architecture for that entity** —
   the usage-history-dependent default the paper calls out as making
   descriptions non-deterministic.
"""

from ..diag.diagnostic import (
    CODE_ELAB, CODE_SIM_ASSERT, CODE_SIM_KERNEL, CODE_SIM_RUNTIME, ERROR,
    Diagnostic, drop_tracebacks,
)
from ..sim import Kernel, NameServer
from ..sim.kernel import SimulationError
from ..sim.nameserver import SEPARATOR
from ..sim.runtime import RuntimeError_
from ..sim.vhdlio import AssertionFailure
from .codegen.pymodel import compile_model, load_model
from .symtab import entry_kind


class DesignRecord:
    """The elaboration trace of one architecture or package instance.

    The elaborator appends one record per ``elaborate(ctx)`` call it
    executes, mapping the VHDL names the generated model declared to
    the elaborated kernel objects they produced — including ports,
    whose recorded :class:`~repro.sim.signals.Signal` is the *parent's
    actual* when the port map bound one.  The post-elaboration
    analyzer (:mod:`repro.analysis.netlist`) correlates these records
    with the static facts of the same units to build the flattened
    whole-design dataflow graph, and the compiled backend
    (:mod:`repro.sim.codegen`) each process's factory and operands.
    """

    __slots__ = ("path", "kind", "node", "signals", "processes",
                 "factories", "instances")

    def __init__(self, path, kind, node):
        self.path = path        # hierarchical instance path
        self.kind = kind        # 'architecture' | 'package'
        self.node = node        # the VIF unit carrying py_source
        self.signals = {}       # VHDL name -> Signal (ports included)
        self.processes = {}     # label -> Process
        #: label -> (factory ``_f<N>``'s N - 1, its operand values)
        self.factories = {}
        self.instances = {}     # label -> child DesignRecord

    def __repr__(self):
        return "<DesignRecord %s: %d signals, %d processes>" % (
            self.path, len(self.signals), len(self.processes))


class ElaborationError(Exception):
    """A binding or interface mismatch found during elaboration."""


class ElabContext:
    """The ``ctx`` object generated models receive, filling ``record``
    with what the model of its unit declares; :meth:`rows` walks the
    unit's rows."""

    def __init__(self, elaborator, record, generics=None, ports=None,
                 arch_node=None, config_rows=()):
        self._elab = elaborator
        self.kernel = elaborator.kernel
        self.rt = elaborator.kernel.rt
        self.ops = self.rt.ops
        self.path = record.path
        self._generics = dict(generics or {})
        self._ports = dict(ports or {})
        self._arch = arch_node
        self._config_rows = list(config_rows)
        self._exports = {}
        self._record = record
        self._rows = record.node.rows or ()
        self._next_row = 0
        #: the Python name -> signal each signal row bound
        self.bound = {}

    # -- interface ------------------------------------------------------------

    def generic(self, name, default=None):
        if name in self._generics:
            return self._generics[name]
        if default is None:
            raise ElaborationError(
                "generic %r of %s has no actual and no default"
                % (name, self.path))
        return default

    def port(self, name, init=0, mode="in", line=None):
        sig = self._ports.get(name)
        if sig is None:
            # Unbound/top-level port: a fresh signal.
            sig = self.signal(name, init, line=line)
        else:
            self._record.signals[name] = sig
        return sig

    # -- declarations ------------------------------------------------------------

    def _decl_span(self, line):
        """Declaration span for a generated ``line=`` coordinate.

        The architecture node carries the source file it was compiled
        from (stamped at registration), so runtime errors — the
        multi-driver resolution failure above all — can cite the same
        declaration site ``repro lint`` reports at compile time.
        """
        if line is None:
            return None
        from ..diag import SourceSpan

        src = getattr(self._arch, "source_file", None) \
            if self._arch is not None else None
        return SourceSpan(file=src or None, line=line)

    def signal(self, name, init=0, res=None, line=None):
        sig = self.kernel.signal(
            "%s%s%s" % (self.path, SEPARATOR, name), init, res)
        sig.decl_span = self._decl_span(line)
        self._elab.names.register(sig.name, "signal", sig)
        self._record.signals[name] = sig
        return sig

    def process(self, name, fn, sensitivity=None, line=None):
        proc = self.kernel.process(
            "%s%s%s" % (self.path, SEPARATOR, name), fn,
            sensitivity=sensitivity, line=line)
        self._elab.names.register(proc.name, "process", proc)
        self._record.processes[name] = proc
        return proc

    def export(self, names):
        """Package elaboration result (constants, functions, signals)."""
        self._exports.update(names)

    def rows(self, scope):
        """Elaborate the next run of the unit's rows (the rows that
        share its run index, :func:`repro.vhdl.codegen.pymodel.row_line`)
        in order, through :meth:`signal`, :meth:`process` and
        :meth:`instance`, as the statements they stand for would.  An
        operand that is a name is a signal a row bound, a name in
        ``scope`` (the model's locals) or a package's export.  Returns
        :attr:`bound`."""
        rows, i = self._rows, self._next_row
        bound = self.bound
        globals_ = self._elab._package_ns

        def value(operand):
            if type(operand) is not str:
                return operand
            if operand in bound:
                return bound[operand]
            return scope[operand] if operand in scope \
                else globals_[operand]

        run = rows[i][-1]
        while i < len(rows) and rows[i][-1] == run:
            row = rows[i]
            i += 1
            kind = row[0]
            if kind == "signal":
                bound[row[1]] = self.signal(
                    row[2], value(row[3]), value(row[4]), row[5])
            elif kind == "process":
                sens, args = row[4], tuple(map(value, row[3]))
                self.process(row[1], value(row[2])(*args),
                             None if sens is None
                             else [value(s) for s in sens], row[5])
                self._record.factories[row[1]] = (int(row[2][2:]) - 1,
                                                  args)
            else:
                self.instance(row[1], row[2],
                              {k: value(v) for k, v in row[3]},
                              {k: value(v) for k, v in row[4]})
        self._next_row = i
        return bound

    # -- structure ----------------------------------------------------------------

    def instance(self, label, comp_name, generic_map, port_map):
        """Instantiate a bound component (§3.3, both layers).  Inside a
        block, ``label`` is the instance's path below the architecture
        (``b1:u1``); configurations name it by its label as written."""
        binding = self._elab.resolve_binding(
            comp_name, label.rpartition(":")[2], self._arch,
            self._config_rows)
        if binding is None:
            raise ElaborationError(
                "no entity/architecture binding for instance %s:%s "
                "of component %r" % (self.path, label, comp_name))
        entity, arch = binding
        child_path = "%s%s%s" % (self.path, SEPARATOR, label)
        self._elab.names.register(child_path, "instance",
                                  (entity.name, arch.name))
        child = self._elab.elaborate_architecture(
            entity, arch, child_path, generics=generic_map,
            ports=port_map)
        self._record.instances[label] = child._record


class Elaborator:
    """Builds a simulation from a library's compiled units."""

    def __init__(self, library, kernel=None):
        self.library = library
        self.kernel = kernel or Kernel()
        self.names = NameServer()
        #: DesignRecord per elaborated architecture/package instance,
        #: in elaboration order (top after its packages, children
        #: after the ``ctx.instance`` call that created them).
        self.records = []
        self._package_ns = {}
        self._packages_loaded = False
        #: Each architecture's model, byte-compiled once however many
        #: instances it has, so all of them share its process
        #: factories' code objects.
        self._models = {}

    # -- packages -------------------------------------------------------------------

    def _load_packages(self):
        """Elaborate every package (and body) once, in compile order;
        their exports become the shared globals of all models."""
        if self._packages_loaded:
            return
        self._packages_loaded = True
        for lib, key in list(self.library.compile_order):
            node = self.library.find_unit(lib, key) \
                or self.library._units.get((lib, key))
            if node is None:
                continue
            kind = entry_kind(node)
            if kind not in ("package", "package_body"):
                continue
            py = getattr(node, "py_source", "")
            if not py or "elaborate" not in py:
                continue
            record = DesignRecord(SEPARATOR + node.name, "package",
                                  node)
            self.records.append(record)
            ctx = ElabContext(self, record)
            ns = load_model(compile_model(py, "%s.%s" % (lib, key)),
                            extra_globals=self._package_ns)
            ns["elaborate"](ctx)
            self._package_ns.update(ctx.bound)
            self._package_ns.update(ctx._exports)

    # -- binding resolution (§3.3) ------------------------------------------------------

    def resolve_binding(self, comp_name, label, arch_node, config_rows):
        lib = self.library.work
        # 1. configuration-unit rows for this architecture.
        for row in config_rows:
            _arch, labels, comp, blib, ent_name, arch_name = row
            label_set = labels.split(",") if isinstance(labels, str) \
                else list(labels)
            if comp != comp_name:
                continue
            if label not in label_set and "all" not in label_set \
                    and "others" not in label_set:
                continue
            return self._find_pair(blib or lib, ent_name, arch_name)
        # 2. configuration specifications baked into the architecture.
        if arch_node is not None:
            for inst in arch_node.instances:
                if inst.label == label and inst.is_bound:
                    return self._find_pair(
                        inst.bound_library or lib, inst.bound_entity,
                        inst.bound_arch)
        # 3. defaults: same-named entity, latest compiled architecture.
        entity = self.library.find_unit(lib, comp_name)
        if entity is None or entry_kind(entity) != "entity":
            return None
        arch = self.library.latest_architecture(lib, entity.name)
        if arch is None:
            return None
        return entity, arch

    def _find_pair(self, lib, ent_name, arch_name):
        entity = self.library.find_unit(lib, ent_name)
        if entity is None or entry_kind(entity) != "entity":
            raise ElaborationError("no entity %s.%s" % (lib, ent_name))
        if arch_name:
            arch = self.library.find_architecture(lib, ent_name,
                                                  arch_name)
        else:
            arch = self.library.latest_architecture(lib, ent_name)
        if arch is None:
            raise ElaborationError(
                "no architecture %r of entity %s.%s"
                % (arch_name or "<default>", lib, ent_name))
        return entity, arch

    # -- entry points ----------------------------------------------------------------------

    def elaborate_architecture(self, entity, arch, path, generics=None,
                               ports=None, config_rows=()):
        self._load_packages()
        record = DesignRecord(path, "architecture", arch)
        self.records.append(record)
        ctx = ElabContext(self, record, generics, ports, arch,
                          config_rows)
        name = "%s(%s)" % (arch.name, entity.name)
        key = (name, arch.py_source)
        if key not in self._models:
            self._models[key] = compile_model(arch.py_source, name)
        ns = load_model(self._models[key], extra_globals=self._package_ns)
        ns["elaborate"](ctx)
        return ctx

    def elaborate(self, top, arch_name=None, generics=None, lib=None):
        """Elaborate a top unit: an entity name or a configuration
        name.  Returns a :class:`Simulation`; when the design does not
        elaborate, or elaboration code fails a runtime check or an
        assertion, its ``ok`` is False and it carries one ``ELAB001``.
        The work is one ``elaborate`` span on the kernel's recorder.
        """
        try:
            with self.kernel.trace.span("elaborate", cat="sim"):
                self._elaborate_top(top, arch_name, generics,
                                    lib or self.library.work)
        except (ElaborationError, RuntimeError_, AssertionFailure) as exc:
            return Simulation(self.kernel, self.names, self.records, exc)
        return Simulation(self.kernel, self.names, self.records)

    def _elaborate_top(self, top, arch_name, generics, lib):
        config_rows = ()
        node = self.library.find_unit(lib, top)
        if node is None:
            raise ElaborationError("no unit %r in library %r"
                                   % (top, lib))
        if entry_kind(node) == "configuration":
            config_rows = [tuple(row) for row in node.bindings]
            entity = node.entity or self.library.find_unit(
                lib, node.entity_name)
            # The configuration's ``for <arch>`` row names the arch.
            arch_name = arch_name or (
                node.bindings[0][0] if node.bindings else None)
            if arch_name:
                arch = self.library.find_architecture(
                    lib, entity.name, arch_name)
            else:
                arch = self.library.latest_architecture(lib, entity.name)
        elif entry_kind(node) == "entity":
            entity = node
            if arch_name:
                arch = self.library.find_architecture(lib, top, arch_name)
            else:
                arch = self.library.latest_architecture(lib, top)
        else:
            raise ElaborationError(
                "unit %r is a %s, not an entity or configuration"
                % (top, entry_kind(node)))
        if arch is None:
            raise ElaborationError(
                "entity %r has no compiled architecture" % top)
        path = SEPARATOR + entity.name
        self.names.register(path, "instance", (entity.name, arch.name))
        self.elaborate_architecture(entity, arch, path,
                                    generics=generics,
                                    config_rows=config_rows)


class Simulation:
    """An elaborated design and the outcome of running it.

    Every design ends in one: ``ok`` is False once elaboration or a
    run failed, ``diagnostics`` then holds the one diagnostic saying
    why and ``error`` the exception (its tracebacks dropped, as
    ``CompileResult.error``).  The kernel's state at the stop stays
    readable.
    """

    def __init__(self, kernel, names, records=(), error=None):
        self.kernel = kernel
        self.names = names
        self.records = list(records)
        self.error = None
        self.diagnostics = []
        self._graph = None
        if error is not None:
            self._fail(CODE_ELAB, error)

    @property
    def ok(self):
        return self.error is None

    def _fail(self, code, exc):
        self.error = drop_tracebacks(exc)
        self.diagnostics.append(Diagnostic(
            code, ERROR, str(exc), span=getattr(exc, "span", None)))

    def netlist(self):
        """The design's :class:`~repro.analysis.netlist.DesignGraph`,
        built once; a compiled run reuses it."""
        if self._graph is None:
            from ..analysis import build_netlist

            self._graph = build_netlist(self.records)
        return self._graph

    def run(self, until_fs=None, max_cycles=None):
        """Run the kernel (see :meth:`Kernel.run`); returns the stop
        time.  A compiled kernel not yet specialized is specialized
        first.  A kernel limit (``SIM001``), an assertion of severity
        failure (``SIM002``) or a failed runtime check (``SIM003``)
        ends the run as a diagnostic; a failed simulation does not
        run.  Any other exception is a bug and propagates.  The run,
        codegen included, is one ``kernel_run`` span on the kernel's
        recorder."""
        kernel = self.kernel
        if not self.ok:
            return kernel.now
        try:
            with kernel.trace.span("kernel_run", cat="sim"):
                if hasattr(kernel, "compile_design") \
                        and kernel.program is None:
                    with kernel.trace.span("codegen", cat="sim"):
                        kernel.compile_design(self.records,
                                              graph=self._graph)
                kernel.run(until=until_fs, max_cycles=max_cycles)
        except SimulationError as exc:
            self._fail(CODE_SIM_KERNEL, exc)
        except AssertionFailure as exc:
            self._fail(CODE_SIM_ASSERT, exc)
        except RuntimeError_ as exc:
            self._fail(CODE_SIM_RUNTIME, exc)
        return kernel.now

    def report_lines(self):
        """The stop line and one line per signal with its value: what
        ``repro sim`` prints and serve ``/sim`` answers."""
        from ..sim.tracing import format_fs

        lines = ["simulation stopped at %s (%d cycles)"
                 % (format_fs(self.kernel.now), self.kernel.cycles)]
        for path, sig in self.names.signals():
            lines.append("  %-30s = %s" % (path, sig.image(sig.value)))
        return lines

    def signal(self, name):
        """Find a signal by suffix (e.g. 'count') or full path."""
        obj = self.names.lookup(name)
        if obj is not None:
            return obj
        paths = self.names.by_suffix(name)
        signals = [self.names.lookup(p) for p in paths
                   if self.names.kind_of(p) == "signal"]
        if len(signals) == 1:
            return signals[0]
        if not signals:
            raise KeyError("no signal %r" % name)
        raise KeyError("ambiguous signal %r: %s" % (name, paths))

    def value(self, name):
        return self.signal(name).value

    @property
    def now(self):
        return self.kernel.now
