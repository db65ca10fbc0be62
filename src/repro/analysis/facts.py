"""Dataflow facts of compiled VIF units, as the rules consume them.

The linter runs *post-compile, pre-elaboration*.  Its facts are the
ones the attribute grammar computed while it generated each unit's
code and stored in the unit's VIF payload:

* ``ArchUnit.processes`` — one record per process (see
  :meth:`repro.vhdl.flow.Flow.record`): which signals it *reads*
  (and whether the read is guarded by an ``'EVENT`` test — the
  clocked-process idiom whose data reads do not belong in the
  sensitivity list), which it *drives* and with what delay class, its
  declared *sensitivity* and its *wait topology* (the waits it can
  reach, wait-less infinite loops that can never suspend, and the
  statements after them);
* ``InstanceEntry.connections`` — each instance's port map;
* the object table: the entity's ``ports`` and the signals among the
  unit's ``decls`` (plus ``ArchUnit.block_signals``), with modes,
  resolution presence and declaring source lines.

This module only reads those tables into the classes below.  The
facts are rule-agnostic; :mod:`repro.analysis.rules` and
:mod:`repro.analysis.netlist` consume them.  Units that generate no
model (entities, configurations) have empty facts.
"""

from collections import namedtuple

from ..vhdl import vtypes
from ..vhdl.flow import Drive, Flow
from ..vhdl.symtab import entry_kind

#: One declared signal or port of a unit: VHDL ``name`` ('count'),
#: generated binding ``py`` ('s_count'), ``kind`` ('signal' | 'port'),
#: port ``mode`` ('' for signals), declaring source ``line`` (or None)
#: and whether it has a resolution function.
ObjectFact = namedtuple("ObjectFact", "name py kind mode line resolved")

#: One drive of a process (:class:`repro.vhdl.flow.Drive`): the target
#: binding, whether it runs under an ``'EVENT`` test, whether it is
#: *zero-delay* — every waveform element's delay the literal ``0``,
#: the delta-cycle assignments whose chains form combinational logic
#: (a computed ``after`` cannot close a combinational loop through the
#: event calendar at delta time) — its waveform's shape (``single``,
#: ``transport``) and whether a subprogram call makes it (``called``).
DriveFact = Drive

#: One component instantiation: its label, component name and port
#: map (formal -> actual signal binding).
InstanceFact = namedtuple("InstanceFact", "label component connections")


class WaitFact(namedtuple("WaitFact",
                          "signals has_condition has_timeout")):
    """One reachable wait inside a process (including the final wait
    on its sensitivity list the compiler adds)."""

    __slots__ = ()

    @property
    def forever(self):
        """A bare ``wait;`` — suspends and never resumes."""
        return (not self.signals and not self.has_condition
                and not self.has_timeout)


class ProcessFact:
    """Dataflow facts for one process statement, read from its
    ``ArchUnit.processes`` record."""

    __slots__ = ("label", "py", "line", "sensitivity", "plain_reads",
                 "guarded_reads", "attr_uses", "drives", "drive_sites",
                 "event_guards", "waits", "waitless_loops",
                 "unreachable_stmts")

    def __init__(self, record):
        (self.label, self.py, self.line, self.sensitivity,
         flow) = Flow.from_record(record)
        # sensitivity: declared py-names, or None for wait-driven
        self.plain_reads = set(flow.plain)      # outside 'EVENT guards
        self.guarded_reads = set(flow.guarded)  # under an 'EVENT guard
        self.attr_uses = set(flow.attrs)   # 'EVENT/'ACTIVE/'LAST_VALUE
        self.event_guards = set(flow.events)  # tested with 'EVENT in ifs
        self.drive_sites = list(flow.drives)
        self.drives = {d.target for d in self.drive_sites}
        self.waits = [WaitFact(*w) for w in flow.waits]
        self.waitless_loops = flow.waitless  # loops with no suspension
        self.unreachable_stmts = flow.unreachable  # VHDL statements

    @property
    def uses(self):
        """Every signal this process touches in any way."""
        used = (self.plain_reads | self.guarded_reads | self.attr_uses
                | self.drives)
        for w in self.waits:
            used.update(w.signals)
        if self.sensitivity:
            used.update(self.sensitivity)
        return used

    def __repr__(self):
        return "<ProcessFact %s>" % self.label


class UnitFacts:
    """All facts for one compiled unit."""

    __slots__ = ("kind", "name", "file", "objects", "processes",
                 "instances")

    def __init__(self, kind, name, file=None):
        self.kind = kind
        self.name = name
        self.file = file
        self.objects = {}    # py name -> ObjectFact
        self.processes = []  # ProcessFact
        self.instances = []  # InstanceFact

    def object_named(self, py):
        return self.objects.get(py)

    def __repr__(self):
        return "<UnitFacts %s %s: %d objects, %d processes>" % (
            self.kind, self.name, len(self.objects),
            len(self.processes))


# -- reading the VIF tables ----------------------------------------------------


def extract_unit_facts(node, kind=None):
    """The :class:`UnitFacts` of one VIF unit node.

    Architectures are the interesting case; packages and package
    bodies contribute their signals; other units yield empty facts.
    """
    facts = UnitFacts(kind or type(node).__name__,
                      getattr(node, "name", "?"),
                      file=getattr(node, "source_file", "") or None)
    unit_kind = entry_kind(node)
    if unit_kind not in ("architecture", "package", "package_body"):
        return facts
    objects = facts.objects
    if unit_kind == "architecture":
        for port in node.entity.ports:
            objects[port.py] = ObjectFact(port.name, port.py, "port",
                                          port.mode or "", port.line,
                                          False)
    for entry in node.decls:
        if entry_kind(entry) == "object" and entry.obj_class == "signal":
            objects[entry.py] = ObjectFact(
                entry.name, entry.py, "signal", "", entry.line,
                vtypes.resolution_of(entry.vtype) is not None)
    if unit_kind != "architecture":
        return facts
    for py, name, line, resolved in node.block_signals:
        objects[py] = ObjectFact(name, py, "signal", "", line, resolved)
    facts.processes = [ProcessFact(r) for r in node.processes]
    facts.instances = [
        InstanceFact(inst.label, inst.component.name, inst.connections)
        for inst in node.instances]
    return facts
