"""The dataflow record the principal AG synthesizes next to the code.

Statement rules return a :class:`Flow` with their code; process rules
store one record per process in ``ArchUnit.processes``, which
:mod:`repro.analysis.facts` reads instead of parsing the generated
Python, and :mod:`repro.sim.codegen` reads for the compiled backend.
A read is an ``rt.read`` the code performs (``Sem.uses``).
"""

from collections import namedtuple

#: The empty set empty fields share (each ``frozenset()`` is new).
EMPTY_SET = frozenset()


#: One signal assignment: its ``target`` binding; ``guarded`` when it
#: runs under an ``'EVENT`` test; ``zero_delay`` when every waveform
#: element's delay is the literal 0 (a computed ``after`` is not);
#: ``single`` for a one-element waveform; ``transport`` for transport
#: delay; ``called`` when a subprogram call makes it: a signal actual
#: of an ``out``/``inout`` signal formal, or a signal the callee's body
#: assigns.
Drive = namedtuple("Drive", "target guarded zero_delay single transport "
                            "called")


def _set(names):
    return frozenset(names) or EMPTY_SET


def _union(a, b):
    return (a | b) if a and b else (a or b)


class Flow(namedtuple("Flow", "plain guarded attrs events drives waits "
                              "waitless unreachable",
                      defaults=(EMPTY_SET,) * 4 + ((), (), 0, 0))):
    """Dataflow facts of a statement or statement list.

    ``plain`` / ``guarded``: signals read outside / under an ``if``
    whose condition tests ``'EVENT`` or ``'ACTIVE`` (the clocked idiom);
    ``attrs``: signals whose ``'EVENT``, ``'ACTIVE`` or ``'LAST_VALUE``
    is used; ``events``: signals an ``if`` condition tests with
    ``'EVENT`` or ``'ACTIVE``; ``drives``: one :class:`Drive` per
    signal assignment or drive through a call; ``waits``:
    ``(signals, has_condition, has_timeout)`` per wait; both in source
    order.  ``waitless`` counts infinite loops that never suspend and
    ``unreachable`` the statements after one, which contribute nothing
    else.
    """

    __slots__ = ()

    @staticmethod
    def of_uses(uses, test=False):
        """The flow of code with these ``Sem.uses``; ``test`` when the
        code is an ``if`` condition."""
        if not uses:
            return NO_FLOW
        return Flow(_set(py for call, py in uses if call == "read"),
                    EMPTY_SET,
                    _set(py for call, py in uses if call != "read"),
                    _set(py for call, py in uses
                         if test and call in ("event", "active")))

    def __add__(self, other):
        """Sequential composition: ``self``, then ``other``."""
        if other is NO_FLOW:
            return self
        if self is NO_FLOW:
            return other
        return Flow(_union(self.plain, other.plain),
                    _union(self.guarded, other.guarded),
                    _union(self.attrs, other.attrs),
                    _union(self.events, other.events),
                    self.drives + other.drives, self.waits + other.waits,
                    self.waitless + other.waitless,
                    self.unreachable + other.unreachable)

    def under(self, guarded):
        """This flow inside an ``'EVENT`` guard when ``guarded``."""
        if not guarded or self is NO_FLOW:
            return self
        return self._replace(
            plain=EMPTY_SET, guarded=_union(self.plain, self.guarded),
            drives=tuple(d._replace(guarded=True) for d in self.drives))

    def called(self):
        """A subprogram's flow as a caller sees it: it may run under
        any guard, so reads are plain; its event tests and loops are
        not the caller's, and its drives enter at each call
        (``SubprogramEntry.drives``).  A procedure's reads enter at each
        call too (``SubprogramEntry.reads``); a process-local one's
        also enter through the process's declarative part."""
        if self is NO_FLOW:
            return self
        return Flow(_union(self.plain, self.guarded), EMPTY_SET,
                    self.attrs, waits=self.waits)

    def record(self, label, fn, line, sensitivity):
        """The record of a process with this body flow, as
        ``ArchUnit.processes`` stores it.  Kept flat, since a ring of
        400 processes holds 400 of them: name sets become sorted
        space-separated strings, drives runs of six and waits runs of
        triples."""
        return [label, fn, line,
                None if sensitivity is None else " ".join(sensitivity),
                " ".join(sorted(self.plain)),
                " ".join(sorted(self.guarded)),
                " ".join(sorted(self.attrs)),
                " ".join(sorted(self.events)),
                [x for drive in self.drives for x in drive],
                [x for s, c, t in self.waits for x in (" ".join(s), c, t)],
                self.waitless, self.unreachable]

    @staticmethod
    def from_record(record):
        """``(label, fn, line, sensitivity, flow)`` of a stored record."""
        (label, fn, line, sensitivity, plain, guarded, attrs, events,
         drives, waits, waitless, unreachable) = record
        if sensitivity is not None:
            sensitivity = sensitivity.split()
        return label, fn, line, sensitivity, Flow(
            _set(plain.split()), _set(guarded.split()),
            _set(attrs.split()), _set(events.split()),
            tuple(Drive(*drives[i:i + 6])
                  for i in range(0, len(drives), 6)),
            tuple((s.split(), c, t) for s, c, t in
                  zip(waits[0::3], waits[1::3], waits[2::3])),
            waitless, unreachable)


NO_FLOW = Flow()


def wait_flow(signals, has_condition=False, has_timeout=False):
    """The flow of one wait (without its expressions' reads)."""
    return Flow(waits=((tuple(signals), has_condition, has_timeout),))


def drive_flow(drives):
    """The flow of unguarded drives, given as ``(target, zero_delay,
    single, transport, called)``."""
    if not drives:
        return NO_FLOW
    return Flow(drives=tuple(Drive(t, False, z, s, tr, c)
                             for t, z, s, tr, c in drives))
