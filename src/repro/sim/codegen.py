"""Per-design specialization: flow-graph code for the compiled backend.

The source paper's pipeline ends in generated C compiled by the host
compiler; this module is the reproduction's equivalent of that last
mile.  What each process drives, and how, is the principal AG's: the
:class:`~repro.analysis.netlist.DesignGraph` built from the
``ArchUnit.processes`` records (:class:`repro.vhdl.flow.Flow`) decides
which signals are slots and which processes touch the cyclic cone.
The code is the AG's too: every process function is the ``_p`` of one
of its model factories, and with each factory the AG stored the form
the backend runs (``ArchUnit.slot_forms``, :mod:`repro.vhdl.slotform`).
Codegen reads no model text; it fills each form's assignment holes once
per set of slot flags of the signals they assign, not once per
process, into one specialized Python module per design:

- **canonical processes** — a single ``wait`` as the first or last
  statement of the process loop, no persistent variables — become
  plain functions called directly by the
  :class:`~repro.sim.compiled.CompiledKernel` dispatch loop, reading
  current values from a flat list ``V[i]`` (indexed by
  ``Signal.index``) and signal attributes from direct stamp compares;
- **slot-managed signals** — driven by exactly one process, which
  compiles, unresolved, off the cyclic quarantine, never driven
  through a subprogram call, and only ever assigned single-element
  inertial (or zero-delay transport) waveforms — drop their
  ``Driver`` objects entirely: the projection collapses to a
  ``(next_time NT[i], next_value NV[i])`` slot pair, zero-delay
  assignments append to a due-now buffer that bypasses the heapq
  event calendar, and delayed assignments go to per-time buckets;
- everything else — multiple waits, wait timeouts, persistent VHDL
  variables, resolved/multi-driver targets, transport delays, drives
  through calls, cyclic-quarantine membership — **falls back** to the
  untouched generic generator/`RT`/calendar path, interleaved with
  compiled processes in registration-index order so semantics stay
  byte-identical to the activity kernel.  A rejected process only
  takes its own targets out of the slot set: a slot has that one
  driver, and its readers use ``V[i]`` either way.

The module holds only factories, one per distinct text, over the
form's parameters ``_k<i>`` (a signal is passed as its
``Signal.index``).  The kernel's bind calls a process's factory with
the operand values its row passed its model factory
(``DesignRecord.factories``), so a ring of identical cells
byte-compiles one function body.  The module depends only on the
design's models and slot flags, never on generic values (passed at
*bind* time), so the compiled code object is cached by design
fingerprint across elaborations.
"""

import hashlib
from collections import namedtuple

from .runtime import VArray, VRecord
from .signals import Signal

#: Rejection-reason keys reported in :attr:`Program.stats` (no slot
#: form gives ``locals`` now; the key stays for the stats' readers).
REASONS = ("shape", "wait", "locals", "names", "construct", "cyclic")


class Reject(Exception):
    """This process cannot be specialized; keep it generic (the one
    argument is a :data:`REASONS` key)."""


class ProcPlan(namedtuple("ProcPlan", "proc_index resume cond args pure "
                           "init_runs_body wait_indices")):
    """How one compiled process is made from the generated module:
    the names of its resume-function factory and of its
    condition-function factory (or None), the slot form's parameter
    names, whose values (:func:`operand`; a signal's ``index``) both
    take in order, and its wait signals' indices.  ``pure`` resume
    functions touch only slot storage and ``ops`` arithmetic — no
    ``rt`` access, no helper calls — so the kernel may dispatch them
    without the ``current_process`` / AssertionFailure bookkeeping
    (nothing they can reach reads either)."""

    __slots__ = ()


class Program:
    """One design's specialized module: its code and bind metadata,
    and the reason each process it did not compile stays generic."""

    __slots__ = ("fingerprint", "code", "plans", "slot_indices",
                 "stats", "rejects")

    def __init__(self, fingerprint, code, plans, slot_indices, stats,
                 rejects):
        self.fingerprint = fingerprint
        self.code = code
        self.plans = plans  # Process.index -> ProcPlan
        self.slot_indices = frozenset(slot_indices)
        self.stats = dict(stats)
        self.rejects = rejects  # Process.index -> a REASONS key


def design_fingerprint(records, kernel):
    """Cache key: each unit's model text and rows plus the elaborated
    topology.  The rows are the wiring (which signals each process
    and instance takes) and the literals, so designs with one text
    and one size apart only in them never share a program.

    Generic *values* are excluded on purpose — a process takes them as
    operands of its row, which elaboration evaluates and the kernel's
    bind passes to the factories, so two elaborations of the same
    entity with different generics share one compiled module.
    """
    h = hashlib.sha256()
    for record in records:
        h.update(record.path.encode())
        h.update(b"\0")
        h.update(record.kind.encode())
        h.update(b"\0")
        h.update(getattr(record.node, "py_source", "").encode())
        h.update(b"\0")
        h.update(repr(getattr(record.node, "rows", None)).encode())
        h.update(b"\0")
    h.update(("#%d/%d" % (len(kernel.signals),
                          len(kernel.processes))).encode())
    return h.hexdigest()


# -- the AG's slot forms -------------------------------------------------------

#: The model globals a slot form may take as parameters, besides the
#: operands ``_a<i>`` of its process's row.
_GLOBALS = {"VArray": VArray, "VRecord": VRecord}


def operand(name, values):
    """The value of slot-form parameter ``name`` for a process whose
    row passed its factory the operand ``values``."""
    return _GLOBALS[name] if name in _GLOBALS else values[int(name[2:])]


def _kernel_signal(value, kernel):
    """``value`` if it is a signal of ``kernel``, else None."""
    return value if isinstance(value, Signal) and value.kernel is kernel \
        else None


class _Form:
    """One model factory's slot form, read once per build from its
    ``ArchUnit.slot_forms`` record (:mod:`repro.vhdl.slotform`);
    ``targets`` are the parameters its holes assign, in first-hole
    order: the only ones whose slot flag changes what a rendering
    writes."""

    __slots__ = ("reason", "init_runs_body", "waits", "args", "signals",
                 "pure", "body", "cond", "targets")

    def __init__(self, record):
        (self.reason, self.init_runs_body, waits, args, signals,
         self.pure, self.body, self.cond) = record
        self.waits = waits.split()
        self.args = tuple(args.split())
        self.signals = frozenset(signals)
        self.targets = tuple(dict.fromkeys(
            piece[1] for piece in self.body if type(piece) is list))


def _forms(records):
    """Map each elaborated process to its factory's :class:`_Form`, or
    to the reason the factory keeps the generator, and to the operand
    values its row passed the factory (``DesignRecord.factories``);
    the processes bound to one factory share its form."""
    forms, out = {}, {}
    for record in records:
        for label, (index, values) in record.factories.items():
            key = (id(record.node), index)
            if key not in forms:
                form = record.node.slot_forms[index]
                forms[key] = form if type(form) is str else _Form(form)
            out[record.processes[label]] = (forms[key], values)
    return out


# -- hole filling --------------------------------------------------------------

#: A slot assignment, by its delay: zero (overwrite the slot and mark it
#: due this timestep, once: transport is the same when nothing can
#: precede ``now``), a positive literal (the whole ``_sched`` body with
#: the target time folded) or any other delay.
_ZERO = ("{pad}NV[{t}] = {v}\n"
         "{pad}if NT[{t}] != now:\n"
         "{pad}    NT[{t}] = now\n"
         "{pad}    _DUE.append({t})\n")
_LITERAL = ("{pad}NV[{t}] = {v}\n"
            "{pad}_t = now + {d}\n"
            "{pad}if NT[{t}] != _t:\n"
            "{pad}    NT[{t}] = _t\n"
            "{pad}    _b = _B.get(_t)\n"
            "{pad}    if _b is None:\n"
            "{pad}        _B[_t] = [{t}]\n"
            "{pad}        _hpush(_H, _t)\n"
            "{pad}    else:\n"
            "{pad}        _b.append({t})\n")
_SCHED = "{pad}_sched({t}, {v}, {d}, now)\n"


def _fill(hole, slot):
    """The statements of one hole ``[depth, target, transport, value,
    delay, ...]``: a slot write of its one element when its target is
    a slot, else the calendar's full ``rt.assign``."""
    depth, target, transport = hole[:3]
    pad = "    " * depth
    t = "_k%d" % target
    if not slot:
        wave = ", ".join("(%s, %s)" % elem
                         for elem in zip(hole[3::2], hole[4::2]))
        return "%srt.assign(SIG[%s], (%s,), transport=%s)\n" % (
            pad, t, wave, transport)
    value, delay = hole[3:5]
    template = _ZERO if delay == "0" else \
        _LITERAL if delay.isdigit() else _SCHED
    return template.format(pad=pad, t=t, v=value, d=delay)


# -- module rendering ----------------------------------------------------------

_SCHED_SRC = '''\
def _sched(i, v, d, now):
    """Delayed single-slot assignment (inertial wipe semantics)."""
    NV[i] = v
    t = now + d if d > 0 else now
    if t <= now:
        if NT[i] != now:
            NT[i] = now
            _DUE.append(i)
    else:
        NT[i] = t
        b = _B.get(t)
        if b is None:
            _B[t] = [i]
            _hpush(_H, t)
        else:
            b.append(i)
'''


def build_program(kernel, records, graph, cyclic):
    """Classify and render one design's specialized module.

    ``cyclic`` is the levelization quarantine (NetSignals).  Returns a
    :class:`Program`; processes and signals that cannot be specialized
    simply stay generic — the result is always safe to bind.
    """
    text, plans, slot_indices, stats, rejects = _specialize(
        kernel, records, graph, cyclic)
    fingerprint = design_fingerprint(records, kernel)
    header = ("# Specialized flow-graph code (repro.sim.codegen)\n"
              "# design fingerprint: %s\n" % fingerprint)
    code = compile(header + _SCHED_SRC + "\n" + text + "\n",
                   "<repro-compiled:%s>" % fingerprint[:12], "exec")
    return Program(fingerprint, code, plans, slot_indices, stats,
                   rejects)


def _specialize(kernel, records, graph, cyclic):
    """The module's factories as text, with the process plans, slot
    indices, stats and reject reasons.

    Slots and the cyclic cone come from the design graph (the AG's
    process records), each process's shape from its model factory's
    slot form.  Its wait signals and the cyclic check are each
    process's own; a form is rendered once per slot flags of the
    parameters it assigns, and each distinct factory text enters the
    module once.
    """
    stats = {"procs": len(kernel.processes), "compiled": 0,
             "slots": 0, "generic": 0}
    for reason in REASONS:
        stats["reject_%s" % reason] = 0
    forms = _forms(records)
    nets = {net.process: net for net in graph.processes}
    cyclic_sigs = {ns.signal for ns in cyclic}
    slot_indices = _classify_slots(kernel, graph, nets, cyclic_sigs)

    plans = {}
    rejects = {}
    renders = {}  # (form, slot flags) -> render or reject reason
    factories = {}  # factory text -> factory name
    for proc in sorted(kernel.processes, key=lambda p: p.index):
        net = nets.get(proc)
        targets = [d.target.signal for d in net.drives] if net else []
        form, values = forms.get(proc, ("shape", ()))
        try:
            if type(form) is str:
                raise Reject(form)
            wait_signals = [_kernel_signal(operand(name, values), kernel)
                            for name in form.waits]
            if any(sig is None for sig in wait_signals):
                raise Reject("wait")
            if any(s in cyclic_sigs for s in wait_signals + targets):
                raise Reject("cyclic")  # quarantined: stay on the calendar
            if form.reason:
                raise Reject(form.reason)
            driven = [_kernel_signal(operand(form.args[k], values), kernel)
                      for k in form.targets]
            flags = tuple(None if sig is None else sig.index in slot_indices
                          for sig in driven)
            render = renders.get((form, flags))
            if render is None:
                render = renders[form, flags] = _fill_form(
                    form, flags, values, kernel, factories)
            if type(render) is str:
                raise Reject(render)
        except Reject as rej:
            reason, = rej.args
            stats["reject_%s" % reason] += 1
            rejects[proc.index] = reason
            # A slot has this process as its one driver; readers
            # elsewhere use V[i] either way, so only its targets go.
            slot_indices.difference_update(s.index for s in targets)
            continue
        plans[proc.index] = ProcPlan(
            proc.index, *render, form.init_runs_body,
            tuple(s.index for s in wait_signals))

    stats["compiled"] = len(plans)
    stats["slots"] = len(slot_indices)
    stats["generic"] = len(kernel.processes) - len(plans)
    stats["shapes"] = len(factories)
    return "\n".join(text.replace("def _s(", "def %s(" % name, 1)
                     for text, name in factories.items()), \
        plans, slot_indices, stats, rejects


def _fill_form(form, flags, values, kernel, factories):
    """``form`` with its holes filled for ``flags``, checked against a
    process's operand ``values``: ``(resume factory, condition factory
    or None, parameter names, pure)``, or the reject reason when a
    parameter used as a signal is not one of this kernel's, or one
    used as a value is a signal.  Each factory is entered in
    ``factories`` (text -> name) unless its text is there already."""
    for i, name in enumerate(form.args):
        value = operand(name, values)
        signal = isinstance(value, Signal)
        if signal is not (i in form.signals) \
                or signal and value.kernel is not kernel:
            return "names"
    slots = {k for k, flag in zip(form.targets, flags) if flag}
    pure = form.pure
    body = []
    for piece in form.body:
        if type(piece) is str:
            body.append(piece)
        else:
            pure = pure and piece[1] in slots
            body.append(_fill(piece, piece[1] in slots))
    params = ", ".join("_k%d" % i for i in range(len(form.args)))
    resume = _factory_name(
        params, "    def _p(now, step):\n%s    return _p\n"
        % ("".join(body) or "        pass\n"), factories)
    cond = None
    if form.cond is not None:
        cond = _factory_name(
            params, "    def _c():\n        now, step = T\n"
            "        return %s\n    return _c\n" % form.cond, factories)
    return resume, cond, form.args, pure


def _factory_name(params, body, factories):
    """The name of the factory over ``params`` whose body is ``body``:
    ``factories`` maps each factory's text, written ``def _s(...)``, to
    its name."""
    return factories.setdefault("def _s(%s):\n%s" % (params, body),
                                "_s%d" % len(factories))


def _classify_slots(kernel, graph, nets, cyclic_sigs):
    """Signals whose Driver may collapse to a (NT, NV) slot pair: one
    driving process, no resolution function, off the cyclic cone, and
    every drive a single inertial (or zero-delay) element the process
    makes itself, not through a subprogram call."""
    if any(proc not in nets for proc in kernel.processes):
        return set()  # a process without a record: its drives unknown
    slots = set()
    for ns in graph.signals:
        drives = ns.drivers
        if not drives or ns.signal in cyclic_sigs or ns.resolved \
                or any(d.proc is not drives[0].proc for d in drives):
            continue
        if all(d.single and (not d.transport or d.zero_delay)
               and not d.called for d in drives):
            slots.add(ns.signal.index)
    return slots
