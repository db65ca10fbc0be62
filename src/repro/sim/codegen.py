"""Per-design specialization: flow-graph code for the compiled backend.

The source paper's pipeline ends in generated C compiled by the host
compiler; this module is the reproduction's equivalent of that last
mile.  What each process drives, and how, is the principal AG's: the
:class:`~repro.analysis.netlist.DesignGraph` built from the
``ArchUnit.processes`` records (:class:`repro.vhdl.flow.Flow`) decides
which signals are slots and which processes touch the cyclic cone.
Each process function is then parsed once, on its own, from the text
of the model factory it comes from (cut out of the model's
``py_source`` once per factory), and rendered into one specialized
Python module per design:

- **canonical processes** — a single ``yield rt.wait(...)`` as the
  first or last statement of the ``while True`` loop, no persistent
  locals — become plain functions called directly by the
  :class:`~repro.sim.compiled.CompiledKernel` dispatch loop, with
  ``rt.read(sig)`` rewritten to a flat-list subscript ``V[i]``
  (current values indexed by ``Signal.index``) and signal attributes
  (``'EVENT``/``'ACTIVE``/``'LAST_VALUE``) to direct stamp compares;
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
  byte-identical to the activity kernel.  A process the rewriter
  rejects only takes its own targets out of the slot set: a slot has
  that one driver, and its readers use ``V[i]`` either way.

The module holds one factory per process *shape*: integer literals
(signal indices, delays) and captured names are its parameters, and
each process is one line calling it with its own operands, so a ring
of identical cells byte-compiles one function body.  The module is
pure: it depends only on the design's ``py_source`` texts and
signal/process indices, never on elaboration-time values
(generic-folded constants are captured from each process function's
closure at *bind* time), so the compiled code object is cached by
design fingerprint across elaborations.
"""

import ast
import hashlib
import textwrap

from .signals import Signal

#: Rejection-reason keys reported in :attr:`Program.stats`.
REASONS = (
    "shape", "wait", "locals", "names", "construct", "cyclic",
)


class Reject(Exception):
    """This process cannot be specialized; keep it generic."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class ProcPlan:
    """How one compiled process appears in the generated module."""

    __slots__ = ("proc_index", "resume", "cond", "init_runs_body",
                 "wait_indices", "env", "pure")

    def __init__(self, proc_index, resume, cond, init_runs_body,
                 wait_indices, env, pure=False):
        self.proc_index = proc_index
        self.resume = resume  # generated resume-function name
        self.cond = cond  # generated condition-function name or None
        self.init_runs_body = init_runs_body
        self.wait_indices = list(wait_indices)
        self.env = dict(env)  # mangled name -> original free name
        #: ``pure`` resume functions touch only slot storage and
        #: ``ops`` arithmetic — no ``rt`` access, no captured helper
        #: calls — so the kernel may dispatch them without the
        #: ``current_process`` / AssertionFailure bookkeeping (nothing
        #: they can reach reads either).
        self.pure = pure


class Program:
    """One design's specialized module: its code and bind metadata."""

    __slots__ = ("fingerprint", "code", "plans", "slot_indices",
                 "stats")

    def __init__(self, fingerprint, code, plans, slot_indices, stats):
        self.fingerprint = fingerprint
        self.code = code
        self.plans = plans  # Process.index -> ProcPlan
        self.slot_indices = frozenset(slot_indices)
        self.stats = dict(stats)


def design_fingerprint(records, kernel):
    """Cache key: the py_sources plus the elaborated topology.

    Generic *values* are excluded on purpose — they are captured from
    process closures at bind time, so two elaborations of the same
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
    h.update(("#%d/%d" % (len(kernel.signals),
                          len(kernel.processes))).encode())
    return h.hexdigest()


# -- environment capture -------------------------------------------------------

_MISSING = object()


def capture(fn, name):
    """The runtime value ``name`` has inside ``fn`` (closure, then
    module globals), or ``_MISSING``."""
    code = fn.__code__
    if name in code.co_freevars and fn.__closure__ is not None:
        cell = fn.__closure__[code.co_freevars.index(name)]
        try:
            return cell.cell_contents
        except ValueError:
            return _MISSING
    return fn.__globals__.get(name, _MISSING)


# -- process shape -------------------------------------------------------------


def _is_const(node, value):
    return isinstance(node, ast.Constant) and node.value is value


def _rt_call(node, attr):
    """Is ``node`` a ``rt.<attr>(...)`` call?"""
    fn = getattr(node, "func", None)
    return (isinstance(node, ast.Call) and isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Name) and fn.value.id == "rt"
            and fn.attr == attr)


def _signal_of(env_fn, name, kernel):
    value = capture(env_fn, name)
    if isinstance(value, Signal) and value.kernel is kernel:
        return value
    return None


def _split(text, name):
    """Parse one process's source on its own and split its loop at
    the single wait: ``(wait call, other statements, init_runs_body)``.
    Raises :class:`Reject` for any other shape."""
    try:
        body = ast.parse(text).body
    except SyntaxError:
        raise Reject("shape") from None
    if len(body) != 1 or not isinstance(body[0], ast.FunctionDef) \
            or body[0].name != name:
        raise Reject("shape")
    body = body[0].body
    # No statements before the loop: leading statements are VHDL
    # process *variables* — persistent generator-frame state the
    # plain-function rendering cannot carry.
    if len(body) != 1 or not isinstance(body[0], ast.While):
        raise Reject("shape")
    loop = body[0]
    if not _is_const(loop.test, True):
        raise Reject("shape")
    stmts = loop.body
    if not stmts:
        raise Reject("shape")

    yields = [n for n in ast.walk(loop) if isinstance(n, ast.Yield)]
    if len(yields) != 1:
        raise Reject("wait")

    def _is_wait_stmt(stmt):
        return (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Yield)
                and _rt_call(stmt.value.value, "wait"))

    if _is_wait_stmt(stmts[0]):
        return stmts[0].value.value, stmts[1:], False
    if _is_wait_stmt(stmts[-1]):
        return stmts[-1].value.value, stmts[:-1], True
    raise Reject("wait")


def _wait_signals(wait_call, fn, kernel):
    """The signals of a permanent ``rt.wait([...], cond, None)``, whose
    condition is absent or a no-argument lambda; else :class:`Reject`."""
    if wait_call.keywords or len(wait_call.args) != 3:
        raise Reject("wait")
    sig_list, cond, timeout = wait_call.args
    if not _is_const(timeout, None) or not isinstance(sig_list, ast.List):
        raise Reject("wait")  # timed waits stay on the calendar
    if not _is_const(cond, None) and not (
            isinstance(cond, ast.Lambda) and not cond.args.args
            and not cond.args.posonlyargs and not cond.args.kwonlyargs):
        raise Reject("wait")
    signals = []
    for elt in sig_list.elts:
        sig = _signal_of(fn, elt.id, kernel) \
            if isinstance(elt, ast.Name) else None
        if sig is None:
            raise Reject("wait")
        signals.append(sig)
    return signals


# -- expression / statement rewriting ------------------------------------------

#: Expression node types the rewriter knows are side-effect free.
_ALLOWED = (
    ast.Expression, ast.Constant, ast.Tuple, ast.List, ast.Dict,
    ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare, ast.IfExp,
    ast.Call, ast.Attribute, ast.Name, ast.Subscript, ast.Slice,
    ast.keyword, ast.Load, ast.Store,
    ast.And, ast.Or, ast.Not, ast.Invert, ast.UAdd, ast.USub,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
    ast.Pow, ast.LShift, ast.RShift, ast.BitAnd, ast.BitOr,
    ast.BitXor, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
    ast.Is, ast.IsNot, ast.In, ast.NotIn, ast.JoinedStr,
    ast.FormattedValue,
)


def _expr_src(src):
    return ast.parse(src, mode="eval").body


class _Rewriter(ast.NodeTransformer):
    """Rewrites one expression tree into specialized form, clearing
    ``binder.pure`` at anything that reaches ``rt`` or calls a
    captured helper."""

    def __init__(self, binder, defined):
        self.binder = binder
        self.defined = defined

    # -- names ---------------------------------------------------------

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Store):
            return node  # statement level already recorded the local
        name = node.id
        if name == "rt":
            self.binder.pure = False
        if name in self.defined:
            return node
        return self.binder.name_load(name)

    def visit_Attribute(self, node):
        if (isinstance(node.value, ast.Name)
                and node.value.id == "rt" and node.attr == "now"
                and "rt" not in self.defined):
            self.binder.check_rt()
            return ast.Name(id="now", ctx=ast.Load())
        return self.generic_visit(node)

    def visit_Call(self, node):
        attr = None
        if (isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id not in self.defined):
            base = node.func.value.id
            if base == "rt":
                attr = node.func.attr
        if attr is not None:
            binder = self.binder
            binder.check_rt()
            if attr == "read":
                sig = self._sig_arg(node)
                return _expr_src("V[%d]" % sig.index)
            if attr == "event":
                sig = self._sig_arg(node)
                return _expr_src(
                    "1 if SIG[%d].event_delta == step else 0"
                    % sig.index)
            if attr == "active":
                sig = self._sig_arg(node)
                return _expr_src(
                    "1 if SIG[%d].active_delta == step else 0"
                    % sig.index)
            if attr == "last_value":
                sig = self._sig_arg(node)
                return _expr_src("SIG[%d].last_value" % sig.index)
            if attr in ("assert_", "check"):
                binder.pure = False
                return ast.Call(
                    func=node.func,
                    args=[self.visit(a) for a in node.args],
                    keywords=[ast.keyword(arg=k.arg,
                                          value=self.visit(k.value))
                              for k in node.keywords])
            # assign in value position, nested wait, anything else
            raise Reject("construct")
        node = self.generic_visit(node)
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "ops"):
            self.binder.pure = False  # a helper may reach rt
        return node

    def _sig_arg(self, node):
        if len(node.args) != 1 or node.keywords \
                or not isinstance(node.args[0], ast.Name):
            raise Reject("names")
        sig = self.binder.signal(node.args[0].id)
        if sig is None:
            raise Reject("names")
        return sig

    # -- rejection wall ------------------------------------------------

    def generic_visit(self, node):
        if not isinstance(node, _ALLOWED):
            raise Reject("construct")
        return super().generic_visit(node)


class _Binder:
    """Per-process name resolution + environment mangling."""

    def __init__(self, proc, kernel, ops_obj):
        self.proc = proc
        self.kernel = kernel
        self.ops = ops_obj
        self.env = {}  # mangled -> original name
        #: Still true when the code rendered so far touches only slot
        #: storage and ``ops`` arithmetic: no ``rt`` access (assign and
        #: assert read ``current_process``) and no captured helper call
        #: (a helper could reach ``rt`` through its closure).
        self.pure = True

    def signal(self, name):
        return _signal_of(self.proc.fn, name, self.kernel)

    def check_rt(self):
        if capture(self.proc.fn, "rt") is not self.kernel.rt:
            raise Reject("names")

    def name_load(self, name):
        value = capture(self.proc.fn, name)
        if value is _MISSING:
            raise Reject("names")
        if isinstance(value, Signal):
            raise Reject("names")  # bare signal outside rt.*/wait
        if name == "rt":
            self.check_rt()
            return ast.Name(id="rt", ctx=ast.Load())
        if name == "ops" and value is self.ops:
            return ast.Name(id="ops", ctx=ast.Load())
        mangled = "_e%d_%s" % (self.proc.index, name)
        self.env[mangled] = name
        return ast.Name(id=mangled, ctx=ast.Load())


def _rewrite_stmts(stmts, binder, slot_indices, defined, depth=0):
    """Transform a statement list; raises :class:`Reject` on any
    construct the specializer does not model."""
    out = []
    for stmt in stmts:
        if isinstance(stmt, ast.Expr):
            call = stmt.value
            if _rt_call(call, "assign") \
                    and "rt" not in defined:
                out.extend(_rewrite_assign(call, binder, slot_indices,
                                           defined))
                continue
            tx = _Rewriter(binder, defined)
            out.append(ast.Expr(value=tx.visit(call)))
        elif isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1 \
                    or not isinstance(stmt.targets[0], ast.Name):
                raise Reject("locals")
            tx = _Rewriter(binder, defined)
            value = tx.visit(stmt.value)
            defined.add(stmt.targets[0].id)
            out.append(ast.Assign(targets=stmt.targets, value=value))
        elif isinstance(stmt, ast.AugAssign):
            if not isinstance(stmt.target, ast.Name) \
                    or stmt.target.id not in defined:
                raise Reject("locals")
            tx = _Rewriter(binder, defined)
            out.append(ast.AugAssign(target=stmt.target, op=stmt.op,
                                     value=tx.visit(stmt.value)))
        elif isinstance(stmt, ast.If):
            tx = _Rewriter(binder, defined)
            test = tx.visit(stmt.test)
            body = _rewrite_stmts(stmt.body, binder, slot_indices,
                                  set(defined), depth)
            orelse = _rewrite_stmts(stmt.orelse, binder, slot_indices,
                                    set(defined), depth)
            out.append(ast.If(test=test, body=body or [ast.Pass()],
                              orelse=orelse))
        elif isinstance(stmt, ast.For):
            if not isinstance(stmt.target, ast.Name) or stmt.orelse:
                raise Reject("locals")
            tx = _Rewriter(binder, defined)
            it = tx.visit(stmt.iter)
            inner = set(defined)
            inner.add(stmt.target.id)
            body = _rewrite_stmts(stmt.body, binder, slot_indices,
                                  inner, depth + 1)
            out.append(ast.For(target=stmt.target, iter=it,
                               body=body or [ast.Pass()], orelse=[]))
        elif isinstance(stmt, ast.While):
            if stmt.orelse:
                raise Reject("construct")
            tx = _Rewriter(binder, defined)
            test = tx.visit(stmt.test)
            body = _rewrite_stmts(stmt.body, binder, slot_indices,
                                  set(defined), depth + 1)
            out.append(ast.While(test=test, body=body or [ast.Pass()],
                                 orelse=[]))
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if depth == 0:
                raise Reject("construct")  # would skip the wait
            out.append(stmt)
        elif isinstance(stmt, ast.Pass):
            out.append(stmt)
        else:
            raise Reject("construct")
    return out


def _rewrite_assign(call, binder, slot_indices, defined):
    """One ``rt.assign(target, ((value, delay), ...), transport=t)``
    statement → slot write or generic fallback."""
    binder.check_rt()
    args = call.args
    if len(args) != 2 or not isinstance(args[0], ast.Name) or any(
            kw.arg != "transport" or not isinstance(kw.value, ast.Constant)
            for kw in call.keywords):
        raise Reject("names")
    sig = binder.signal(args[0].id)
    waveform = args[1]
    if sig is None or not isinstance(waveform, ast.Tuple) \
            or not waveform.elts or any(
                not isinstance(e, ast.Tuple) or len(e.elts) != 2
                for e in waveform.elts):
        raise Reject("names")
    idx = sig.index
    tx = _Rewriter(binder, defined)
    # The process's Flow record makes a slot of a target only when
    # every assignment to it is one inertial (or zero-delay) element.
    if idx in slot_indices:
        elem = waveform.elts[0]
        value = tx.visit(elem.elts[0])
        delay = elem.elts[1]
        if isinstance(delay, ast.Constant) and delay.value == 0:
            # Zero delay, inertial (or transport — identical when
            # nothing can precede ``now``): overwrite the slot and
            # mark it due this timestep, once.
            assign = ast.parse(
                "NV[%d] = 0\n"
                "if NT[%d] != now:\n"
                "    NT[%d] = now\n"
                "    _DUE.append(%d)\n" % (idx, idx, idx, idx)).body
            assign[0].value = value
            return assign
        if isinstance(delay, ast.Constant) \
                and isinstance(delay.value, int) and delay.value > 0:
            # Literal positive delay (the overwhelmingly common
            # ``after <time literal>`` form): the whole ``_sched``
            # body inlines with the target time folded.
            assign = ast.parse(
                "NV[%d] = 0\n"
                "_t = now + %d\n"
                "if NT[%d] != _t:\n"
                "    NT[%d] = _t\n"
                "    _b = _B.get(_t)\n"
                "    if _b is None:\n"
                "        _B[_t] = [%d]\n"
                "        _hpush(_H, _t)\n"
                "    else:\n"
                "        _b.append(%d)\n"
                % (idx, delay.value, idx, idx, idx, idx)).body
            assign[0].value = value
            return assign
        sched = _expr_src("_sched(%d, 0, 0, now)" % idx)
        sched.args[1] = value
        sched.args[2] = tx.visit(delay)
        return [ast.Expr(value=sched)]
    # Calendar-managed target: full generic semantics through rt,
    # with the inner expressions still specialized.
    binder.pure = False
    transport = any(kw.value.value for kw in call.keywords)
    elems = []
    for elem in waveform.elts:
        elems.append(ast.Tuple(
            elts=[tx.visit(elem.elts[0]), tx.visit(elem.elts[1])],
            ctx=ast.Load()))
    new_call = _expr_src("rt.assign(SIG[%d], None, transport=%s)"
                         % (idx, bool(transport)))
    new_call.args[1] = ast.Tuple(elts=elems, ctx=ast.Load())
    return [ast.Expr(value=new_call)]


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


def _def(name, args, body):
    return ast.FunctionDef(
        name=name,
        args=ast.arguments(
            posonlyargs=[], args=[ast.arg(arg=a) for a in args],
            kwonlyargs=[], kw_defaults=[], defaults=[]),
        body=body or [ast.Pass()],
        decorator_list=[], lineno=0)


def build_program(kernel, records, graph, cyclic):
    """Classify and render one design's specialized module.

    ``cyclic`` is the levelization quarantine (NetSignals).  Returns a
    :class:`Program`; processes and signals that cannot be specialized
    simply stay generic — the result is always safe to bind.
    """
    text, plans, slot_indices, stats = _specialize(kernel, records,
                                                   graph, cyclic)
    fingerprint = design_fingerprint(records, kernel)
    header = ("# Specialized flow-graph code (repro.sim.codegen)\n"
              "# design fingerprint: %s\n" % fingerprint)
    code = compile(header + _SCHED_SRC + "\n" + text + "\n",
                   "<repro-compiled:%s>" % fingerprint[:12], "exec")
    return Program(fingerprint, code, plans, slot_indices, stats)


def _specialize(kernel, records, graph, cyclic):
    """The specialized processes as module text, with their plans,
    slot indices and stats.

    Slots and the cyclic cone come from the design graph (the AG's
    process records); each process is parsed once, from the slice of
    its model's ``py_source`` that its factory's process function
    spans (cut once and shared by every process bound to that
    factory), and its tree is dropped once rendered, so no whole model
    and no tree is alive when the module text is byte-compiled.
    """
    from .runtime import ops as ops_obj

    stats = {"procs": len(kernel.processes), "compiled": 0,
             "slots": 0, "generic": 0}
    for reason in REASONS:
        stats["reject_%s" % reason] = 0
    texts = _process_texts(records)
    nets = {net.process: net for net in graph.processes}
    cyclic_sigs = {ns.signal for ns in cyclic}
    slot_indices = _classify_slots(kernel, graph, nets, cyclic_sigs)

    plans = {}
    shapes = {}  # lifted tree's structural key -> factory name
    chunks = []
    for proc in sorted(kernel.processes, key=lambda p: p.index):
        net = nets.get(proc)
        targets = [d.target.signal for d in net.drives] if net else []
        try:
            text = texts.get(proc.fn.__code__) if proc.fn else None
            if text is None:
                raise Reject("shape")
            name = proc.fn.__code__.co_name
            wait_call, rest, init_runs_body = _split(text, name)
            wait_signals = _wait_signals(wait_call, proc.fn, kernel)
            if any(s in cyclic_sigs for s in wait_signals + targets):
                raise Reject("cyclic")  # quarantined: stay on the calendar
            binder = _Binder(proc, kernel, ops_obj)
            body = _rewrite_stmts(rest, binder, slot_indices, set())
            pure = binder.pure
            cond = wait_call.args[1]
            if isinstance(cond, ast.Lambda):
                cond = _def("_c", (), ast.parse("now, step = T").body + [
                    ast.Return(_Rewriter(binder, set()).visit(cond.body))])
        except Reject as rej:
            stats["reject_%s" % rej.reason] += 1
            # A slot has this process as its one driver; readers
            # elsewhere use V[i] either way, so only its targets go.
            slot_indices.difference_update(s.index for s in targets)
            continue
        pid = proc.index
        resume_name = "_p%d" % pid
        chunks.append(_instance(resume_name, _def("_p", ("now", "step"),
                                                  body),
                                binder.env, shapes))
        cond_name = None
        if isinstance(cond, ast.FunctionDef):
            cond_name = "_c%d" % pid
            chunks.append(_instance(cond_name, cond, binder.env, shapes))
        plans[pid] = ProcPlan(
            pid, resume_name, cond_name, init_runs_body,
            [s.index for s in wait_signals], binder.env, pure=pure)

    stats["compiled"] = len(plans)
    stats["slots"] = len(slot_indices)
    stats["generic"] = len(kernel.processes) - len(plans)
    stats["shapes"] = len(shapes)
    return "\n".join(chunks), plans, slot_indices, stats


def _process_texts(records):
    """Map each process function's code object to its dedented source,
    cut out of its model's ``py_source``: the ``def`` line at
    ``co_firstlineno`` and each following line that is blank or
    indented deeper.  The processes bound to one model factory share
    its function's code object, so each factory's text is cut once
    per elaborated model."""
    texts = {}
    for record in records:
        lines = None
        for proc in record.processes.values():
            if proc.fn is None or proc.fn.__code__ in texts:
                continue
            if lines is None:
                lines = getattr(record.node, "py_source",
                                "").splitlines(True)
            start = proc.fn.__code__.co_firstlineno - 1
            depth = len(lines[start]) - len(lines[start].lstrip())
            for end in range(start + 1, len(lines)):
                line = lines[end]
                if line.strip() and \
                        len(line) - len(line.lstrip()) <= depth:
                    break
            else:
                end = len(lines)
            texts[proc.fn.__code__] = textwrap.dedent(
                "".join(lines[start:end]))
    return texts


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


def _lift(node, env, operands):
    """Replace, in place and in field order, each integer literal
    (signal indices, delays, values) and each captured-environment name
    ``_e<pid>_*`` under ``node`` with a new parameter ``_k<i>``,
    appending the operand it stands for to ``operands``.  Returns the
    new node and its structural key: two trees get one key exactly
    when their ``ast.dump`` is equal, so processes that differ only in
    those operands share one key without either being rendered."""
    cls = type(node)
    if cls is ast.Constant:
        if type(node.value) is not int:
            return node, (cls, repr(node.value), node.kind)
        operands.append(repr(node.value))
    elif cls is ast.Name and node.id in env:
        operands.append(node.id)
    else:
        key = [cls]
        for field in node._fields:
            value = getattr(node, field, None)
            if isinstance(value, ast.AST):
                value, sub = _lift(value, env, operands)
                setattr(node, field, value)
                key.append(sub)
            elif isinstance(value, list):
                subs = []
                for i, item in enumerate(value):
                    if isinstance(item, ast.AST):
                        value[i], item = _lift(item, env, operands)
                    subs.append(item)
                key.append(tuple(subs))
            else:
                key.append(value)
        return node, tuple(key)
    param = "_k%d" % (len(operands) - 1)
    return ast.Name(id=param, ctx=ast.Load()), (ast.Name, param, (ast.Load,))


def _instance(name, funcdef, env, shapes):
    """``name = <factory>(<operands>)``, preceded by the factory's
    definition the first time its shape is seen."""
    operands = []
    funcdef, key = _lift(funcdef, env, operands)
    shape = shapes.get(key)
    text = ""
    if shape is None:
        shape = shapes[key] = "_s%d" % len(shapes)
        params = ["_k%d" % i for i in range(len(operands))]
        text = ast.unparse(_def(shape, params, [
            funcdef, ast.Return(value=ast.Name(id=funcdef.name,
                                               ctx=ast.Load()))])) + "\n"
    return text + "%s = %s(%s)" % (name, shape, ", ".join(operands))
