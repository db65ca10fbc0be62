"""Per-design specialization: flow-graph code for the compiled backend.

The source paper's pipeline ends in generated C compiled by the host
compiler; this module is the reproduction's equivalent of that last
mile.  Given the elaborator's records and the PR-9
:class:`~repro.analysis.netlist.DesignGraph`, it parses each process
function on its own (its lines cut out of the model's ``py_source``),
classifies every process, and renders one specialized Python module
per design:

- **canonical processes** — a single ``yield rt.wait(...)`` as the
  first or last statement of the ``while True`` loop, no persistent
  locals — become plain functions called directly by the
  :class:`~repro.sim.compiled.CompiledKernel` dispatch loop, with
  ``rt.read(sig)`` rewritten to a flat-list subscript ``V[i]``
  (current values indexed by ``Signal.index``) and signal attributes
  (``'EVENT``/``'ACTIVE``/``'LAST_VALUE``) to direct stamp compares;
- **slot-managed signals** — driven by exactly one canonical process,
  unresolved, off the cyclic quarantine, and only ever assigned
  single-element inertial (or zero-delay transport) waveforms — drop
  their ``Driver`` objects entirely: the projection collapses to a
  ``(next_time NT[i], next_value NV[i])`` slot pair, zero-delay
  assignments append to a due-now buffer that bypasses the heapq
  event calendar, and delayed assignments go to per-time buckets;
- everything else — multiple waits, wait timeouts, persistent VHDL
  variables, resolved/multi-driver targets, transport delays, helper
  calls that may assign, cyclic-quarantine membership — **falls back**
  to the untouched generic generator/`RT`/calendar path, interleaved
  with compiled processes in registration-index order so semantics
  stay byte-identical to the activity kernel.

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
import types

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


def _helper_may_assign(value, seen=None):
    """Could calling this captured object schedule a transaction?

    Captured helper functions (VHDL subprograms, guard closures) are
    opaque to the netlist's per-process facts, so a helper whose code
    mentions ``assign`` makes static drive information incomplete.
    Scans the code object and its nested consts, transitively through
    function-valued free variables.
    """
    if not isinstance(value, types.FunctionType):
        return False
    if seen is None:
        seen = set()
    if value in seen:
        return False
    seen.add(value)
    stack = [value.__code__]
    while stack:
        code = stack.pop()
        if "assign" in code.co_names or "assign" in code.co_freevars:
            return True
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    if value.__closure__ is not None:
        for cell in value.__closure__:
            try:
                inner = cell.cell_contents
            except ValueError:
                continue
            if _helper_may_assign(inner, seen):
                return True
    return False


# -- process analysis ----------------------------------------------------------


class SiteInfo:
    """One static ``rt.assign`` site found in a canonical process."""

    __slots__ = ("signal", "n_elems", "transport", "zero_literal")

    def __init__(self, signal, n_elems, transport, zero_literal):
        self.signal = signal
        self.n_elems = n_elems
        self.transport = transport
        self.zero_literal = zero_literal


class Analysis:
    """A canonical process, decomposed and environment-resolved.

    Only the process's source text is kept, not its tree: the
    rewrite parses it again, so no tree outlives its own pass."""

    __slots__ = ("proc", "text", "init_runs_body", "wait_signals",
                 "sites", "helper_risk")

    def __init__(self, proc, text, init_runs_body, wait_signals, sites,
                 helper_risk):
        self.proc = proc
        self.text = text
        self.init_runs_body = init_runs_body
        self.wait_signals = wait_signals
        self.sites = sites
        self.helper_risk = helper_risk


def _is_const(node, value):
    return isinstance(node, ast.Constant) and node.value is value


def _rt_call(node, attr=None):
    """Is ``node`` a ``rt.<attr>(...)`` call?  Returns the attr."""
    if not isinstance(node, ast.Call):
        return None
    fn = node.func
    if (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
            and fn.value.id == "rt"):
        if attr is None or fn.attr == attr:
            return fn.attr
    return None


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
                and _rt_call(stmt.value.value, "wait") is not None)

    if _is_wait_stmt(stmts[0]):
        return stmts[0].value.value, stmts[1:], False
    if _is_wait_stmt(stmts[-1]):
        return stmts[-1].value.value, stmts[:-1], True
    raise Reject("wait")


def analyze_process(proc, text, kernel):
    """Classify one process from its source ``text``; returns
    :class:`Analysis` or raises :class:`Reject`."""
    fn = proc.fn
    wait_call, rest, init_runs_body = _split(text, fn.__code__.co_name)
    args = list(wait_call.args)
    if wait_call.keywords or len(args) != 3:
        raise Reject("wait")
    sig_list, cond, timeout = args
    if not _is_const(timeout, None):
        raise Reject("wait")  # timed waits stay on the calendar
    if not isinstance(sig_list, ast.List):
        raise Reject("wait")
    wait_signals = []
    for elt in sig_list.elts:
        if not isinstance(elt, ast.Name):
            raise Reject("wait")
        sig = _signal_of(fn, elt.id, kernel)
        if sig is None:
            raise Reject("wait")
        wait_signals.append(sig)
    if not _is_const(cond, None) and not (
            isinstance(cond, ast.Lambda) and not cond.args.args
            and not cond.args.posonlyargs and not cond.args.kwonlyargs):
        raise Reject("wait")

    # Collect every static assign site; a target that does not resolve
    # to a signal of this kernel, or a non-literal waveform, defeats
    # the analysis.
    sites = []
    helper_risk = False
    for node in rest:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                attr = _rt_call(sub)
                if attr == "assign":
                    sites.append(_site_of(sub, fn, kernel))
                elif attr is None and not _ops_call(sub):
                    # A call into something that is neither rt nor
                    # ops: if the callee may assign, static drive
                    # facts are incomplete for the whole design.
                    helper_risk = helper_risk or _call_risk(sub, fn)
    return Analysis(proc, text, init_runs_body, wait_signals, sites,
                    helper_risk)


def _ops_call(node):
    fn = node.func
    return (isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Name) and fn.value.id == "ops")


def _call_risk(node, env_fn):
    """Does this non-rt/ops call reach code that may assign?"""
    fn = node.func
    if isinstance(fn, ast.Name):
        value = capture(env_fn, fn.id)
        if value is _MISSING:
            return True  # unknown callee: assume the worst
        return _helper_may_assign(value)
    return True


def _site_of(call, env_fn, kernel):
    args = list(call.args)
    if len(args) < 2 or not isinstance(args[0], ast.Name):
        raise Reject("names")
    sig = _signal_of(env_fn, args[0].id, kernel)
    if sig is None:
        raise Reject("names")
    waveform = args[1]
    if not isinstance(waveform, ast.Tuple) or not waveform.elts:
        raise Reject("names")
    for elem in waveform.elts:
        if not isinstance(elem, ast.Tuple) or len(elem.elts) != 2:
            raise Reject("names")
    transport = False
    for kw in call.keywords:
        if kw.arg == "transport":
            if not isinstance(kw.value, ast.Constant):
                raise Reject("names")
            transport = bool(kw.value.value)
        else:
            raise Reject("names")
    if len(args) > 2:
        if len(args) != 3 or not isinstance(args[2], ast.Constant):
            raise Reject("names")
        transport = bool(args[2].value)
    first_delay = waveform.elts[0].elts[1]
    return SiteInfo(sig, len(waveform.elts), transport,
                    _is_const_zero(first_delay))


def _is_const_zero(node):
    return isinstance(node, ast.Constant) and node.value == 0


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
    """Rewrites one expression tree into specialized form."""

    def __init__(self, binder, defined):
        self.binder = binder
        self.defined = defined

    # -- names ---------------------------------------------------------

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Store):
            return node  # statement level already recorded the local
        name = node.id
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
                return _expr_src("V[%d]" % binder.index(sig))
            if attr == "event":
                sig = self._sig_arg(node)
                return _expr_src(
                    "1 if SIG[%d].event_delta == step else 0"
                    % binder.index(sig))
            if attr == "active":
                sig = self._sig_arg(node)
                return _expr_src(
                    "1 if SIG[%d].active_delta == step else 0"
                    % binder.index(sig))
            if attr == "last_value":
                sig = self._sig_arg(node)
                return _expr_src("SIG[%d].last_value"
                                 % binder.index(sig))
            if attr in ("assert_", "check"):
                return ast.Call(
                    func=node.func,
                    args=[self.visit(a) for a in node.args],
                    keywords=[ast.keyword(arg=k.arg,
                                          value=self.visit(k.value))
                              for k in node.keywords])
            # assign in value position, nested wait, anything else
            raise Reject("construct")
        return self.generic_visit(node)

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

    def __init__(self, proc, pid, kernel, ops_obj):
        self.proc = proc
        self.pid = pid
        self.kernel = kernel
        self.ops = ops_obj
        self.env = {}  # mangled -> original name

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
        mangled = "_e%d_%s" % (self.pid, name)
        self.env[mangled] = name
        return ast.Name(id=mangled, ctx=ast.Load())

    def index(self, sig):
        return sig.index


def _rewrite_stmts(stmts, binder, slot_indices, defined, depth=0):
    """Transform a statement list; raises :class:`Reject` on any
    construct the specializer does not model."""
    out = []
    for stmt in stmts:
        if isinstance(stmt, ast.Expr):
            call = stmt.value
            if _rt_call(call, "assign") is not None \
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
    """One ``rt.assign`` statement → slot write or generic fallback."""
    binder.check_rt()
    site = _site_of(call, binder.proc.fn, binder.kernel)
    idx = site.signal.index
    tx = _Rewriter(binder, defined)
    waveform = call.args[1]
    if idx in slot_indices:
        elem = waveform.elts[0]
        value = tx.visit(elem.elts[0])
        if _is_const_zero(elem.elts[1]):
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
        delay = elem.elts[1]
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
    elems = []
    for elem in waveform.elts:
        elems.append(ast.Tuple(
            elts=[tx.visit(elem.elts[0]), tx.visit(elem.elts[1])],
            ctx=ast.Load()))
    new_call = _expr_src("rt.assign(SIG[%d], None, transport=%s)"
                         % (idx, bool(site.transport)))
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
    """Analyze, classify, and render one design's specialized module.

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

    Each process is parsed on its own, from its slice of its model's
    ``py_source``, and each tree is dropped once that process is
    analyzed or rendered, so no whole model and no tree is alive when
    the module text is byte-compiled.
    """
    stats = {"procs": len(kernel.processes), "compiled": 0,
             "slots": 0, "generic": 0}
    for reason in REASONS:
        stats.setdefault("reject_%s" % reason, 0)

    texts = _process_texts(records)
    cyclic_sigs = {ns.signal for ns in cyclic}

    # Pass A: canonical-shape analysis.
    analyses = {}
    helper_risk = False
    for proc in kernel.processes:
        text = texts.pop(proc, None)
        if text is None:
            stats["reject_shape"] += 1
            continue
        try:
            analysis = analyze_process(proc, text, kernel)
        except Reject as rej:
            stats["reject_%s" % rej.reason] += 1
            continue
        if any(s in cyclic_sigs for s in analysis.wait_signals) or \
                any(site.signal in cyclic_sigs
                    for site in analysis.sites):
            # Quarantined cone: stay on the calendar.
            stats["reject_cyclic"] += 1
            continue
        helper_risk = helper_risk or analysis.helper_risk
        analyses[proc] = analysis

    # Pass B: slot classification needs whole-design drive facts.
    slot_indices = _classify_slots(kernel, graph, analyses,
                                   cyclic_sigs, helper_risk)

    # Pass C: rewrite.  A rewrite-stage rejection demotes the process
    # (and un-slots its targets, conservatively re-running until the
    # fixpoint — in practice one extra pass at most).
    while True:
        plans, text, demoted = _render_all(kernel, analyses,
                                           slot_indices, stats)
        if not demoted:
            break
        for proc in demoted:
            del analyses[proc]
        slot_indices = _classify_slots(kernel, graph, analyses,
                                       cyclic_sigs, helper_risk)
        stats["compiled"] = 0

    stats["compiled"] = len(plans)
    stats["slots"] = len(slot_indices)
    stats["generic"] = len(kernel.processes) - len(plans)
    return text, plans, slot_indices, stats


def _process_texts(records):
    """Map each kernel process to the dedented source of its generated
    function, cut out of its model's ``py_source``: the ``def`` line at
    ``co_firstlineno`` and each following line that is blank or
    indented deeper."""
    texts = {}
    for record in records:
        lines = getattr(record.node, "py_source", "").splitlines(True)
        for proc in record.processes.values():
            if proc.fn is None:
                continue
            start = proc.fn.__code__.co_firstlineno - 1
            depth = len(lines[start]) - len(lines[start].lstrip())
            for end in range(start + 1, len(lines)):
                line = lines[end]
                if line.strip() and \
                        len(line) - len(line.lstrip()) <= depth:
                    break
            else:
                end = len(lines)
            texts[proc] = textwrap.dedent("".join(lines[start:end]))
    return texts


def _classify_slots(kernel, graph, analyses, cyclic_sigs,
                    helper_risk):
    """Signals whose Driver collapses to a (NT, NV) slot pair."""
    if helper_risk:
        return frozenset()
    known = {np.process for np in graph.processes}
    for proc in kernel.processes:
        if proc not in known and proc not in analyses:
            # A process the netlist never saw and the analyzer could
            # not parse: its drives are unknown; no slot is safe.
            return frozenset()

    drivers = {}  # Signal -> set of kernel processes
    for np in graph.processes:
        for drive in np.drives:
            drivers.setdefault(drive.target.signal,
                               set()).add(np.process)
    sites_by_sig = {}
    for proc, analysis in analyses.items():
        for site in analysis.sites:
            drivers.setdefault(site.signal, set()).add(proc)
            sites_by_sig.setdefault(site.signal, []).append(site)

    slots = set()
    for sig, procs in drivers.items():
        if sig in cyclic_sigs or sig.resolution is not None:
            continue
        if len(procs) != 1:
            continue
        (proc,) = procs
        if proc not in analyses:
            continue
        sites = sites_by_sig.get(sig)
        if not sites:
            continue  # netlist-only drive with no parsed site
        ok = all(
            site.n_elems == 1
            and (not site.transport or site.zero_literal)
            for site in sites)
        if ok:
            slots.add(sig.index)
    return frozenset(slots)


def _render_all(kernel, analyses, slot_indices, stats):
    """Render every analyzed process; returns (plans, text, demoted).

    Each rewritten function becomes text at once: its operands are
    lifted into the parameters of a shape factory (see
    :class:`_Lifter`), one factory per distinct text, and the process
    gets one line binding its own operands."""
    from .runtime import ops as ops_obj

    plans = {}
    shapes = {}  # factory text -> factory name
    chunks = []
    demoted = []
    for proc in sorted(analyses, key=lambda p: p.index):
        analysis = analyses[proc]
        pid = proc.index
        binder = _Binder(proc, pid, kernel, ops_obj)
        try:
            # Parse again: the analysis kept only the text, and the
            # rewriter mutates the tree in place.
            wait_call, rest, _ = _split(analysis.text,
                                        proc.fn.__code__.co_name)
            body = _rewrite_stmts(rest, binder, slot_indices, set())
            cond = wait_call.args[1]
            if isinstance(cond, ast.Lambda):
                cond = _def("_c", (), ast.parse("now, step = T").body + [
                    ast.Return(_Rewriter(binder, set()).visit(cond.body))])
            else:
                cond = None
        except Reject as rej:
            stats["reject_%s" % rej.reason] += 1
            demoted.append(proc)
            continue
        pure = _body_is_pure(body)
        resume_name = "_p%d" % pid
        resume = _def("_p", ("now", "step"), body)
        chunks.append(_instance(resume_name, resume, binder.env, shapes))
        cond_name = None
        if cond is not None:
            cond_name = "_c%d" % pid
            chunks.append(_instance(cond_name, cond, binder.env, shapes))
        plans[pid] = ProcPlan(
            pid, resume_name, cond_name, analysis.init_runs_body,
            [s.index for s in analysis.wait_signals], binder.env,
            pure=pure)
    stats["shapes"] = len(shapes)
    return plans, "\n".join(chunks), demoted


class _Lifter(ast.NodeTransformer):
    """Replaces each integer literal (signal indices, delays, values)
    and each captured-environment name ``_e<pid>_*`` with a new
    parameter ``_k<i>``, recording the operand it stands for, so
    processes that differ only in those render one text."""

    def __init__(self, env):
        self.env = env
        self.operands = []

    def _param(self, operand):
        self.operands.append(operand)
        return ast.Name(id="_k%d" % (len(self.operands) - 1),
                        ctx=ast.Load())

    def visit_Constant(self, node):
        if type(node.value) is int:
            return self._param(repr(node.value))
        return node

    def visit_Name(self, node):
        if node.id in self.env:
            return self._param(node.id)
        return node


def _instance(name, funcdef, env, shapes):
    """``name = <factory>(<operands>)``, preceded by the factory's
    definition the first time its shape is seen."""
    lifter = _Lifter(env)
    funcdef = lifter.visit(funcdef)
    params = ["_k%d" % i for i in range(len(lifter.operands))]
    factory = _def("_s", params, [
        funcdef, ast.Return(value=ast.Name(id=funcdef.name,
                                           ctx=ast.Load()))])
    key = ast.unparse(factory)
    shape = shapes.get(key)
    text = ""
    if shape is None:
        shape = shapes[key] = factory.name = "_s%d" % len(shapes)
        text = ast.unparse(factory) + "\n"
    return text + "%s = %s(%s)" % (name, shape,
                                   ", ".join(lifter.operands))


def _body_is_pure(body):
    """True when a rendered resume body cannot observe the kernel's
    per-dispatch bookkeeping: no ``rt`` reference (``rt.assign`` /
    ``rt.assert_`` read ``current_process``) and no call to anything
    but the scheduling helpers and ``ops`` arithmetic (a captured
    helper could reach ``rt`` through its closure)."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id == "rt":
                return False
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and \
                        func.id in ("_sched", "_hpush"):
                    continue
                if isinstance(func, ast.Attribute) and \
                        isinstance(func.value, ast.Name) and \
                        func.value.id in ("ops", "_DUE", "_B", "_b"):
                    continue  # arithmetic + slot-schedule plumbing
                return False
    return True
