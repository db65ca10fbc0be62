"""Out-of-line semantic functions: processes, concurrent statements,
and compilation-unit assembly (entity / architecture / package /
configuration), including emission of the generated Python model the
simulation kernel executes and the illustrative C model text.
"""

import builtins
import keyword
import re
from copy import copy
from types import SimpleNamespace

from ..vif.nodes import (
    ArchUnit,
    ConfigUnit,
    EntityUnit,
    InstanceEntry,
    ObjectEntry,
    PackageBodyUnit,
    PackageUnit,
)
from . import names as N
from . import vtypes
from .compile_ctx import attrs_of
from .flow import Flow, drive_flow, wait_flow
from .semantics_decl import (
    DeclResult,
    Row,
    as_text,
    flatten,
    indent,
    join,
    ln,
    redeclared,
    render,
)
from .semantics_stmt import SRes
from .symtab import entry_kind


def _msg(line, text):
    return "line %d: %s" % (line, text)


class CStmt:
    """One concurrent statement's contribution to an architecture.

    ``code``, ``instances``, ``labels`` (of the statements, for
    :func:`redeclared`), ``processes`` (the record of each process
    the code creates) and ``signals`` (a ``[py, name, line, resolved]``
    row per signal a block declares) are ropes, flattened by
    :func:`arch_unit`.  A process's code is one line whose text is a
    :class:`ProcessLine`, which :func:`arch_unit` makes a row.
    """

    __slots__ = ("code", "msgs", "instances", "labels", "processes",
                 "signals")

    def __init__(self, code=(), msgs=(), instances=(), label="",
                 processes=(), signals=(), line=0):
        self.code = code
        self.msgs = list(msgs)
        self.instances = instances
        self.labels = ((label, line),) if label else ()
        self.processes = processes
        self.signals = signals

    @staticmethod
    def merge(a, b):
        merged = CStmt(join(a.code, b.code), a.msgs + b.msgs,
                       join(a.instances, b.instances), "",
                       join(a.processes, b.processes),
                       join(a.signals, b.signals))
        merged.labels = join(a.labels, b.labels)
        return merged


CSTMT_EMPTY = CStmt()


# -- processes ----------------------------------------------------------------------------

#: Names every model binds for itself: the runtime its header imports,
#: the ``rt``/``ops`` locals ``elaborate`` opens with, Python's
#: builtins and keywords.  A factory body keeps them as they are.
_MODEL_NAMES = frozenset(("rt", "ops", "VArray", "VRecord")) \
    | frozenset(dir(builtins)) | frozenset(keyword.kwlist)

_STRING = r"""[bBrRuU]?(?:'(?:[^'\\\n]|\\.)*'|"(?:[^"\\\n]|\\.)*")"""

#: A string literal, or a name that is neither an attribute nor a
#: keyword argument (nor the target of an assignment).
_USE = re.compile(_STRING + r"|(?<![\w.])([A-Za-z_]\w*)\b(?!\s*=(?!=))")

#: The parts of a line that may bind a name: a ``def``, ``nonlocal``
#: or ``global`` line, a ``for`` target, ``lambda`` parameters and
#: assignment targets.
_BINDING = re.compile(r"^\s*(?:def|nonlocal|global)\b.*|\bfor\b.*?\bin\b"
                      r"|\blambda\b[^:]*:"
                      r"|^[\w\s,]+(?:[-+*/%&|^@]|//|\*\*|<<|>>)?=(?!=)")

_IDENT = re.compile(r"[A-Za-z_]\w*")


def _lift(lines):
    """``lines`` with each name they use but do not bind replaced by a
    parameter ``_a<i>``, numbered in order of first use, and the names
    so replaced.

    Every name a binding form mentions counts as bound, so the bound
    set may be too large; that only keeps a name in the text, where
    the factory, nested in ``elaborate``, still sees it.  A name the
    process binds carries no source line (:mod:`repro.vhdl.names`).
    Names in string literals stay as they are."""
    bound = set()
    for _, text in lines:
        for match in _BINDING.finditer(text):
            bound.update(_IDENT.findall(match.group()))
    params = {}

    def param(match):
        name = match.group(1)
        if name is None or name in bound or name in _MODEL_NAMES:
            return match.group()
        if name not in params:
            params[name] = N.LIFTED % len(params)
        return params[name]

    lifted = tuple((depth, _USE.sub(param, text)) for depth, text in lines)
    return lifted, list(params)


class ProcessLine:
    """A process statement of an architecture, until :func:`arch_unit`
    names its factory.

    ``text`` is the process function ``_p`` with every name it takes
    from outside lifted (:func:`_lift`); ``args`` are those names.
    :func:`arch_unit` keeps one factory per distinct ``text`` and
    makes this statement the process row that binds the factory to
    ``args``."""

    __slots__ = ("label", "text", "args", "sens", "line")

    def __init__(self, label, lines, sens, line):
        self.label = label
        self.text, self.args = _lift(flatten(lines))
        self.sens = sens  # the sensitivity list's names, or None
        self.line = line

    def within(self, block):
        """This line for the process inside block ``block``: its label
        is the process's path below the architecture."""
        line = copy(self)
        line.label = N.kernel_path((("block", block),), self.label)
        return line

    def bind(self, factories):
        """The process row (:func:`~repro.vhdl.codegen.pymodel.row_line`),
        entering this text in ``factories`` (lifted text -> factory
        name, arity) if it is new."""
        if self.text not in factories:
            factories[self.text] = (N.FACTORY % (len(factories) + 1),
                                    len(self.args))
        return Row(["process", self.label, factories[self.text][0],
                    self.args, self.sens, self.line])


def _factory_lines(text, name, arity):
    """``def <name>(_a0, ...)``, returning the process function
    ``text`` defines."""
    lines = [ln("def %s(%s):" % (name, ", ".join(
        N.LIFTED % i for i in range(arity))))]
    lines.extend(indent(text))
    lines.append(ln("return _p", 1))
    return lines


def _process_line(label, lines, sens, line):
    """The code of a process whose function ``_p`` is ``lines``:
    one :class:`ProcessLine`, with a sensitivity list unless ``sens``
    is None."""
    return [ln(ProcessLine(label, lines, sens, line))]


def process_stmt(label, sensitivity_lefs, decls, body, env, cc, line):
    """``label: process (sens) decls begin stmts end process;``

    ``decls`` is the DeclResult of the process declarative part (its
    code becomes the pre-loop variable initialization); ``body`` is the
    SRes of the statement part.
    """
    msgs = list(decls.msgs) + list(body.msgs) \
        + redeclared(flatten(decls.entries), (), line)
    if body.jump:
        msgs.append(body.jump)
    fn = N.PROCESS_FUNCTION % label
    sens = []
    if sensitivity_lefs is not None:
        for name_lef in sensitivity_lefs:
            tgt = cc.eval_target(name_lef, env, line)
            msgs.extend(tgt.get("msgs", ()))
            lv = tgt.get("lvalue")
            if lv is None or not lv.base.is_signal:
                msgs.append(_msg(line, "sensitivity entry is not a "
                                 "signal"))
                continue
            sens.append(lv.base.py)
        if body.haswait:
            msgs.append(_msg(
                line, "process with a sensitivity list cannot contain "
                "wait statements"))
    loop_body = flatten(body.code) or [ln("pass")]
    flow = decls.flow + body.flow
    final = sens if sensitivity_lefs is not None else None
    if final is None and not body.haswait:
        msgs.append(_msg(
            line, "process %s has no wait statement and no "
            "sensitivity list; it would loop forever — a final "
            "wait was inserted" % label))
        final = []
    if final is not None:
        loop_body.append(ln("yield rt.wait([%s], None, None)"
                            % ", ".join(final)))
        if not body.dead:  # else the final wait is unreachable
            flow += wait_flow(final)
    if sensitivity_lefs is None:
        sens = None
    lines = [ln("def _p():")]
    lines.extend(indent(as_text(decls.code)))
    lines.append(ln("while True:", 1))
    lines.extend(indent(loop_body, 2))
    return CStmt(_process_line(label, lines, sens, line), msgs, (),
                 label, [flow.record(label, fn, line, sens)], line=line)


def _equivalent_process(label, body_lines, body_flow, sens, line,
                        fn=None):
    """The process a concurrent statement stands for: its body, then a
    wait on the signals it names."""
    lines = [ln("def _p():"), ln("while True:", 1)]
    lines.extend(indent(body_lines or [ln("pass")], 2))
    lines.append(ln("yield rt.wait([%s], None, None)"
                    % ", ".join(sens), 2))
    flow = body_flow + wait_flow(sens)
    return (_process_line(label, lines, sens, line),
            flow.record(label, fn or N.PROCESS_FUNCTION % label, line, sens))


def concurrent_assign(label, arms, env, cc, line, guard_py=None):
    """Concurrent (possibly conditional) signal assignment.

    ``arms``: list of (target_lef, wave, cond_lef_or_None, transport).
    All arms share one target in VHDL; we take the first target.
    Equivalent process: assign, then wait on the signals read; a
    guarded one assigns only while ``guard_py`` is true.
    """
    from .semantics_stmt import if_stmt, signal_assign

    msgs = []
    sigs = set()
    if guard_py is not None:
        sigs.add(guard_py)
    body = SRes(stmts=0)
    else_sres = None
    cond_arms = []
    for target_lef, wave, cond_lef, transport in arms:
        sres = signal_assign(target_lef, wave, transport, env, cc,
                             line, guard_py=guard_py)
        msgs.extend(sres.msgs)
        sigs |= sres.sigs
        if cond_lef is None:
            else_sres = sres
        else:
            cond_arms.append((cond_lef, sres))
    if cond_arms:
        body = if_stmt(cond_arms, else_sres, env, cc, line)
        msgs.extend(m for m in body.msgs if m not in msgs)
        sigs |= body.sigs
    elif else_sres is not None:
        body = else_sres
    lines, record = _equivalent_process(label, body.code, body.flow,
                                        sorted(sigs), line)
    return CStmt(lines, msgs, (), label, [record], line=line)


def selected_assign(label, selector_lef, target_lef, choices_waves,
                    env, cc, line):
    """``with sel select target <= w1 when c1, ... ;``"""
    from .semantics_stmt import signal_assign

    msgs = []
    sel = cc.eval_expr(selector_lef, env, line)
    msgs.extend(sel.get("msgs", ()))
    sigs = set(sel.get("sigs", ()))
    flow = Flow.of_uses(sel.get("uses", ()))
    sel_type = sel.get("type")
    tmp = N.SELECT_TEMP
    body = [ln("%s = %s" % (tmp, sel.get("code", "None")))]
    keyword = "if"
    for wave, choice_lefs in choices_waves:
        vals = []
        others = False
        for clef in choice_lefs:
            goal = cc.eval_choice(clef, env, line, expected=sel_type)
            msgs.extend(goal.get("msgs", ()))
            if goal.get("others"):
                others = True
            else:
                vals.extend(goal.get("vals", ()))
        sres = signal_assign(target_lef, wave, False, env, cc, line)
        msgs.extend(sres.msgs)
        sigs |= sres.sigs
        flow += sres.flow
        if others:
            body.append(ln("else:"))
        else:
            body.append(ln("%s %s in (%s):" % (
                keyword, tmp,
                ", ".join(repr(v) for v in vals) + ("," if vals else ""))))
            keyword = "elif"
        body.extend(indent(sres.code))
    lines, record = _equivalent_process(label, body, flow, sorted(sigs),
                                        line)
    return CStmt(lines, msgs, (), label, [record], line=line)


def concurrent_assert(label, cond_lef, report_lef, severity_lef, env,
                      cc, line):
    """A concurrent assertion: the equivalent process re-checks the
    condition whenever a signal it reads has an event."""
    from .semantics_stmt import assert_stmt

    sres = assert_stmt(cond_lef, report_lef, severity_lef, env, cc,
                       line)
    lines, record = _equivalent_process(label, sres.code, sres.flow,
                                        sorted(sres.sigs), line)
    return CStmt(lines, sres.msgs, (), label, [record], line=line)


# -- component instantiation -----------------------------------------------------------------


def instantiation(label, comp_name, generic_assocs, port_assocs, env,
                  cc, line):
    """``label : comp generic map (...) port map (...);``

    Association lists are (formal_name_or_None, actual_lef_or_None)
    pairs; a None actual is OPEN.
    """
    msgs = []
    comp = None
    for e in env.lookup(comp_name).entries:
        if entry_kind(e) == "component":
            comp = e
            break
    if comp is None:
        return CStmt([], [_msg(line, "%r is not a component"
                                % comp_name)], [], label, line=line)
    gmap = {}
    for formal, actual_lef in generic_assocs:
        formal = formal or (comp.generics[len(gmap)].name
                            if len(gmap) < len(comp.generics) else None)
        g = comp.generic_by_name(formal) if formal else None
        if g is None:
            msgs.append(_msg(line, "no generic %r on component %r"
                             % (formal, comp_name)))
            continue
        goal = cc.eval_expr(actual_lef, env, line, expected=g.vtype)
        msgs.extend(goal.get("msgs", ()))
        gmap[formal] = goal.get("code", "None")
    pmap = {}
    positional_i = 0
    for formal, actual_lef in port_assocs:
        if formal is None:
            if positional_i >= len(comp.ports):
                msgs.append(_msg(line, "too many port associations"))
                continue
            formal = comp.ports[positional_i].name
        positional_i += 1
        port = comp.port_by_name(formal)
        if port is None:
            msgs.append(_msg(line, "no port %r on component %r"
                             % (formal, comp_name)))
            continue
        if actual_lef is None:
            pmap[formal] = "None"  # OPEN
            continue
        tgt = cc.eval_target(actual_lef, env, line)
        msgs.extend(tgt.get("msgs", ()))
        lv = tgt.get("lvalue")
        if lv is None or not lv.base.is_signal or lv.path:
            msgs.append(_msg(
                line, "port actual for %r must be a whole signal"
                % formal))
            continue
        pmap[formal] = lv.base.py
    code = [ln(Row(["instance", label, comp_name,
                    [[k, v] for k, v in gmap.items()],
                    [[k, v] for k, v in pmap.items()], line]))]
    inst = InstanceEntry(label=label, component=comp, connections={
        formal: actual for formal, actual in pmap.items()
        if actual != "None"})
    return CStmt(code, msgs, [inst], label, line=line)


def block_stmt(label, guard_lef, decls, inner, scope, env, cc, line):
    """``label: block (guard) decls begin ... end block;``

    Its signals are named by the block's ``scope``
    (:func:`~repro.vhdl.names.kernel_path`), and its processes by its
    label the same way: ``p`` in ``deep`` in ``outer`` is
    ``outer:deep:p``, kernel path and record alike.  The guard
    becomes an implicit signal driven by an equivalent process;
    guarded assignments inside test it.
    """
    entries = flatten(decls.entries)
    # The block declares GUARD before its own declarations.
    guard = [SimpleNamespace(name="guard")] if guard_lef is not None else []
    msgs = list(decls.msgs) + redeclared(guard + entries,
                                         flatten(inner.labels), line)
    lines = []
    signals = [[e.py, N.kernel_path(scope, e.name), e.line,
                vtypes.resolution_of(e.vtype) is not None]
               for e in entries
               if entry_kind(e) == "object" and e.obj_class == "signal"]
    processes = ()
    if guard_lef is not None:
        goal = cc.eval_expr(guard_lef, env, line,
                            expected=cc.std.boolean)
        msgs.extend(goal.get("msgs", ()))
        uses = goal.get("uses", ())
        guard_py, guard_path = N.guard_signal(scope)
        lines.append(ln(Row(["signal", guard_py, guard_path, "0", None,
                             None])))
        signals.append([guard_py, guard_path, None, False])
        fn = N.GUARD_PROCESS % label
        guard_lines, record = _equivalent_process(
            fn, [ln("rt.assign(%s, ((%s, 0),))"
                    % (guard_py, goal.get("code", "0")))],
            Flow.of_uses(uses)
            + drive_flow([(guard_py, True, True, False, False)]),
            goal.get("sigs", []), line, fn=fn)
        lines.extend(guard_lines)
        processes = [record]
    msgs.extend(inner.msgs)
    code = [(depth, text.within(label) if type(text) is ProcessLine
             else text) for depth, text in flatten(inner.code)]
    records = [[N.kernel_path((("block", label),), record[0])]
               + record[1:]
               for record in flatten(inner.processes)]
    return CStmt(join(join(decls.code, lines), code), msgs,
                 inner.instances, label, join(processes, records),
                 join(signals, inner.signals), line)


# -- unit assembly ----------------------------------------------------------------------------


_PY_HEADER = [
    "# Generated by the repro VHDL compiler — do not edit.",
    "from repro.sim.runtime import VArray, VRecord, ops",
    "",
]


def interface_object(name, obj_class, mode, sub, default_goal, cc,
                     line):
    """One generic or port declaration of an entity/component."""
    msgs = list(sub.msgs)
    value = None
    has_value = False
    if default_goal is not None:
        msgs.extend(default_goal.get("msgs", ()))
        if default_goal.get("has_val") and isinstance(
                default_goal["val"], (int, float, str, bool)):
            value = default_goal["val"]
            has_value = True
    entry = ObjectEntry(
        name=name, obj_class=obj_class, mode=mode or "in",
        vtype=sub.vtype, py=N.declared((), obj_class, name),
        value=value, has_value=has_value, line=line)
    return entry, msgs, sub


def entity_unit(name, generics, ports, cc, line):
    """Assemble an EntityUnit (interface VIF; code is generated with
    each architecture)."""
    return EntityUnit(
        name=name, generics=list(generics), ports=list(ports), decls=[],
        py_source="# entity %s: interface only; code is generated "
                  "with each architecture\n" % name,
        line=line)


def entity_setup_code(entity):
    """The generic/port preamble of an architecture's elaborate()."""
    from .expr_sem import code_for_value
    from .semantics_decl import default_init

    lines = []
    for g in entity.generics:
        default = (code_for_value(g.value) if g.has_value else "None")
        lines.append(ln("%s = ctx.generic(%r, %s)"
                        % (g.py, g.name, default)))
    for p in entity.ports:
        if p.has_value:
            init = code_for_value(p.value)
        else:
            init = default_init(p.vtype) or "0"
        lines.append(ln("%s = ctx.port(%r, init=%s, mode=%r, line=%r)"
                        % (p.py, p.name, init, p.mode, p.line)))
    return lines


def arch_unit(name, entity, decls, cstmts, configs, env, cc, line):
    """Assemble an ArchUnit with its generated Python model and, per
    process factory, the form the compiled backend runs
    (:mod:`repro.vhdl.slotform`)."""
    from .slotform import slot_form

    entries = flatten(decls.entries)
    msgs = list(decls.msgs) + list(cstmts.msgs) + redeclared(
        list(entity.generics) + list(entity.ports) + entries,
        flatten(cstmts.labels), line)
    instances = flatten(cstmts.instances)
    # Apply configuration specifications from the declarative part
    # (§3.3: configuration information in the architecture).
    for spec in configs:
        labels, comp_name, lib, ent, arch_name = spec
        for inst in instances:
            if inst.component is None:
                continue
            match = (
                labels == ["all"] or labels == ["others"]
                and not inst.is_bound
                or inst.label in labels
            )
            if match and inst.component.name == comp_name \
                    and not inst.is_bound:
                inst.bound_library = lib
                inst.bound_entity = ent
                inst.bound_arch = arch_name
    # Each process becomes a row binding its factory; the factories,
    # one per distinct lifted text, open the body.
    factories = {}  # lifted process text -> (factory name, arity)
    code = [(depth, text.bind(factories) if type(text) is ProcessLine
             else text)
            for depth, text in flatten(join(decls.code, cstmts.code))]
    head = [ln("rt = ctx.rt"), ln("ops = ctx.ops")]
    for text, (factory, arity) in factories.items():
        head.extend(_factory_lines(text, factory, arity))
    head.extend(entity_setup_code(entity))
    py_source, rows, clash = _model(head, code)
    if clash and not msgs:
        msgs.append(_clash_msg("architecture %s of %s"
                               % (name, entity.name), clash))
    return ArchUnit(
        name=name, entity_name=entity.name, entity=entity,
        decls=entries, instances=instances,
        user_attrs=list(attrs_of(env)),
        processes=flatten(cstmts.processes),
        block_signals=flatten(cstmts.signals),
        slot_forms=[slot_form(text) for text in factories],
        rows=rows, py_source=py_source, line=line), msgs


def package_unit(name, decls, env, cc, line, is_body=False):
    py_source, rows, clash = _model(
        [ln("rt = ctx.rt"), ln("ops = ctx.ops")], flatten(decls.code),
        [ln("ctx.export({k: v for k, v in locals().items() "
            "if k not in ('ctx', 'rt', 'ops')})")])
    cls = PackageBodyUnit if is_body else PackageUnit
    entries = flatten(decls.entries)
    kwargs = dict(name=name, decls=entries, rows=rows,
                  py_source=py_source, line=line)
    if not is_body:
        kwargs["user_attrs"] = list(attrs_of(env))
    msgs = list(decls.msgs) + redeclared(entries, (), line)
    if clash and not msgs:
        msgs.append(_clash_msg("package %s%s" % (
            "body " if is_body else "", name), clash))
    return cls(**kwargs), msgs


# -- the model: code and rows ------------------------------------------------------------

#: A number as Python spells it, and the constants: operands a row
#: holds as they are.
_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?")
_CONSTANT = {"None": None, "True": True, "False": False}

#: The name a top-level model statement binds.
_TARGET = re.compile(r"def (\w+)\(|(\w+) = ")

_COMPUTED = object()


def _operand(code):
    """``code`` as a row operand, a literal or a name, or
    ``_COMPUTED``."""
    if code in _CONSTANT:
        return _CONSTANT[code]
    if _IDENT.fullmatch(code) and not keyword.iskeyword(code):
        return code
    if _NUMBER.fullmatch(code):
        value = float(code) if "." in code or "e" in code else int(code)
        if repr(value) == code:
            return value
    return _COMPUTED


def _names(text):
    """The names ``text`` reads."""
    return {match.group(1) for match in _USE.finditer(text)
            if match.group(1)}


def _model(head, items, tail=()):
    """The ``py_source`` of a unit's model, its rows, and a Python name
    it binds twice (or None: names are distinct by construction, so a
    clash is a compiler fault).

    ``head`` are the model's first lines (its runtime locals, process
    factories, generics and ports); ``items`` the unit's code lines in
    source order, a signal, process or component instance being a
    :class:`Row`; ``tail`` the lines after them.  Each maximal run of
    rows becomes one ``ctx.rows(locals())``
    (:meth:`repro.vhdl.elaborate.ElabContext.rows`), and each row's
    last field is the index of its run.  An operand that is neither a
    literal nor a name is bound to a name ``_o<n>`` before its run,
    unless it reads a signal of the run or follows an instance of the
    run: then the run ends before its row, as it does before any other
    code statement, so code runs in source order with respect to every
    row it could observe.  After its run, a signal the code reads by
    name (a procedure driving it, say) is unpacked into a local.
    """
    statements = []  # a code statement's lines, or (row, bindings)
    computed = []  # (name, code) of each computed operand, in order

    def operand(code):
        value = _operand(code)
        if value is _COMPUTED:
            computed.append((N.OPERAND % (len(computed) + 1), code))
            return computed[-1][0]
        return value

    for depth, text in items:
        if type(text) is not Row:
            if depth and statements and type(statements[-1]) is list:
                statements[-1].append((depth, text))
            else:
                statements.append([(depth, text)])
            continue
        row, first = list(text.row), len(computed)
        if row[0] == "signal":
            row[3] = operand(row[3])
            row[4] = None if row[4] is None else operand(row[4])
        elif row[0] == "instance":
            row[3] = [[k, operand(v)] for k, v in row[3]]
            row[4] = [[k, operand(v)] for k, v in row[4]]
        statements.append((row, computed[first:]))
    code = [line for text in statements if type(text) is list
            for line in text]
    bound = [text[0][1] for text in statements
             if type(text) is tuple and text[0][0] == "signal"]
    read = set()
    for _, text in code + computed:
        read |= _names(text)

    body, rows, run, hoisted = list(head), [], [], []
    run_signals, run_instance = set(), False

    def close():
        nonlocal run_instance
        if not run:
            return
        body.extend(hoisted)
        for row in run:
            row.append(rows[-1][-1] + 1 if rows else 0)
        rows.extend(run)
        unpack = [row[1] for row in run
                  if row[0] == "signal" and row[1] in read]
        body.append(ln("%sctx.rows(locals())"
                       % ("_rows = " if unpack else "")))
        body.extend(ln("%s = _rows[%r]" % (py, py)) for py in unpack)
        del run[:], hoisted[:]
        run_signals.clear()
        run_instance = False

    for text in statements:
        if type(text) is list:
            close()
            body.extend(text)
            continue
        row, bindings = text
        for name, value in bindings:
            if run_instance or _names(value) & run_signals:
                close()
            hoisted.append(ln("%s = %s" % (name, value)))
        run.append(row)
        if row[0] == "signal":
            run_signals.add(row[1])
        run_instance = run_instance or row[0] == "instance"
    close()
    body.extend(tail)
    lines = list(_PY_HEADER)
    lines.append("def elaborate(ctx):")
    lines.append(render(body, base_indent=1))
    return "\n".join(lines) + "\n", rows, _clash(bound, head + code)


def _clash(bound, lines):
    """A Python name that two rows, or a row and a top-level line of
    ``lines``, bind; None if there is none."""
    seen = set()
    for py in bound:
        if py in seen:
            return py
        seen.add(py)
    for depth, text in lines:
        match = _TARGET.match(text) if depth == 0 else None
        if match and (match.group(1) or match.group(2)) in seen:
            return match.group(1) or match.group(2)
    return None


def _clash_msg(unit, py):
    return "internal: the model of %s binds the Python name %r twice" \
        % (unit, py)


def config_unit(name, entity_entries, bindings, cc, line):
    """``configuration name of entity is for arch ... end for;``

    ``bindings``: list of (arch_name, labels, comp_name, lib, ent,
    arch) rows stored as data — applied at elaboration (§3.3's
    "postponed until the configuration information is available").

    Compiling a configuration means reading and traversing the large
    data structures other units built (footnote 3): the configured
    architecture's VIF is loaded and every binding is checked against
    its instances, and every bound entity/architecture pair against
    the library.
    """
    msgs = []
    entity = None
    entity_name = "?"
    for e in entity_entries:
        if entry_kind(e) == "entity":
            entity = e
            entity_name = e.name
            break
    if entity is None:
        msgs.append(_msg(line, "configuration of a non-entity"))
    if entity is not None and cc.library is not None:
        for row in bindings:
            arch_name, labels, comp, blib, bent, barch = row
            arch = cc.library.find_architecture(
                cc.work, entity_name, arch_name)
            if arch is None:
                msgs.append(_msg(line, "no architecture %r of %r"
                                 % (arch_name, entity_name)))
                continue
            label_set = labels.split(",")
            instances = {i.label: i for i in arch.instances}
            if "all" not in label_set and "others" not in label_set:
                for lbl in label_set:
                    inst = instances.get(lbl)
                    if inst is None:
                        msgs.append(_msg(
                            line, "architecture %r has no instance %r"
                            % (arch_name, lbl)))
                    elif inst.component is not None                             and inst.component.name != comp:
                        msgs.append(_msg(
                            line, "instance %r is of component %r, "
                            "not %r" % (lbl, inst.component.name,
                                        comp)))
            bound_ent = cc.library.find_unit(blib, bent)
            if bound_ent is None                     or entry_kind(bound_ent) != "entity":
                msgs.append(_msg(line, "no entity %s.%s"
                                 % (blib, bent)))
            elif barch and cc.library.find_architecture(
                    blib, bent, barch) is None:
                msgs.append(_msg(line, "no architecture %r of %s.%s"
                                 % (barch, blib, bent)))
            # Traverse the bound entity's interface against the
            # component's — the VIF editing work of footnote 3.
            if bound_ent is not None                     and entry_kind(bound_ent) == "entity":
                comp_entry = None
                for inst in arch.instances:
                    if inst.component is not None                             and inst.component.name == comp:
                        comp_entry = inst.component
                        break
                if comp_entry is not None:
                    for port in comp_entry.ports:
                        if bound_ent.port_by_name(port.name) is None:
                            msgs.append(_msg(
                                line, "entity %s has no port %r of "
                                "component %r" % (bent, port.name,
                                                  comp)))
    return ConfigUnit(name=name, entity_name=entity_name,
                      entity=entity, bindings=[list(b) for b in bindings],
                      py_source="", line=line), msgs
