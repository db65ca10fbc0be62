"""Out-of-line semantic functions: processes, concurrent statements,
and compilation-unit assembly (entity / architecture / package /
configuration), including emission of the generated Python model the
simulation kernel executes and the illustrative C model text.
"""

import builtins
import keyword
import re

from ..vif.nodes import (
    ArchUnit,
    ConfigUnit,
    EntityUnit,
    InstanceEntry,
    ObjectEntry,
    PackageBodyUnit,
    PackageUnit,
)
from . import vtypes
from .compile_ctx import attrs_of
from .flow import Flow, drive_flow, wait_flow
from .semantics_decl import DeclResult, flatten, indent, join, ln, render
from .semantics_stmt import SRes
from .symtab import entry_kind


def _msg(line, text):
    return "line %d: %s" % (line, text)


class CStmt:
    """One concurrent statement's contribution to an architecture.

    ``code``, ``instances``, ``processes`` (the record of each process
    the code creates) and ``signals`` (a ``[py, name, line, resolved]``
    row per signal a block declares) are ropes, flattened by
    :func:`arch_unit`.  A process's code is one line whose text is a
    :class:`ProcessLine`, which :func:`arch_unit` renders.
    """

    __slots__ = ("code", "msgs", "instances", "label", "processes",
                 "signals")

    def __init__(self, code=(), msgs=(), instances=(), label="",
                 processes=(), signals=()):
        self.code = code
        self.msgs = list(msgs)
        self.instances = instances
        self.label = label
        self.processes = processes
        self.signals = signals

    @staticmethod
    def merge(a, b):
        return CStmt(join(a.code, b.code), a.msgs + b.msgs,
                     join(a.instances, b.instances), "",
                     join(a.processes, b.processes),
                     join(a.signals, b.signals))


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

#: A string literal, or a name that carries a source line or a
#: counter: a loop parameter ``v_<name>_l<line>``, a subprogram
#: ``f_<name>_l<line>``, a ``_case_<n>`` or ``_sel_<n>`` temporary.
_NUMBERED = re.compile(
    _STRING + r"|(?<![\w.])((?:[vf]_\w+_l|_case_|_sel_)\d+)\b")

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
    the factory, nested in ``elaborate``, still sees it.  A bound name
    that carries a source line or a counter (:data:`_NUMBERED`) gets
    its number replaced by its rank in order of first use, so two
    processes that differ only in where they stand share a text.
    Names in string literals stay as they are."""
    bound = set()
    for _, text in lines:
        for match in _BINDING.finditer(text):
            bound.update(_IDENT.findall(match.group()))
    params = {}
    own = {}

    def param(match):
        name = match.group(1)
        if name is None or name in bound or name in _MODEL_NAMES:
            return match.group()
        if name not in params:
            params[name] = "_a%d" % len(params)
        return params[name]

    def renumber(match):
        name = match.group(1)
        if name is None or name not in bound:
            return match.group()
        if name not in own:
            own[name] = "%s%d" % (name.rstrip("0123456789"),
                                  len(own) + 1)
        return own[name]

    lifted = tuple((depth, _NUMBERED.sub(renumber, _USE.sub(param, text)))
                   for depth, text in lines)
    return lifted, list(params)


class ProcessLine:
    """A process's line in its architecture's ``elaborate(ctx)``.

    ``text`` is the process function ``_p`` with every name it takes
    from outside lifted (:func:`_lift`); ``args`` are those names.
    :func:`arch_unit` keeps one factory per distinct ``text`` and
    renders this line as the ``ctx.process`` call that binds the
    factory to ``args``."""

    __slots__ = ("label", "text", "args", "tail")

    def __init__(self, label, lines, tail):
        self.label = label
        self.text, self.args = _lift(flatten(lines))
        self.tail = tail  # the call's arguments after the function

    def bind(self, factories):
        """The ``ctx.process`` line, entering this text in
        ``factories`` (lifted text -> factory name, arity) if it is
        new."""
        if self.text not in factories:
            factories[self.text] = ("_f%d" % (len(factories) + 1),
                                    len(self.args))
        return "ctx.process(%r, %s(%s)%s)" % (
            self.label, factories[self.text][0], ", ".join(self.args),
            self.tail)


def _factory_lines(text, name, arity):
    """``def <name>(_a0, ...)``, returning the process function
    ``text`` defines."""
    lines = [ln("def %s(%s):" % (name, ", ".join(
        "_a%d" % i for i in range(arity))))]
    lines.extend(indent(text))
    lines.append(ln("return _p", 1))
    return lines


def _process_line(label, lines, sens, line):
    """The code of a process whose function ``_p`` is ``lines``:
    one :class:`ProcessLine`, with a sensitivity list unless ``sens``
    is None."""
    if sens is None:
        tail = ", line=%r" % line
    else:
        tail = ", sensitivity=[%s], line=%r" % (", ".join(sens), line)
    return [ln(ProcessLine(label, lines, tail))]


def process_stmt(label, sensitivity_lefs, decls, body, env, cc, line):
    """``label: process (sens) decls begin stmts end process;``

    ``decls`` is the DeclResult of the process declarative part (its
    code becomes the pre-loop variable initialization); ``body`` is the
    SRes of the statement part.
    """
    msgs = list(decls.msgs) + list(body.msgs)
    label = label or cc.gensym("proc")
    fn = "_p_%s" % label
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
    lines.extend(indent(decls.code))
    lines.append(ln("while True:", 1))
    lines.extend(indent(loop_body, 2))
    return CStmt(_process_line(label, lines, sens, line), msgs, (),
                 label, [flow.record(label, fn, line, sens)])


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
            flow.record(label, fn or "_p_%s" % label, line, sens))


def concurrent_assign(label, arms, env, cc, line, guarded=False,
                      guard_py=None):
    """Concurrent (possibly conditional) signal assignment.

    ``arms``: list of (target_lef, wave, cond_lef_or_None, transport).
    All arms share one target in VHDL; we take the first target.
    Equivalent process: assign, then wait on the signals read.
    """
    from .semantics_stmt import if_stmt, signal_assign

    label = label or cc.gensym("cassign")
    msgs = []
    sigs = set()
    guard_py = guard_py if guarded else None
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
    return CStmt(lines, msgs, (), label, [record])


def selected_assign(label, selector_lef, target_lef, choices_waves,
                    env, cc, line):
    """``with sel select target <= w1 when c1, ... ;``"""
    from .semantics_stmt import signal_assign

    label = label or cc.gensym("sassign")
    msgs = []
    sel = cc.eval_expr(selector_lef, env, line)
    msgs.extend(sel.get("msgs", ()))
    sigs = set(sel.get("sigs", ()))
    flow = Flow.of_uses(sel.get("uses", ()))
    sel_type = sel.get("type")
    tmp = cc.gensym("_sel")
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
    return CStmt(lines, msgs, (), label, [record])


def concurrent_assert(label, cond_lef, report_lef, severity_lef, env,
                      cc, line):
    """A concurrent assertion: the equivalent process re-checks the
    condition whenever a signal it reads has an event."""
    from .semantics_stmt import assert_stmt

    sres = assert_stmt(cond_lef, report_lef, severity_lef, env, cc,
                       line)
    lines, record = _equivalent_process(label, sres.code, sres.flow,
                                        sorted(sres.sigs), line)
    return CStmt(lines, sres.msgs, (), label, [record])


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
                                % comp_name)], [], label)
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
    gitems = ", ".join("%r: %s" % (k, v) for k, v in gmap.items())
    pitems = ", ".join("%r: %s" % (k, v) for k, v in pmap.items())
    code = [ln("ctx.instance(%r, %r, {%s}, {%s})"
               % (label, comp_name, gitems, pitems))]
    inst = InstanceEntry(label=label, component=comp, connections={
        formal: actual for formal, actual in pmap.items()
        if actual != "None"})
    return CStmt(code, msgs, [inst], label)


def block_stmt(label, guard_lef, decls, inner, env, cc, line):
    """``label: block (guard) decls begin ... end block;``

    The guard becomes an implicit signal driven by an equivalent
    process; guarded assignments inside test it.
    """
    msgs = list(decls.msgs)
    lines = []
    signals = [[e.py, e.name, e.line,
                vtypes.resolution_of(e.vtype) is not None]
               for e in flatten(decls.entries)
               if entry_kind(e) == "object" and e.obj_class == "signal"]
    processes = ()
    if guard_lef is not None:
        goal = cc.eval_expr(guard_lef, env, line,
                            expected=cc.std.boolean)
        msgs.extend(goal.get("msgs", ()))
        uses = goal.get("uses", ())
        guard_py = "s_guard_%s" % label
        lines.append(ln("%s = ctx.signal(%r, init=0)"
                        % (guard_py, "%s.guard" % label)))
        signals.append([guard_py, "%s.guard" % label, None, False])
        fn = "_p_guard_%s" % label
        guard_lines, record = _equivalent_process(
            fn, [ln("rt.assign(%s, ((%s, 0),))"
                    % (guard_py, goal.get("code", "0")))],
            Flow.of_uses(uses)
            + drive_flow([(guard_py, True, True, False, False)]),
            goal.get("sigs", []), line, fn=fn)
        lines.extend(guard_lines)
        processes = [record]
    msgs.extend(inner.msgs)
    return CStmt(join(join(decls.code, lines), inner.code), msgs,
                 inner.instances, label, join(processes, inner.processes),
                 join(signals, inner.signals))


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
    prefix = "g" if obj_class == "generic" else "p"
    entry = ObjectEntry(
        name=name, obj_class=obj_class, mode=mode or "in",
        vtype=sub.vtype, py="%s_%s" % (prefix, name),
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
    """Assemble an ArchUnit with its generated Python model."""
    msgs = list(decls.msgs) + list(cstmts.msgs)
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
    # Each process becomes one line binding its factory; the factories,
    # one per distinct lifted text, open the body.
    factories = {}  # lifted process text -> (factory name, arity)
    code = [(depth, text.bind(factories) if type(text) is ProcessLine
             else text)
            for depth, text in flatten(join(decls.code, cstmts.code))]
    body = [ln("rt = ctx.rt"), ln("ops = ctx.ops")]
    for text, (factory, arity) in factories.items():
        body.extend(_factory_lines(text, factory, arity))
    body.extend(entity_setup_code(entity))
    body.extend(code)
    lines = list(_PY_HEADER)
    lines.append("def elaborate(ctx):")
    lines.append(render(body, base_indent=1))
    py_source = "\n".join(lines) + "\n"
    return ArchUnit(
        name=name, entity_name=entity.name, entity=entity,
        decls=flatten(decls.entries), instances=instances,
        user_attrs=list(attrs_of(env)),
        processes=flatten(cstmts.processes),
        block_signals=flatten(cstmts.signals),
        py_source=py_source, line=line), msgs


def package_unit(name, decls, env, cc, line, is_body=False):
    body = [ln("rt = ctx.rt"), ln("ops = ctx.ops")]
    body.extend(flatten(decls.code))
    body.append(ln(
        "ctx.export({k: v for k, v in locals().items() "
        "if k not in ('ctx', 'rt', 'ops')})"))
    lines = list(_PY_HEADER)
    lines.append("def elaborate(ctx):")
    lines.append(render(body, base_indent=1))
    py_source = "\n".join(lines) + "\n"
    cls = PackageBodyUnit if is_body else PackageUnit
    kwargs = dict(name=name, decls=flatten(decls.entries),
                  py_source=py_source, line=line)
    if not is_body:
        kwargs["user_attrs"] = list(attrs_of(env))
    return cls(**kwargs), list(decls.msgs)


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
