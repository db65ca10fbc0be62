"""Out-of-line semantic functions: sequential and concurrent statements.

Statement rules in the principal AG receive LEF token lists for the
expressions they contain and call ``exprEval`` (via the compile
context) with the appropriate mode and expected type, then assemble
generated code — the exact shape of the paper's example production::

    stmt.CODE = TextOf("if( %t ){%t}", EXPR_CODE, stmts.CODE)

Results are :class:`SRes` records: code lines, messages, the set of
python names written (for ``nonlocal`` computation in nested
subprograms), whether a wait occurs (process safety), the signals
named (for concurrent-statement sensitivity inference), and the
dataflow of the code (:class:`repro.vhdl.flow.Flow`) with the
control facts it needs.
"""

from . import names as N
from . import vtypes
from .expr_sem import signals_of
from .flow import EMPTY_SET, NO_FLOW, Flow, drive_flow, wait_flow
from .semantics_decl import Assign, Wait, indent, join, ln


class SRes:
    """Generated-code result of one (list of) statement(s); ``code``
    is a rope of code lines."""

    __slots__ = ("code", "msgs", "writes", "haswait", "sigs", "flow",
                 "stmts", "dead", "exits", "jump")

    def __init__(self, code=(), msgs=(), writes=(), haswait=False,
                 sigs=(), flow=NO_FLOW, stmts=1, dead=False,
                 exits=False, jump=None):
        self.code = code
        self.msgs = list(msgs)
        self.writes = frozenset(writes) if writes else EMPTY_SET
        self.haswait = haswait
        self.sigs = frozenset(sigs) if sigs else EMPTY_SET
        self.flow = flow
        self.stmts = stmts    # VHDL statements in the list
        self.dead = dead      # control never passes to a successor
        self.exits = exits    # contains an exit or a return
        #: the error of a next or exit that no loop encloses yet, which
        #: the process or subprogram body reports; loops clear it
        self.jump = jump

    @staticmethod
    def merge(a, b):
        # After a statement that never passes control on, ``b`` is
        # unreachable: only its statement count enters the record.
        flow = a.flow + (Flow(unreachable=b.stmts) if a.dead else b.flow)
        return SRes(join(a.code, b.code), a.msgs + b.msgs,
                    a.writes | b.writes, a.haswait or b.haswait,
                    a.sigs | b.sigs, flow, a.stmts + b.stmts,
                    a.dead or b.dead, a.exits or b.exits,
                    a.jump or b.jump)


EMPTY = SRes(stmts=0)


def _msg(line, text):
    return "line %d: %s" % (line, text)


def _uses(goal):
    return goal.get("uses", ())


def _bool_cond(lef, env, cc, line, out_msgs):
    """A condition's code and signal uses."""
    goal = cc.eval_expr(lef, env, line, expected=cc.std.boolean)
    out_msgs.extend(goal.get("msgs", ()))
    return goal.get("code", "0"), _uses(goal)


# -- assignments -------------------------------------------------------------------


def _step_code(kind, info, prefix, value=None):
    """The code of the part path step ``(kind, info)`` names in the
    value of ``prefix``, or with ``value``, of that value with the part
    replaced by ``value``."""
    if kind == "index":
        read, update, args = "index", "array_update", info.code
    elif kind == "field":
        read, update, args = "field", "record_update", repr(info)
    else:
        left, direction, right = info
        read, update = "slice_", "slice_update"
        args = "%s, %r, %s" % (left.code, direction, right.code)
    if value is None:
        return "ops.%s(%s, %s)" % (read, prefix, args)
    return "ops.%s(%s, %s, %s)" % (update, prefix, args, value)


def _target_update_code(lv, value_code, read_code):
    """The whole value of ``read_code`` with the part ``lv.path`` names
    replaced by ``value_code``: the innermost step updates what the
    steps before it read, and each step outward puts the result back."""
    reads = [read_code]
    for kind, info in lv.path[:-1]:
        reads.append(_step_code(kind, info, reads[-1]))
    for read, (kind, info) in reversed(list(zip(reads, lv.path))):
        value_code = _step_code(kind, info, read, value_code)
    return value_code


def _rebound_code(value_code, vtype):
    """Wrap an assigned array value so it takes the target subtype's
    bounds (VHDL's implicit subtype conversion on assignment)."""
    rng = getattr(vtype, "index_range", None) if vtype is not None \
        else None
    if rng is None or not isinstance(rng.left, int):
        return value_code
    # Literal constructors already carry the right bounds.
    if value_code.startswith(("VArray(", "ops.fill(", "ops.array_from(")):
        return value_code
    return "ops.rebound(%s, %r, %r, %r)" % (
        value_code, rng.left, rng.direction, rng.right)


def signal_assign(target_lef, wave, transport, env, cc, line,
                  guard_py=None):
    """``target <= [transport] v1 after t1, v2 after t2 ;``

    ``wave`` is a list of (value_lef, after_lef_or_None); ``guard_py``
    names the GUARD signal of a guarded assignment.
    """
    msgs = []
    uses = set()
    tgt = cc.eval_target(target_lef, env, line)
    msgs.extend(tgt.get("msgs", ()))
    if not tgt.get("ok"):
        return SRes((), msgs, (), False, ())
    lv = tgt["lvalue"]
    base = lv.base
    if not base.is_signal:
        msgs.append(_msg(line, "target of <= is not a signal"))
        return SRes((), msgs, (), False, ())
    expected = tgt.get("type")
    elems = []
    zero_delay = True
    for value_lef, after_lef in wave:
        vgoal = cc.eval_expr(value_lef, env, line, expected=expected)
        msgs.extend(vgoal.get("msgs", ()))
        uses.update(_uses(vgoal))
        delay = "0"
        if after_lef is not None:
            agoal = cc.eval_expr(after_lef, env, line,
                                 expected=cc.std.time)
            msgs.extend(agoal.get("msgs", ()))
            uses.update(_uses(agoal))
            delay = agoal.get("code", "0")
        zero_delay = zero_delay and delay == "0"
        value_code = vgoal.get("code", "None")
        if lv.path:
            value_code = _target_update_code(
                lv, value_code, "rt.read(%s)" % base.py)
        else:
            value_code = _rebound_code(value_code, expected)
        elems.append((value_code, delay))
    lines = [ln(Assign(base.py, tuple(elems), bool(transport)))]
    # The sensitivity view leaves the target out, but the code reads
    # it (and its index expressions) to update a path, and the guard.
    code_uses = uses.union(_uses(tgt) if lv.path else ())
    if guard_py is not None:
        lines = [ln("if rt.read(%s):" % guard_py)] + indent(lines)
        code_uses.add(("read", guard_py))
    flow = Flow.of_uses(code_uses) + drive_flow(
        [(base.py, zero_delay, len(wave) == 1, bool(transport), False)])
    return SRes(lines, msgs, (), False, signals_of(uses), flow)


def variable_assign(target_lef, rhs_lef, env, cc, line):
    """``target := expr ;``"""
    msgs = []
    tgt = cc.eval_target(target_lef, env, line)
    msgs.extend(tgt.get("msgs", ()))
    if not tgt.get("ok"):
        return SRes((), msgs, (), False, ())
    lv = tgt["lvalue"]
    base = lv.base
    if base.is_signal:
        msgs.append(_msg(line, "target of := is a signal (use <=)"))
        return SRes((), msgs, (), False, ())
    if not base.is_writable:
        msgs.append(_msg(line, "%s %s cannot be assigned"
                         % (base.obj_class, base.name)))
    rhs = cc.eval_expr(rhs_lef, env, line, expected=tgt.get("type"))
    msgs.extend(rhs.get("msgs", ()))
    value_code = rhs.get("code", "None")
    # The type of the target, which is the part a path names.
    vtype = tgt.get("type")
    if not lv.path:
        value_code = _rebound_code(value_code, vtype)
    # Range check on scalar subtypes with static bounds, on the value
    # assigned to the part before the whole value is rebuilt.
    if vtype is not None and vtype.kind == "subtype":
        low, high = vtypes.scalar_bounds(vtype)
        value_code = "ops.check_range(%s, %r, %r, %r)" % (
            value_code, low, high, base.name)
    if lv.path:
        value_code = _target_update_code(lv, value_code, base.py)
    # A path update reads the index expressions of the target.
    path_uses = _uses(tgt) if lv.path else ()
    flow = Flow.of_uses(set(_uses(rhs)).union(path_uses))
    return SRes([ln("%s = %s" % (base.py, value_code))], msgs,
                {base.py}, flow=flow)


# -- control flow --------------------------------------------------------------------------


def _compound(lines, msgs, sigs, flow, bodies):
    """A compound statement over ``bodies``: writes, waits, exits and
    named signals come from every body; control falls through."""
    writes = set()
    for body in bodies:
        writes |= body.writes
        sigs |= body.sigs
    return SRes(lines, msgs, writes, any(b.haswait for b in bodies),
                sigs, flow, exits=any(b.exits for b in bodies),
                jump=next((b.jump for b in bodies if b.jump), None))


def if_stmt(arms, else_body, env, cc, line):
    """``arms``: list of (cond_lef, SRes body); else_body: SRes|None.
    After a condition that tests ``'EVENT``, later conditions and
    bodies run on a clock edge only: their reads and drives are
    guarded."""
    msgs = []
    sigs = set()
    lines = []
    flow = NO_FLOW
    guarded = False
    keyword = "if"
    bodies = [body for _, body in arms]
    for cond_lef, body in arms:
        cond, uses = _bool_cond(cond_lef, env, cc, line, msgs)
        sigs.update(signals_of(uses))
        test = Flow.of_uses(uses, test=True)
        flow += test.under(guarded)
        guarded = guarded or bool(test.events)
        flow += body.flow.under(guarded)
        lines.append(ln("%s %s:" % (keyword, cond)))
        lines.extend(indent(body.code or [ln("pass")]))
        msgs.extend(body.msgs)
        keyword = "elif"
    if else_body is not None:
        bodies.append(else_body)
        flow += else_body.flow.under(guarded)
        lines.append(ln("else:"))
        lines.extend(indent(else_body.code or [ln("pass")]))
        msgs.extend(else_body.msgs)
    return _compound(lines, msgs, sigs, flow, bodies)


def case_stmt(selector_lef, alternatives, env, cc, line):
    """``alternatives``: list of (choice_lef_lists, SRes body); a
    choice LEF of None means OTHERS position handled via eval_choice.
    """
    msgs = []
    sel = cc.eval_expr(selector_lef, env, line)
    msgs.extend(sel.get("msgs", ()))
    flow = Flow.of_uses(_uses(sel))
    sel_type = sel.get("type")
    # tmp is local to the statement, never uplevel: not a write
    tmp = N.CASE_TEMP
    lines = [ln("%s = %s" % (tmp, sel.get("code", "None")))]
    keyword = "if"
    seen_others = False
    covered = []
    for choice_lefs, body in alternatives:
        vals = []
        others = False
        for clef in choice_lefs:
            goal = cc.eval_choice(clef, env, line, expected=sel_type)
            msgs.extend(goal.get("msgs", ()))
            if goal.get("others"):
                others = True
            else:
                vals.extend(goal.get("vals", ()))
        msgs.extend(body.msgs)
        flow += body.flow
        if others:
            seen_others = True
            lines.append(ln("else:" if covered else "if True:"))
        else:
            covered.extend(vals)
            cond = "%s in (%s)" % (
                tmp, ", ".join(repr(v) for v in vals) + ("," if vals else ""))
            lines.append(ln("%s %s:" % (keyword, cond)))
            keyword = "elif"
        lines.extend(indent(body.code or [ln("pass")]))
    if not seen_others and sel_type is not None \
            and vtypes.is_scalar(sel_type):
        low, high = vtypes.scalar_bounds(sel_type)
        if len(set(covered)) < (high - low + 1):
            msgs.append(_msg(
                line, "case does not cover all choices and has no "
                "others"))
    return _compound(lines, msgs, set(), flow,
                     [body for _, body in alternatives])


#: The env key of the number of for loops around a statement, which
#: names their parameters (no loop encloses a process's or a
#: subprogram's declarations, so the count starts at each).
LOOP_DEPTH = "for-loop depth"


def _loop_depth(env):
    entries = env.lookup(LOOP_DEPTH).entries
    return entries[0] if entries else 0


def loop_env(param_name, range_lef, env, cc, line):
    """The environment inside a for loop: parameter bound."""
    from ..vif.nodes import ObjectEntry

    rng = cc.eval_range(range_lef, env, line)
    depth = _loop_depth(env)
    entry = ObjectEntry(name=param_name, obj_class="loopvar",
                        vtype=rng.get("type") or cc.std.integer,
                        py=N.declared((), "loop", param_name, depth),
                        line=line)
    return env.enter_scope().bind(LOOP_DEPTH, depth + 1).bind(
        param_name, entry)


def for_loop(param_name, range_lef, body, env, cc, line):
    """``for i in range loop ... end loop`` (body already evaluated
    under :func:`loop_env`)."""
    msgs = []
    rng = cc.eval_range(range_lef, env, line)
    msgs.extend(rng.get("msgs", ()))
    py = N.declared((), "loop", param_name, _loop_depth(env))
    msgs.extend(body.msgs)
    head = "for %s in ops.iter_range(%s, %r, %s):" % (
        py, rng.get("left_code", "0"), rng.get("direction", "to"),
        rng.get("right_code", "0"))
    lines = [ln(head)] + indent(body.code or [ln("pass")])
    # The loop parameter is local wherever the loop appears — it must
    # not leak into the write set, or a nested subprogram containing
    # the loop would emit a bogus ``nonlocal``.
    return SRes(lines, msgs, body.writes - {py}, body.haswait,
                flow=Flow.of_uses(_uses(rng)) + body.flow,
                exits=body.exits)


def while_loop(cond_lef, body, env, cc, line):
    """``[while cond] loop``; an infinite one that can neither wait,
    exit nor return is wait-less and never passes control on."""
    msgs = []
    uses = ()
    infinite = cond_lef is None
    if infinite:
        head = "while True:"
    else:
        cond, uses = _bool_cond(cond_lef, env, cc, line, msgs)
        head = "while %s:" % cond
        infinite = cond.isdigit() and int(cond) != 0
    msgs.extend(body.msgs)
    lines = [ln(head)] + indent(body.code or [ln("pass")])
    flow = body.flow if infinite else Flow.of_uses(uses) + body.flow
    dead = infinite and not (body.haswait or body.exits)
    if dead:
        flow += Flow(waitless=1)
    return SRes(lines, msgs, body.writes, body.haswait, flow=flow,
                dead=dead, exits=body.exits)


def next_or_exit(which, cond_lef, env, cc, line):
    """``next``/``exit [when cond]``: IEEE 1076 allows them only inside
    a loop, which the enclosing loop statement confirms."""
    stmt = "continue" if which == "next" else "break"
    exits = which == "exit"
    jump = _msg(line, "%s statement is not inside a loop" % which)
    if cond_lef is None:
        return SRes([ln(stmt)], exits=exits, jump=jump)
    msgs = []
    cond, uses = _bool_cond(cond_lef, env, cc, line, msgs)
    return SRes([ln("if %s:" % cond), ln(stmt, 1)], msgs,
                flow=Flow.of_uses(uses, test=True), exits=exits,
                jump=jump)


# -- waits, asserts, calls, return -----------------------------------------------------------


def wait_stmt(on_lefs, until_lef, for_lef, env, cc, line):
    msgs = []
    sig_codes = []
    for name_lef in on_lefs:
        tgt = cc.eval_target(name_lef, env, line)
        msgs.extend(tgt.get("msgs", ()))
        lv = tgt.get("lvalue")
        if lv is None or not lv.base.is_signal:
            msgs.append(_msg(line, "wait on non-signal"))
            continue
        sig_codes.append(lv.base.py)
    uses = set()
    cond_code = None
    if until_lef is not None:
        goal = cc.eval_expr(until_lef, env, line,
                            expected=cc.std.boolean)
        msgs.extend(goal.get("msgs", ()))
        cond_code = goal.get("code", "1")
        if not sig_codes:
            # wait until C: sensitivity is the signals in C.
            sig_codes = list(goal.get("sigs", ()))
        uses.update(_uses(goal))
    timeout_code = None
    if for_lef is not None:
        goal = cc.eval_expr(for_lef, env, line, expected=cc.std.time)
        msgs.extend(goal.get("msgs", ()))
        timeout_code = goal.get("code", "None")
        uses.update(_uses(goal))
    flow = Flow.of_uses(uses) + wait_flow(
        sig_codes, until_lef is not None, for_lef is not None)
    return SRes([ln(Wait(tuple(sig_codes), cond_code, timeout_code))],
                msgs, haswait=True, flow=flow)


def assert_stmt(cond_lef, report_lef, severity_lef, env, cc, line):
    msgs = []
    cond, uses = _bool_cond(cond_lef, env, cc, line, msgs)
    message = '"assertion violation (line %d)"' % line
    if report_lef is not None:
        goal = cc.eval_expr(report_lef, env, line,
                            expected=cc.std.string)
        msgs.extend(goal.get("msgs", ()))
        if goal.get("has_val") and goal["val"] is not None:
            chars = getattr(goal["val"], "elems", None)
            if chars is not None:
                message = repr("".join(chr(c) for c in chars))
        else:
            msgs.append(_msg(
                line, "report expression must be a static string"))
    severity = "error"
    if severity_lef is not None:
        goal = cc.eval_expr(severity_lef, env, line,
                            expected=cc.std.severity_level)
        msgs.extend(goal.get("msgs", ()))
        if goal.get("has_val"):
            severity = cc.std.severity_level.literals[goal["val"]]
    code = "rt.assert_(%s, %s, %r)" % (cond, message, severity)
    return SRes([ln(code)], msgs, (), False, signals_of(uses),
                Flow.of_uses(uses))


def procedure_call(call_lef, env, cc, line):
    goal = cc.eval_call(call_lef, env, line)
    msgs = list(goal.get("msgs", ()))
    if not goal.get("ok"):
        return SRes((), msgs or [_msg(line, "bad procedure call")],
                    (), False, ())
    writes = set()
    code = goal.get("code", "")
    if " = " in code.split("(")[0]:
        writes = {n.strip() for n in
                  code.split(" = ")[0].split(",")}
    return SRes([ln(code)], msgs, writes, flow=goal["flow"])


def return_stmt(value_lef, expected, env, cc, line):
    if value_lef is None:
        return SRes([ln("return")], exits=True)
    goal = cc.eval_expr(value_lef, env, line, expected=expected)
    return SRes([ln("return %s" % goal.get("code", "None"))],
                list(goal.get("msgs", ())),
                flow=Flow.of_uses(_uses(goal)), exits=True)


def null_stmt():
    return SRes([ln("pass")])
