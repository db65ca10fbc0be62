"""Out-of-line semantic functions for the expression AG.

The paper keeps complex shared semantics in "out-of-line,
separately-compiled functions" called from semantic rules (18% of the
compiler).  These are ours: overload resolution, operator typing,
constant folding, aggregate assembly, attribute lookup, and code
emission for the :mod:`repro.sim.runtime` target.

The central value is :class:`Sem` — the meaning of (a piece of) an
expression: its type, generated code, static value when known, the
signal uses its code makes (for sensitivity inference and the
per-process dataflow record), and accumulated error messages.  Some
Sems are *pending*: an overloaded enumeration literal or an aggregate
cannot be finished until an expected type arrives from context, so
they carry a resolver the use-site forces.
"""

from ..sim.runtime import VArray, ops as _ops
from . import names as N
from . import vtypes
from .flow import EMPTY_SET, Flow, drive_flow
from .symtab import entry_kind, lookup_user_attribute

#: Sentinel: no statically known value.
MISSING = object()


class Sem:
    """The semantic value of an expression fragment."""

    __slots__ = (
        "kind", "type", "code", "val", "uses", "msgs",
        "entries", "entry", "pending", "lvalue", "rng",
    )

    def __init__(self, kind="value", type=None, code="None", val=MISSING,
                 uses=(), msgs=(), entries=None, entry=None,
                 pending=None, lvalue=None, rng=None):
        self.kind = kind
        self.type = type
        self.code = code
        self.val = val
        #: (runtime call, signal binding) pairs the code contains:
        #: ("read", py) for ``rt.read(py)``, ("event", py) for
        #: ``rt.event(py)``, likewise "active" and "last_value".
        self.uses = frozenset(uses) if uses else EMPTY_SET
        self.msgs = tuple(msgs)
        self.entries = entries
        self.entry = entry
        self.pending = pending
        self.lvalue = lvalue
        self.rng = rng

    def with_msgs(self, msgs):
        s = Sem.__new__(Sem)
        for slot in Sem.__slots__:
            setattr(s, slot, getattr(self, slot))
        s.msgs = self.msgs + tuple(msgs)
        return s

    def __repr__(self):
        return "Sem(%s, %s, %r)" % (
            self.kind, vtypes.describe(self.type), self.code
        )


def error_sem(message, line=0):
    """An error placeholder that keeps evaluation going."""
    text = "line %d: %s" % (line, message) if line else message
    return Sem(kind="error", msgs=(text,))


def force(sem, hint, ctx):
    """Finish a pending Sem against an expected type."""
    if sem.pending is not None:
        return sem.pending(hint, ctx)
    return sem


# -- code emission helpers ----------------------------------------------------


def code_for_value(val):
    """Python source that rebuilds a static runtime value."""
    if isinstance(val, VArray):
        elems = ", ".join(code_for_value(e) for e in val.elems)
        return "VArray(%r, %r, %r, [%s])" % (
            val.left, val.direction, val.right, elems
        )
    if isinstance(val, bool):
        return "1" if val else "0"
    return repr(val)


def value_sem(vtype, code, val=MISSING, msgs=()):
    if val is not MISSING:
        code = code_for_value(val)
    return Sem(kind="value", type=vtype, code=code, val=val, msgs=msgs)


def signals_of(uses):
    """The signal bindings a use set touches, sorted: the implicit
    sensitivity of an expression."""
    return sorted({py for _, py in uses})


# -- name semantics --------------------------------------------------------------


def object_sem(entry, ctx):
    """Sem for an OBJ token: reads of signals go through rt.read."""
    vtype = entry.vtype
    if entry.is_signal:
        code = "rt.read(%s)" % entry.py
        uses = (("read", entry.py),)
        val = MISSING
    else:
        code = entry.py
        uses = ()
        val = entry.static_value()
        if val is None and not entry.has_value:
            val = MISSING
    msgs = ()
    if not entry.is_readable:
        msgs = ("line %d: %s %s is mode out and cannot be read"
                % (ctx.line, entry.obj_class, entry.name),)
    sem = Sem(kind="value", type=vtype, code=code,
              val=val if val is not None else MISSING,
              uses=uses, msgs=msgs, entry=entry)
    sem.lvalue = LValue(entry)
    return sem


class LValue:
    """An assignable view: base object plus an access path."""

    __slots__ = ("base", "path")

    def __init__(self, base, path=()):
        self.base = base
        self.path = tuple(path)

    def extend(self, step):
        return LValue(self.base, self.path + (step,))


def nameset_sem(entries, text, line):
    """Sem for a NAMESET token: pending until context arrives."""

    def resolver(hint, ctx):
        return resolve_nameset(entries, text, hint, ctx, line)

    return Sem(kind="nameset", entries=list(entries), code=text,
               pending=resolver)


def resolve_nameset(entries, text, hint, ctx, line):
    """An overloadable name used as a value: enumeration literal or
    parameterless function call."""
    lits = [e for e in entries if entry_kind(e) == "enum_literal"]
    funcs = [
        e for e in entries
        if entry_kind(e) == "subprogram"
        and e.is_function and e.accepts_arity(0)
    ]
    if hint is not None:
        base = hint.base()
        lits = [e for e in lits if e.etype.base() is base]
        funcs = [f for f in funcs if f.result is not None
                 and f.result.base() is base]
    candidates = lits + funcs
    if not candidates:
        return error_sem("%r does not denote a value%s" % (
            text,
            " of type %s" % vtypes.describe(hint) if hint else "",
        ), line)
    if len(candidates) > 1:
        return error_sem(
            "%r is ambiguous (%d visible denotations)"
            % (text, len(candidates)), line)
    chosen = candidates[0]
    if entry_kind(chosen) == "enum_literal":
        return value_sem(chosen.etype, "", val=chosen.position)
    return call_sem(chosen, [], ctx, line)


def rawid_sem(token):
    """Sem for a RAWID: usable as prefix/formal, an error as a value."""
    value = token.value
    message = None
    entry = None
    if hasattr(value, "message"):
        message = value.message
    else:
        entry = value

    def resolver(hint, ctx, _tok=token):
        return error_sem(
            message or "%r cannot be used as a value" % _tok.text,
            _tok.line,
        )

    return Sem(kind="rawid", code=token.text, entry=entry,
               pending=resolver)


def typemark_sem(vtype):
    def resolver(hint, ctx, _t=vtype):
        return error_sem("type mark %s used as a value"
                         % vtypes.describe(_t))

    return Sem(kind="typemark", type=vtype, code=vtypes.describe(vtype),
               pending=resolver)


# -- literals ------------------------------------------------------------------------


def int_literal_sem(value, ctx):
    vtype = ctx.std.real if isinstance(value, float) else ctx.std.integer

    def resolver(hint, ctx2, _v=value):
        if hint is not None and vtypes.is_numeric(hint):
            base = hint.base()
            if base.kind == "integer" and isinstance(_v, int):
                return value_sem(hint, "", val=_v)
            if base.kind == "float":
                return value_sem(hint, "", val=float(_v))
        return value_sem(vtype, "", val=_v)

    return Sem(kind="value", type=vtype, code=code_for_value(value),
               val=value, pending=resolver)


def physical_literal_sem(value, unit_entry, line):
    fs = value * unit_entry.scale
    if isinstance(fs, float):
        fs = int(round(fs))
    return value_sem(unit_entry.ptype, "", val=fs)


def string_literal_sem(text, line):
    """A string literal: pending on the expected array type."""

    def resolver(hint, ctx, _text=text):
        if not vtypes.is_array(hint):
            # Default to STRING when context gives nothing.
            hint = ctx.std.string
        elem = hint.element_type.base()
        if elem.kind != "enum":
            return error_sem(
                "string literal needs an enumeration-element array type, "
                "got %s" % vtypes.describe(hint), line)
        positions = []
        for ch in _text:
            lit = "'%s'" % ch
            if lit not in elem.literals:
                return error_sem(
                    "character %s not in type %s"
                    % (lit, vtypes.describe(elem)), line)
            positions.append(elem.literals.index(lit))
        left, direction, right = _bounds_for(hint, len(positions))
        return value_sem(
            hint, "", val=VArray(left, direction, right, positions))

    return Sem(kind="value", code=repr(text), pending=resolver)


def bitstring_literal_sem(bits, line):
    def resolver(hint, ctx, _bits=bits):
        target = hint if vtypes.is_array(hint) else ctx.std.bit_vector
        positions = [1 if b == "1" else 0 for b in _bits]
        left, direction, right = _bounds_for(target, len(positions))
        return value_sem(
            target, "", val=VArray(left, direction, right, positions))

    return Sem(kind="value", code=repr(bits), pending=resolver)


def _bounds_for(array_type, n):
    rng = getattr(array_type, "index_range", None)
    if rng is not None and isinstance(rng.left, int):
        return rng.left, rng.direction, rng.right
    idx = array_type.index_type
    low = idx.effective_low if idx.kind == "subtype" else idx.low
    return low, "to", low + n - 1


# -- operators -------------------------------------------------------------------------

_NUMERIC_BIN = {
    "PLUS": ("add", "+"), "MINUS": ("sub", "-"), "STAR": ("mul", "*"),
    "SLASH": ("div", "/"), "MOD": ("mod", "mod"), "REM": ("rem", "rem"),
    "POW": ("pow_", "**"),
}
_RELATIONAL = {
    "EQ": ("eq", "="), "NE": ("ne", "/="), "LT": ("lt", "<"),
    "LE": ("le", "<="), "GT": ("gt", ">"), "GE": ("ge", ">="),
}
_LOGICAL = {
    "AND": ("and_", "and"), "OR": ("or_", "or"), "XOR": ("xor", "xor"),
    "NAND": ("nand", "nand"), "NOR": ("nor", "nor"),
}

_FOLD_FNS = {
    "add": _ops.add, "sub": _ops.sub, "mul": _ops.mul, "div": _ops.div,
    "mod": _ops.mod, "rem": _ops.rem, "pow_": _ops.pow_, "eq": _ops.eq,
    "ne": _ops.ne, "lt": _ops.lt, "le": _ops.le, "gt": _ops.gt,
    "ge": _ops.ge, "and_": _ops.and_, "or_": _ops.or_, "xor": _ops.xor,
    "nand": _ops.nand, "nor": _ops.nor, "not_": _ops.not_,
    "neg": _ops.neg, "pos": _ops.pos, "abs_": _ops.abs_,
    "concat": _ops.concat,
}


def _sem_with(vtype, code, val, uses, msgs):
    s = Sem(kind="value", type=vtype, code=code, val=val,
            uses=uses, msgs=msgs)
    return s


#: Operators whose result type equals the operand type: the context's
#: expected type flows down into pending operands (string literals,
#: aggregates, overloaded enum literals).
_HINT_TRANSPARENT = frozenset(
    ["AMP", "AND", "OR", "XOR", "NAND", "NOR", "PLUS", "MINUS", "STAR",
     "SLASH", "MOD", "REM", "POW"]
)


def binary_sem(op_kind, left, right, ctx, line):
    """Type-check, fold, and emit a binary operator application.

    When an operand is still *pending* (a literal or aggregate waiting
    for an expected type), the whole application stays pending so the
    context's type can flow down — e.g. ``"01" & "10"`` assigned to a
    bit_vector resolves both strings against bit_vector.
    """
    if left.pending is not None or right.pending is not None:

        def resolver(hint, ctx2, _l=left, _r=right):
            operand_hint = hint if op_kind in _HINT_TRANSPARENT else None
            return _binary_core(op_kind, _l, _r, ctx2, line,
                                operand_hint)

        eager = _binary_core(op_kind, left, right, ctx, line, None)
        return Sem(kind=eager.kind, type=eager.type, code=eager.code,
                   val=eager.val, uses=eager.uses, msgs=eager.msgs,
                   pending=resolver)
    return _binary_core(op_kind, left, right, ctx, line, None)


def _force_operand(sem, hint, ctx, allow_element):
    """Force one operand; for ``&`` an operand may also be a single
    *element* of the hinted array type."""
    out = force(sem, hint, ctx)
    if out.kind == "error" and allow_element and vtypes.is_array(hint):
        retry = force(sem, hint.element_type, ctx)
        if retry.kind != "error":
            return retry
    return out


def _binary_core(op_kind, left, right, ctx, line, operand_hint=None):
    # Operands inform each other's expected types: the left resolves
    # first (against the context hint for type-transparent operators),
    # then the right against the left's type.
    elementwise = op_kind == "AMP"
    left = _force_operand(left, operand_hint, ctx, elementwise)
    if left.kind == "error":
        right = _force_operand(right, operand_hint, ctx, elementwise)
        return _combine_errors(left, right)
    right_hint = left.type if left.type is not None else operand_hint
    right = _force_operand(right, right_hint, ctx, elementwise)
    if right.kind == "error":
        return _combine_errors(left, right)
    lt, rt = left.type, right.type
    user = _user_operator(op_kind, (left, right), ctx, line)
    if user is not None:
        return user

    if op_kind in _NUMERIC_BIN:
        fn, symbol = _NUMERIC_BIN[op_kind]
        # Predefined mixed operators on physical types: T*I, I*T, T/I.
        if op_kind in ("STAR", "SLASH") and lt is not None \
                and lt.base().kind == "physical" \
                and rt is not None and rt.base().kind == "integer":
            return _finish(fn, left, right, lt, ctx)
        if op_kind == "STAR" and rt is not None \
                and rt.base().kind == "physical" \
                and lt is not None and lt.base().kind == "integer":
            return _finish(fn, left, right, rt, ctx)
        if not vtypes.is_numeric(lt) or not vtypes.same_base(lt, rt):
            return _op_type_error(symbol, lt, rt, line)
        result = lt if lt.kind != "subtype" else lt.base()
        return _finish(fn, left, right, result, ctx)
    if op_kind in _RELATIONAL:
        fn, symbol = _RELATIONAL[op_kind]
        if not vtypes.same_base(lt, rt):
            return _op_type_error(symbol, lt, rt, line)
        return _finish(fn, left, right, ctx.std.boolean, ctx)
    if op_kind in _LOGICAL:
        fn, symbol = _LOGICAL[op_kind]
        ok = vtypes.same_base(lt, rt) and (
            _is_logical_type(lt) or _is_logical_array(lt)
        )
        if not ok:
            return _op_type_error(symbol, lt, rt, line)
        return _finish(fn, left, right, lt, ctx)
    if op_kind == "AMP":
        return _concat_sem(left, right, ctx, line)
    return error_sem("unsupported operator %r" % op_kind, line)


def _is_logical_type(vtype):
    if vtype is None:
        return False
    base = vtype.base()
    return base.kind == "enum" and len(base.literals) == 2


def _is_logical_array(vtype):
    return vtypes.is_array(vtype) and _is_logical_type(
        vtype.element_type
    )


def _finish(fn, left, right, result_type, ctx):
    code = "ops.%s(%s, %s)" % (fn, left.code, right.code)
    val = MISSING
    if left.val is not MISSING and right.val is not MISSING:
        try:
            val = _FOLD_FNS[fn](left.val, right.val)
        except Exception:
            val = MISSING
    return _sem_with(result_type, code, val,
                     left.uses | right.uses, left.msgs + right.msgs)


def _concat_sem(left, right, ctx, line):
    lt, rt = left.type, right.type
    if vtypes.is_array(lt):
        result = lt.base()
    elif vtypes.is_array(rt):
        result = rt.base()
    else:
        return _op_type_error("&", lt, rt, line)
    return _finish("concat", left, right, result, ctx)


def unary_sem(op_kind, operand, ctx, line):
    operand = force(operand, None, ctx)
    if operand.kind == "error":
        return operand
    vtype = operand.type
    user = _user_operator(op_kind, (operand,), ctx, line)
    if user is not None:
        return user
    if op_kind == "NOT":
        if not (_is_logical_type(vtype) or _is_logical_array(vtype)):
            return _op_type_error("not", vtype, None, line)
        fn = "not_"
    elif op_kind == "ABS":
        if not vtypes.is_numeric(vtype):
            return _op_type_error("abs", vtype, None, line)
        fn = "abs_"
    elif op_kind == "MINUS":
        if not vtypes.is_numeric(vtype):
            return _op_type_error("-", vtype, None, line)
        fn = "neg"
    else:
        if not vtypes.is_numeric(vtype):
            return _op_type_error("+", vtype, None, line)
        fn = "pos"
    code = "ops.%s(%s)" % (fn, operand.code)
    val = MISSING
    if operand.val is not MISSING:
        try:
            val = _FOLD_FNS[fn](operand.val)
        except Exception:
            val = MISSING
    return _sem_with(vtype, code, val, operand.uses, operand.msgs)


_OP_DESIGNATORS = {
    "PLUS": '"+"', "MINUS": '"-"', "STAR": '"*"', "SLASH": '"/"',
    "MOD": '"mod"', "REM": '"rem"', "POW": '"**"', "EQ": '"="',
    "NE": '"/="', "LT": '"<"', "LE": '"<="', "GT": '">"', "GE": '">="',
    "AND": '"and"', "OR": '"or"', "XOR": '"xor"', "NAND": '"nand"',
    "NOR": '"nor"', "AMP": '"&"', "NOT": '"not"', "ABS": '"abs"',
}


def _user_operator(op_kind, operands, ctx, line):
    """User-overloaded operator lookup: ``function "+"(...)``."""
    designator = _OP_DESIGNATORS.get(op_kind)
    if designator is None or ctx.env is None:
        return None
    result = ctx.env.lookup(designator)
    candidates = [
        e for e in result.entries
        if entry_kind(e) == "subprogram"
        and e.is_function and len(e.params) == len(operands)
    ]
    for cand in candidates:
        if all(
            vtypes.same_base(p.vtype, s.type)
            for p, s in zip(cand.params, operands)
        ):
            return call_sem(cand, list(operands), ctx, line)
    return None


def _op_type_error(symbol, lt, rt, line):
    if rt is None:
        return error_sem(
            "operator %r undefined for %s" % (symbol, vtypes.describe(lt)),
            line)
    return error_sem(
        "operator %r undefined for %s and %s"
        % (symbol, vtypes.describe(lt), vtypes.describe(rt)), line)


def _combine_errors(*sems):
    msgs = sum((s.msgs for s in sems), ())
    return Sem(kind="error", msgs=msgs)


# -- calls -------------------------------------------------------------------------------


def call_sem(subprog, arg_sems, ctx, line):
    """Emit a call to a resolved subprogram with positional Sems."""
    msgs = sum((s.msgs for s in arg_sems), ())
    uses = frozenset().union(
        *[s.uses for s in arg_sems]) if arg_sems else frozenset()
    if subprog.predefined_op == "now":
        return _sem_with(subprog.result, "rt.now", MISSING, uses, msgs)
    codes = []
    for param, sem in zip(subprog.params, arg_sems):
        codes.append(sem.code)
    for param in subprog.params[len(arg_sems):]:
        codes.append(code_for_value(param.default))
    code = "%s(%s)" % (subprog.py, ", ".join(codes))
    return _sem_with(subprog.result, code, MISSING, uses, msgs)


def resolve_call(entries, items, ctx, line, text="?"):
    """Overload resolution for ``NAMESET LP items RP``.

    ``items`` are Item records (positional or named).  Candidates are
    filtered by arity, named formals, and argument types; a single
    survivor wins.
    """
    funcs = [e for e in entries
             if entry_kind(e) == "subprogram" and e.is_function]
    if not funcs:
        return error_sem("%r is not callable as a function" % text,
                         line)
    positional = [it for it in items if it.kind == "pos"]
    named = [it for it in items if it.kind == "named"]
    bad = [it for it in items if it.kind not in ("pos", "named")]
    if bad:
        return error_sem(
            "range or others association in a call to %r" % text, line)
    viable = []
    for cand in funcs:
        binding = _try_bind(cand, positional, named, ctx)
        if binding is not None:
            viable.append((cand, binding))
    if not viable:
        return error_sem(
            "no visible %r matches this call (%d candidates)"
            % (text, len(funcs)), line)
    if len(viable) > 1:
        return error_sem(
            "call to %r is ambiguous (%d candidates match)"
            % (text, len(viable)), line)
    cand, binding = viable[0]
    return call_sem(cand, binding, ctx, line)


def _try_bind(cand, positional, named, ctx):
    """Bind arguments to ``cand``'s formals; None if it cannot fit."""
    n = len(cand.params)
    if len(positional) + len(named) > n:
        return None
    slots = [None] * n
    for i, item in enumerate(positional):
        if i >= n:
            return None
        slots[i] = item
    for item in named:
        param = cand.param_by_name(item.formal)
        if param is None:
            return None
        idx = cand.params.index(param)
        if slots[idx] is not None:
            return None
        slots[idx] = item
    sems = []
    for param, slot in zip(cand.params, slots):
        if slot is None:
            if not param.has_default:
                return None
            sems.append(value_sem(param.vtype, "", val=param.default))
            continue
        sem = force(slot.value, param.vtype, ctx)
        if sem.kind == "error":
            return None
        if not vtypes.same_base(sem.type, param.vtype):
            return None
        sems.append(sem)
    return sems


class Item:
    """One element of a parenthesized item list: a positional value, a
    named association/choice, a range, or an others-choice."""

    __slots__ = ("kind", "formal", "choices", "value", "rng", "line")

    def __init__(self, kind, value=None, formal=None, choices=(),
                 rng=None, line=0):
        self.kind = kind  # pos | named | range | others
        self.value = value
        self.formal = formal
        self.choices = tuple(choices)
        self.rng = rng
        self.line = line

    def __repr__(self):
        return "Item(%s)" % self.kind


# -- the evaluation context ------------------------------------------------------


class Ctx:
    """What exprEval receives besides the LEF list (§4.1): "the nesting
    level at which this expression occurs, the type expected for this
    expression (if this is known), the source line number ... and flags
    indicating the context".  The nesting level is left out: the
    environment already scopes every name, and no rule read it."""

    __slots__ = ("env", "std", "line", "expected", "unit_resolver",
                 "user_attrs")

    def __init__(self, env, std, line=0, expected=None,
                 unit_resolver=None, user_attrs=()):
        self.env = env
        self.std = std
        self.line = line
        self.expected = expected
        self.unit_resolver = unit_resolver  # (lib, name) -> unit or None
        self.user_attrs = tuple(user_attrs)


# -- parenthesized expressions and aggregates ---------------------------------------


def paren_sem(items, ctx, line):
    """``( items )``: a parenthesized expression when it is one plain
    value, an aggregate otherwise — decided here, by phrase content and
    expected type, exactly the dual role the paper describes."""
    if len(items) == 1 and items[0].kind == "pos":
        inner = items[0].value
        if inner.pending is not None:
            def resolver(hint, ctx2, _inner=inner):
                return force(_inner, hint, ctx2)
            return Sem(kind="value", type=inner.type, code=inner.code,
                       pending=resolver)
        return inner

    def resolver(hint, ctx2, _items=items):
        return aggregate_sem(_items, hint, ctx2, line)

    return Sem(kind="aggregate", pending=resolver, code="<aggregate>")


def aggregate_sem(items, hint, ctx, line):
    """Assemble an array or record aggregate against ``hint``."""
    if hint is None:
        return error_sem("aggregate in a context with no expected type",
                         line)
    if vtypes.is_record(hint.base()):
        return _record_aggregate(items, hint.base(), ctx, line)
    if not vtypes.is_array(hint):
        return error_sem(
            "aggregate for non-composite type %s" % vtypes.describe(hint),
            line)
    return _array_aggregate(items, hint, ctx, line)


def _record_aggregate(items, rtype, ctx, line):
    by_field = {}
    msgs = []
    uses = set()
    pos_i = 0
    for item in items:
        if item.kind == "pos":
            if pos_i >= len(rtype.field_names):
                msgs.append("line %d: too many record aggregate elements"
                            % line)
                continue
            fname = rtype.field_names[pos_i]
            pos_i += 1
            targets = [fname]
        elif item.kind == "named":
            targets = [item.formal]
        elif item.kind == "others":
            targets = [f for f in rtype.field_names if f not in by_field]
        else:
            msgs.append("line %d: range choice in record aggregate" % line)
            continue
        for fname in targets:
            ftype = rtype.field_type(fname)
            if ftype is None:
                msgs.append("line %d: no record field %r" % (line, fname))
                continue
            sem = force(item.value, ftype, ctx)
            msgs.extend(sem.msgs)
            uses |= sem.uses
            by_field[fname] = sem
    missing = [f for f in rtype.field_names if f not in by_field]
    if missing:
        msgs.append("line %d: record aggregate misses fields %s"
                    % (line, ", ".join(missing)))
    pairs = ", ".join(
        "(%r, %s)" % (f, s.code) for f, s in by_field.items()
    )
    code = "ops.record_from([%s])" % pairs
    return _sem_with(rtype, code, MISSING, uses, tuple(msgs))


def _array_aggregate(items, atype, ctx, line):
    elem = atype.element_type
    msgs = []
    uses = set()
    positional = []
    named = []       # (index_val, sem) — static indices only
    others = None
    for item in items:
        if item.kind == "pos":
            sem = force(item.value, elem, ctx)
            msgs.extend(sem.msgs)
            uses |= sem.uses
            positional.append(sem)
        elif item.kind == "others":
            sem = force(item.value, elem, ctx)
            msgs.extend(sem.msgs)
            uses |= sem.uses
            others = sem
        elif item.kind in ("named", "range"):
            sem = force(item.value, elem, ctx)
            msgs.extend(sem.msgs)
            uses |= sem.uses
            for choice in item.choices:
                if choice.kind == "range" and choice.rng is not None:
                    lo, hi = _static_range_bounds(choice, msgs, line)
                    if lo is None:
                        continue
                    for i in range(lo, hi + 1):
                        named.append((i, sem))
                else:
                    cval = force(choice, atype.index_type, ctx)
                    if cval.val is MISSING:
                        msgs.append(
                            "line %d: aggregate choice must be static"
                            % line)
                        continue
                    named.append((cval.val, sem))
        else:
            msgs.append("line %d: bad aggregate element" % line)

    left, direction, right = _aggregate_bounds(
        atype, positional, named, others, msgs, line)
    if named or others is not None:
        # Build via fill + updates so sparse named choices work.
        base = "ops.fill(%r, %r, %r, %s)" % (
            left, direction, right,
            others.code if others is not None else "0",
        )
        code = base
        indices = list(
            _ops.iter_range(left, direction, right)
        )
        for k, sem in enumerate(positional):
            code = "ops.array_update(%s, %r, %s)" % (
                code, indices[k], sem.code)
        for idx, sem in named:
            code = "ops.array_update(%s, %r, %s)" % (code, idx, sem.code)
    else:
        elems = ", ".join(s.code for s in positional)
        code = "ops.array_from([%s], %r, %r, %r)" % (
            elems, left, direction, right)
    val = MISSING
    parts = positional + [s for _, s in named]
    if all(s.val is not MISSING for s in parts) and (
            others is None or others.val is not MISSING):
        fill = others.val if others is not None else 0
        arr = _ops.fill(left, direction, right, fill)
        idxs = list(_ops.iter_range(left, direction, right))
        try:
            for k, sem in enumerate(positional):
                arr = _ops.array_update(arr, idxs[k], sem.val)
            for idx, sem in named:
                arr = _ops.array_update(arr, idx, sem.val)
            val = arr
        except Exception:
            val = MISSING
    return _sem_with(atype, code, val, uses, tuple(msgs))


def _static_range_bounds(choice, msgs, line):
    left, _, right = choice.rng
    if left.val is MISSING or right.val is MISSING:
        msgs.append("line %d: aggregate range choice must be static" % line)
        return None, None
    lo, hi = sorted((left.val, right.val))
    return lo, hi


def _aggregate_bounds(atype, positional, named, others, msgs, line):
    rng = getattr(atype, "index_range", None)
    if rng is not None and isinstance(rng.left, int):
        return rng.left, rng.direction, rng.right
    if named:
        idxs = [i for i, _ in named]
        lo, hi = min(idxs), max(idxs)
        return lo, "to", hi
    idx = atype.index_type
    low = idx.effective_low if idx.kind == "subtype" else idx.low
    if others is not None:
        msgs.append(
            "line %d: others in an aggregate for an unconstrained type"
            % line)
    return low, "to", low + len(positional) - 1


# -- applying ( items ) to a name ------------------------------------------------------


def apply_items(prefix, items, ctx, line):
    """``prefix ( items )`` where the prefix is an object-like name:
    array indexing or slicing (calls and conversions have their own
    phrase structures, chosen by the LEF token of the prefix)."""
    if prefix.kind == "error":
        return prefix
    if prefix.kind == "nameset":
        return resolve_call(prefix.entries, items, ctx, line,
                            prefix.code)
    if prefix.kind == "typemark":
        return conversion_sem(prefix.type, items, ctx, line)
    if prefix.kind == "attrfn":
        return _apply_attr_fn(prefix, items, ctx, line)
    if prefix.kind == "rawid":
        return error_sem("%r is not visible here" % prefix.code, line)
    vtype = prefix.type
    if not vtypes.is_array(vtype):
        return error_sem(
            "%s is not an array and cannot be indexed or sliced"
            % vtypes.describe(vtype), line)
    if len(items) == 1 and items[0].kind == "range":
        return _slice_sem(prefix, items[0], ctx, line)
    if len(items) == 1 and items[0].kind == "pos":
        return _index_sem(prefix, items[0], ctx, line)
    if all(it.kind == "pos" for it in items):
        return error_sem(
            "multi-dimensional arrays are outside the supported subset",
            line)
    # A single named/range item may be a slice by attribute range.
    return error_sem("bad index or slice", line)


def _index_sem(prefix, item, ctx, line):
    vtype = prefix.type
    idx = force(item.value, vtype.index_type, ctx)
    if idx.kind == "error":
        return idx
    if idx.type is not None and not vtypes.same_base(
            idx.type, vtype.index_type):
        return error_sem(
            "index of type %s for array indexed by %s"
            % (vtypes.describe(idx.type),
               vtypes.describe(vtype.index_type)), line)
    code = "ops.index(%s, %s)" % (prefix.code, idx.code)
    val = MISSING
    if prefix.val is not MISSING and idx.val is not MISSING:
        try:
            val = _ops.index(prefix.val, idx.val)
        except Exception:
            val = MISSING
    sem = _sem_with(vtype.element_type, code, val,
                    prefix.uses | idx.uses, prefix.msgs + idx.msgs)
    if prefix.lvalue is not None:
        sem.lvalue = prefix.lvalue.extend(("index", idx))
    return sem


def _slice_sem(prefix, item, ctx, line):
    vtype = prefix.type
    left, direction, right = item.rng
    left = force(left, vtype.index_type, ctx)
    right = force(right, vtype.index_type, ctx)
    code = "ops.slice_(%s, %s, %r, %s)" % (
        prefix.code, left.code, direction, right.code)
    sub = None
    from ..vif.nodes import ArraySubtype, IndexRange
    if left.val is not MISSING and right.val is not MISSING:
        sub = ArraySubtype(
            name="", base_type=vtype.base(),
            index_range=IndexRange(left=left.val, direction=direction,
                                   right=right.val))
    result_type = sub if sub is not None else vtype.base()
    sem = _sem_with(result_type, code, MISSING,
                    prefix.uses | left.uses | right.uses,
                    prefix.msgs + left.msgs + right.msgs)
    if prefix.lvalue is not None:
        sem.lvalue = prefix.lvalue.extend(
            ("slice", (left, direction, right)))
    return sem


def conversion_sem(vtype, items, ctx, line):
    """Type conversion ``T ( e )`` — its own phrase structure in the
    expression AG (the paper's fourth reading of ``X (Y)``)."""
    if len(items) != 1 or items[0].kind != "pos":
        return error_sem("type conversion takes exactly one expression",
                         line)
    operand = force(items[0].value, None, ctx)
    if operand.kind == "error":
        return operand
    src = operand.type
    dst_base = vtype.base()
    src_base = src.base() if src is not None else None
    if src_base is dst_base:
        return _sem_with(vtype, operand.code, operand.val,
                         operand.uses, operand.msgs)
    numeric = ("integer", "float", "physical")
    if src_base is not None and src_base.kind in numeric \
            and dst_base.kind in numeric:
        fn = "to_float" if dst_base.kind == "float" else "to_integer"
        code = "ops.%s(%s)" % (fn, operand.code)
        val = MISSING
        if operand.val is not MISSING:
            val = getattr(_ops, fn)(operand.val)
        return _sem_with(vtype, code, val, operand.uses, operand.msgs)
    return error_sem(
        "no conversion from %s to %s"
        % (vtypes.describe(src), vtypes.describe(vtype)), line)


def qualified_sem(vtype, paren, ctx, line):
    """Qualified expression ``T'( ... )``: the aggregate/value is
    resolved against exactly T."""
    sem = force(paren, vtype, ctx)
    if sem.kind == "error":
        return sem
    if sem.type is not None and not vtypes.same_base(sem.type, vtype):
        return error_sem(
            "qualified expression: value of type %s does not match %s"
            % (vtypes.describe(sem.type), vtypes.describe(vtype)), line)
    return _sem_with(vtype, sem.code, sem.val, sem.uses, sem.msgs)


# -- selection (DOT) ---------------------------------------------------------------------


def selection_sem(prefix, field_name, ctx, line):
    """``prefix . name`` — record field, or expanded name through a
    package/library (visibility by selection, §3.2)."""
    if prefix.kind == "error":
        return prefix
    entry = prefix.entry
    if entry is not None and entry_kind(entry) == "library":
        unit = None
        if ctx.unit_resolver is not None:
            unit = ctx.unit_resolver(entry.name, field_name)
        if unit is None:
            return error_sem(
                "no unit %r in library %r" % (field_name, entry.name),
                line)
        return Sem(kind="rawid", code=field_name, entry=unit,
                   pending=lambda hint, ctx2: error_sem(
                       "unit %r used as a value" % field_name, line))
    if entry is not None and entry_kind(entry) == "package":
        matches = [
            d for d in entry.visible_decls()
            if getattr(d, "name", None) == field_name
        ]
        if not matches:
            return error_sem(
                "package %r has no declaration %r"
                % (entry.name, field_name), line)
        return _sem_for_entries(matches, field_name, ctx, line)
    prefix_v = force(prefix, None, ctx)
    if prefix_v.kind == "error":
        return prefix_v
    rtype = prefix_v.type.base() if prefix_v.type is not None else None
    if not vtypes.is_record(rtype):
        return error_sem(
            "%s is not a record; cannot select %r"
            % (vtypes.describe(prefix_v.type), field_name), line)
    ftype = rtype.field_type(field_name)
    if ftype is None:
        return error_sem(
            "record %s has no field %r"
            % (vtypes.describe(rtype), field_name), line)
    code = "ops.field(%s, %r)" % (prefix_v.code, field_name)
    val = MISSING
    if prefix_v.val is not MISSING:
        try:
            val = _ops.field(prefix_v.val, field_name)
        except Exception:
            val = MISSING
    sem = _sem_with(ftype, code, val, prefix_v.uses, prefix_v.msgs)
    if prefix_v.lvalue is not None:
        sem.lvalue = prefix_v.lvalue.extend(("field", field_name))
    return sem


def _sem_for_entries(entries, text, ctx, line):
    """Entries found by selection get the same classification LEF
    identifiers get."""
    kinds = {entry_kind(e) for e in entries}
    if kinds <= {"subprogram", "enum_literal"}:
        return nameset_sem(entries, text, line)
    first = entries[0]
    k = entry_kind(first)
    if k == "object":
        return object_sem(first, ctx)
    if k == "type":
        return typemark_sem(first)
    if k == "physical_unit":
        return Sem(kind="value", type=first.ptype,
                   code=repr(first.scale), val=first.scale)
    return error_sem("%r cannot appear in an expression" % text, line)


# -- attributes (TICK) ---------------------------------------------------------------------

_SIGNAL_ATTRS = ("event", "active", "last_value")


def attribute_sem(prefix, attr_name, ctx, line):
    """``prefix ' attr`` — the §3.2/§4.1 showcase: a user-defined
    attribute can shadow a predefined one (X'REVERSE_RANGE), and which
    reading applies depends on the symbol table, not the syntax."""
    if prefix.kind == "error":
        return prefix
    entry = prefix.entry
    if entry is not None and ctx.user_attrs:
        av = lookup_user_attribute(ctx.user_attrs, entry, attr_name)
        if av is not None:
            return value_sem(av.attr.vtype, "", val=av.value)
    if prefix.kind == "typemark":
        return _type_attribute(prefix.type, attr_name, ctx, line)
    if prefix.kind in ("value",) and prefix.entry is not None \
            and prefix.entry.is_signal:
        if attr_name in _SIGNAL_ATTRS:
            use = (attr_name, prefix.entry.py)
            vtype = prefix.type if attr_name == "last_value" \
                else ctx.std.boolean
            return _sem_with(vtype, "rt.%s(%s)" % use, MISSING,
                             (use,), prefix.msgs)
    if prefix.kind == "value" and vtypes.is_array(prefix.type):
        return _array_attribute(prefix, attr_name, ctx, line)
    if prefix.kind == "value":
        return _type_attribute(prefix.type, attr_name, ctx, line)
    return error_sem(
        "no attribute %r on this prefix" % attr_name, line)


def _array_attribute(prefix, attr_name, ctx, line):
    vtype = prefix.type
    rng = getattr(vtype, "index_range", None)
    static = rng is not None and isinstance(rng.left, int)
    if attr_name in ("left", "right", "low", "high", "length"):
        if static:
            val = {
                "left": rng.left, "right": rng.right, "low": rng.low,
                "high": rng.high, "length": rng.length(),
            }[attr_name]
            return value_sem(
                ctx.std.integer if attr_name == "length"
                else vtype.index_type, "", val=val)
        fn = {"left": "[0]", "right": "[2]"}.get(attr_name)
        if attr_name == "length":
            code = "ops.length(%s)" % prefix.code
        elif fn:
            code = "ops.range_of(%s)%s" % (prefix.code, fn)
        else:
            code = "%s(ops.range_of(%s)[0], ops.range_of(%s)[2])" % (
                "min" if attr_name == "low" else "max",
                prefix.code, prefix.code)
        return _sem_with(vtype.index_type, code, MISSING,
                         prefix.uses, prefix.msgs)
    if attr_name in ("range", "reverse_range"):
        return _range_attr_sem(prefix, vtype, attr_name, static, rng, ctx)
    return error_sem("no array attribute %r" % attr_name, line)


def _range_attr_sem(prefix, vtype, attr_name, static, rng, ctx):
    if static:
        left, direction, right = rng.left, rng.direction, rng.right
        if attr_name == "reverse_range":
            left, right = right, left
            direction = "downto" if direction == "to" else "to"
        lsem = value_sem(vtype.index_type, "", val=left)
        rsem = value_sem(vtype.index_type, "", val=right)
        return Sem(kind="range", type=vtype.index_type,
                   rng=(lsem, direction, rsem), msgs=prefix.msgs,
                   code="<range>")
    fn = "range_of" if attr_name == "range" else "reverse_range_of"
    base = "ops.%s(%s)" % (fn, prefix.code)
    lsem = _sem_with(vtype.index_type, base + "[0]", MISSING,
                     prefix.uses, ())
    rsem = _sem_with(vtype.index_type, base + "[2]", MISSING,
                     prefix.uses, ())
    # Direction is not statically known for unconstrained prefixes;
    # runtime VArray values built by the kernel are ascending, so the
    # assumption is documented rather than diagnosed.
    return Sem(kind="range", type=vtype.index_type,
               rng=(lsem, "to", rsem), uses=prefix.uses,
               msgs=prefix.msgs, code="<range>")


def _type_attribute(vtype, attr_name, ctx, line):
    if vtype is None:
        return error_sem("attribute %r on unknown type" % attr_name, line)
    if vtypes.is_array(vtype):
        rng = getattr(vtype, "index_range", None)
        if rng is not None and isinstance(rng.left, int):
            fake = Sem(kind="value", type=vtype, code="<type>")
            return _array_attribute(fake, attr_name, ctx, line)
        return error_sem(
            "attribute %r needs a constrained array type" % attr_name,
            line)
    if not vtypes.is_scalar(vtype):
        return error_sem("no attribute %r on %s"
                         % (attr_name, vtypes.describe(vtype)), line)
    low, high = vtypes.scalar_bounds(vtype)
    left, right = low, high  # ascending declaration ranges in the subset
    if attr_name in ("left", "low"):
        return value_sem(vtype, "", val=left)
    if attr_name in ("right", "high"):
        return value_sem(vtype, "", val=right)
    if attr_name == "range":
        return Sem(kind="range", type=vtype,
                   rng=(value_sem(vtype, "", val=left), "to",
                        value_sem(vtype, "", val=right)),
                   code="<range>")
    if attr_name == "reverse_range":
        return Sem(kind="range", type=vtype,
                   rng=(value_sem(vtype, "", val=right), "downto",
                        value_sem(vtype, "", val=left)),
                   code="<range>")
    if attr_name in ("pos", "val", "succ", "pred"):
        return Sem(kind="attrfn", type=vtype, code=attr_name,
                   entry=None, rng=(attr_name, vtype),
                   pending=lambda hint, ctx2: error_sem(
                       "attribute %r needs an argument" % attr_name, line))
    return error_sem("no attribute %r on %s"
                     % (attr_name, vtypes.describe(vtype)), line)


def _apply_attr_fn(prefix, items, ctx, line):
    attr_name, vtype = prefix.rng
    if len(items) != 1 or items[0].kind != "pos":
        return error_sem("attribute %r takes one argument" % attr_name,
                         line)
    arg = force(items[0].value, vtype, ctx)
    if arg.kind == "error":
        return arg
    low, high = vtypes.scalar_bounds(vtype)
    if attr_name == "pos":
        return _sem_with(ctx.std.integer, arg.code, arg.val,
                         arg.uses, arg.msgs)
    if attr_name == "val":
        code = "ops.check_range(%s, %r, %r, %r)" % (
            arg.code, low, high, "'val")
        val = arg.val
        return _sem_with(vtype, code, val, arg.uses, arg.msgs)
    if attr_name == "succ":
        code = "ops.succ(%s, %r)" % (arg.code, high)
        val = MISSING if arg.val is MISSING else arg.val + 1
        return _sem_with(vtype, code, val, arg.uses, arg.msgs)
    code = "ops.pred(%s, %r)" % (arg.code, low)
    val = MISSING if arg.val is MISSING else arg.val - 1
    return _sem_with(vtype, code, val, arg.uses, arg.msgs)


# -- ranges, choices, targets, goals ---------------------------------------------------------


def range_sem(left, direction, right, ctx, line):
    left = force(left, None, ctx)
    right = force(right, left.type, ctx)
    if left.kind == "error" or right.kind == "error":
        return _combine_errors(left, right)
    left2 = left
    if left.type is None and right.type is not None:
        left2 = force(left, right.type, ctx)
    return Sem(kind="range",
               type=left2.type or right.type or ctx.std.integer,
               rng=(left2, direction, right),
               uses=left2.uses | right.uses,
               msgs=left2.msgs + right.msgs, code="<range>")


def goal_value(sem, ctx):
    """Assemble the exprEval result for M_EXPR."""
    sem = force(sem, ctx.expected, ctx)
    if sem.kind == "range":
        sem = error_sem("range used where a value is required", ctx.line)
    ok = sem.kind not in ("error",)
    if ok and ctx.expected is not None and sem.type is not None \
            and not vtypes.same_base(sem.type, ctx.expected):
        sem = sem.with_msgs((
            "line %d: expression of type %s where %s is required"
            % (ctx.line, vtypes.describe(sem.type),
               vtypes.describe(ctx.expected)),))
    return {
        "kind": "value",
        "type": sem.type,
        "code": sem.code,
        "val": None if sem.val is MISSING else sem.val,
        "has_val": sem.val is not MISSING,
        "sigs": signals_of(sem.uses),
        "uses": sem.uses,
        "msgs": list(sem.msgs),
    }


def _target_msgs(sem):
    """``sem``'s diagnostics as a target's: writing (or naming) a
    mode-out object is fine; only *reading* it is illegal, and that
    diagnostic comes from value contexts."""
    return [m for m in sem.msgs if "cannot be read" not in m]


def goal_target(sem, ctx):
    """Assemble the exprEval result for M_TARGET."""
    msgs = _target_msgs(sem)
    lv = sem.lvalue
    if sem.kind == "error":
        return {"kind": "target", "ok": False, "msgs": msgs,
                "type": None, "lvalue": None, "code": ""}
    if lv is None:
        msgs.append("line %d: not an assignable name" % ctx.line)
        return {"kind": "target", "ok": False, "msgs": msgs,
                "type": None, "lvalue": None, "code": ""}
    return {
        "kind": "target",
        "ok": True,
        "type": sem.type,
        "lvalue": lv,
        "code": sem.code,
        "uses": sem.uses,
        "msgs": msgs,
    }


def goal_range(sem, ctx):
    """Assemble the exprEval result for M_RANGE (discrete ranges)."""
    if sem.kind == "typemark" or (
            sem.kind == "value" and sem.pending is not None
            and sem.type is not None and sem.entry is None
            and sem.kind == "typemark"):
        vtype = sem.type
        low, high = vtypes.scalar_bounds(vtype)
        sem = Sem(kind="range", type=vtype,
                  rng=(value_sem(vtype, "", val=low), "to",
                       value_sem(vtype, "", val=high)), code="<range>")
    if sem.kind != "range":
        sem2 = force(sem, None, ctx)
        if sem2.kind == "range":
            sem = sem2
        else:
            return {"kind": "range", "ok": False,
                    "msgs": list(sem2.msgs) or [
                        "line %d: not a discrete range" % ctx.line],
                    "type": None}
    left, direction, right = sem.rng
    return {
        "kind": "range",
        "ok": not sem.msgs or all("assumed" in m for m in sem.msgs),
        "type": sem.type,
        "left_code": left.code,
        "right_code": right.code,
        "direction": direction,
        "left_val": None if left.val is MISSING else left.val,
        "right_val": None if right.val is MISSING else right.val,
        "static": left.val is not MISSING and right.val is not MISSING,
        "uses": left.uses | right.uses,
        "msgs": list(sem.msgs),
    }


def goal_choice(sem, ctx):
    """Assemble the exprEval result for M_CHOICE (case choices)."""
    if sem.kind == "others":
        return {"kind": "choice", "others": True, "msgs": [],
                "vals": [], "ok": True}
    if sem.kind == "range":
        left, direction, right = sem.rng
        if left.val is MISSING or right.val is MISSING:
            return {"kind": "choice", "others": False, "ok": False,
                    "vals": [],
                    "msgs": ["line %d: case choice range must be static"
                             % ctx.line]}
        lo, hi = sorted((left.val, right.val))
        return {"kind": "choice", "others": False, "ok": True,
                "vals": list(range(lo, hi + 1)), "type": sem.type,
                "msgs": list(sem.msgs)}
    sem = force(sem, ctx.expected, ctx)
    if sem.kind == "error" or sem.val is MISSING:
        msgs = list(sem.msgs) or [
            "line %d: case choice must be a static expression" % ctx.line]
        return {"kind": "choice", "others": False, "ok": False,
                "vals": [], "msgs": msgs}
    return {"kind": "choice", "others": False, "ok": True,
            "vals": [sem.val], "type": sem.type, "msgs": list(sem.msgs)}


def goal_call(sem, items, ctx):
    """Assemble the exprEval result for M_CALL (procedure calls)."""
    msgs = []
    if sem.kind != "nameset":
        return {"kind": "call", "ok": False, "code": "",
                "msgs": list(sem.msgs) or [
                    "line %d: not a procedure name" % ctx.line]}
    procs = [e for e in sem.entries
             if entry_kind(e) == "subprogram" and not e.is_function]
    if not procs:
        return {"kind": "call", "ok": False, "code": "",
                "msgs": ["line %d: %r is not a procedure"
                         % (ctx.line, sem.code)]}
    positional = [it for it in items if it.kind == "pos"]
    named = [it for it in items if it.kind == "named"]
    viable = []
    for cand in procs:
        binding = _try_bind(cand, positional, named, ctx)
        if binding is not None:
            viable.append((cand, binding))
    if len(viable) != 1:
        return {"kind": "call", "ok": False, "code": "",
                "msgs": ["line %d: procedure call to %r is %s"
                         % (ctx.line, sem.code,
                            "ambiguous" if viable else "unmatched")]}
    cand, binding = viable[0]
    uses = set()
    arg_codes = []
    out_params = []
    actuals = {}  # signal formal binding -> actual signal binding
    out_actuals = []
    for param, arg_sem in zip(cand.params, binding):
        if param.mode == "out" and arg_sem.lvalue is not None:
            msgs.extend(_target_msgs(arg_sem))  # its actual is written
        else:
            msgs.extend(arg_sem.msgs)
        if param.obj_class == "signal":
            # Signal-class formals receive the Signal object itself.
            entry = arg_sem.entry
            if entry is not None and entry.is_signal:
                arg_codes.append(entry.py)
                actuals[N.param(param.name)] = entry.py
                if param.mode in ("out", "inout"):
                    out_actuals.append(entry.py)
            else:
                msgs.append(
                    "line %d: signal parameter %s needs a signal actual"
                    % (ctx.line, param.name))
                arg_codes.append(arg_sem.code)
                uses |= arg_sem.uses
        else:
            arg_codes.append(arg_sem.code)
            uses |= arg_sem.uses
        if param.mode in ("out", "inout") and param.obj_class != "signal":
            lv = arg_sem.lvalue
            if lv is None or lv.path:
                msgs.append(
                    "line %d: out parameter %s needs a simple variable "
                    "actual" % (ctx.line, param.name))
                out_params.append("_")
            else:
                out_params.append(lv.base.py)
    call = "%s(%s)" % (cand.py, ", ".join(arg_codes))
    if out_params:
        code = "%s = %s" % (", ".join(out_params), call)
    else:
        code = call
    # The call reads what the callee's body reads and drives what it
    # assigns, its signal formals replaced by their actuals, and drives
    # every out/inout signal actual (a driver of the calling process
    # even if never assigned).
    formals = {N.param(p.name) for p in cand.params
               if p.obj_class == "signal"}

    def bound(names):
        return frozenset(actuals.get(n, n) for n in names
                         if n in actuals or n not in formals)

    plain, attrs = cand.reads or ((), ())
    drives = [(actuals.get(t, t), zero, single, transport, True)
              for t, _, zero, single, transport, _ in cand.drives or ()
              if t in actuals or t not in formals]
    driven = {d[0] for d in drives}
    drives += [(py, False, True, False, True) for py in out_actuals
               if py not in driven]
    flow = Flow.of_uses(uses) + Flow(bound(plain), EMPTY_SET,
                                     bound(attrs)) + drive_flow(drives)
    return {"kind": "call", "ok": not msgs, "code": code, "flow": flow,
            "msgs": msgs}
