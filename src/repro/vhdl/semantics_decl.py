"""Out-of-line semantic functions: declarations.

Each declaration-processing function returns a :class:`DeclResult`:
the new environment (applicatively extended — the old value is never
touched, §4.3), the generated code lines for the declaration, the VIF
entries it created, and error messages.

Code lines are ``(depth, text)`` pairs; depth is relative to the
enclosing declarative region and resolved at unit-assembly time.  A
signal declaration's text is a :class:`Row`: the unit's model keeps it
as data.
"""

from types import SimpleNamespace

from ..vif.nodes import (
    AliasEntry,
    ArraySubtype,
    ArrayType,
    AttributeDeclEntry,
    AttributeValue,
    ComponentEntry,
    EnumLiteralEntry,
    EnumType,
    IndexRange,
    IntegerType,
    ObjectEntry,
    ParamEntry,
    RecordType,
    ScalarSubtype,
)
from . import names as N
from . import vtypes
from .compile_ctx import bind_attr_value
from .expr_sem import code_for_value
from .flow import NO_FLOW, Flow
from .symtab import entry_kind, is_overloadable


def ln(text, depth=0):
    return (depth, text)


def indent(lines, by=1):
    return [(d + by, t) for d, t in flatten(lines)]


def render(lines, base_indent=0, unit="    "):
    return "\n".join(unit * (base_indent + d) + t for d, t in lines)


class Row:
    """A signal, process or component-instance statement of a model,
    as data: ``row`` is its row
    (:func:`repro.vhdl.codegen.pymodel.row_line`) with each operand
    still the code that computes it.  The unit's assembly
    (:func:`repro.vhdl.semantics_unit.arch_unit`) makes the operands
    literals and names; inside a process or subprogram, whose
    statements are all text, a row is the statement it stands for
    (:func:`as_text`)."""

    __slots__ = ("row",)

    def __init__(self, row):
        self.row = row


def as_text(lines):
    """The code lines of ``lines``, each :class:`Row` as the statement
    it stands for."""
    from .codegen.pymodel import row_line

    return [(d, row_line(t.row, str) if type(t) is Row else t)
            for d, t in flatten(lines)]


class Rope:
    """A sequence built by constant-time concatenation.

    The merge results of the list-valued attributes (code lines, VIF
    entries, instances, block signals, process records) all stay on
    the parse tree until evaluation ends, so merges that copied lists
    would hold memory quadratic in the number of statements.  A rope
    is ``()``, any list or tuple, or a :class:`Rope` node joining two
    non-empty ropes; :func:`flatten` lists its elements once, where
    the whole sequence is needed.
    """

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


def join(a, b):
    """The rope of ``a``'s elements, then ``b``'s."""
    return Rope(a, b) if a and b else (a or b)


def flatten(rope):
    """The elements of ``rope`` in order, as a new list."""
    out, stack = [], [rope]
    while stack:
        node = stack.pop()
        if type(node) is Rope:
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.extend(node)
    return out


class DeclResult:
    """Outcome of processing one declaration.

    ``code`` and ``entries`` are ropes (:class:`Rope`).  ``configs``
    carries configuration specifications (§3.3) out of an
    architecture's declarative part to the unit-assembly rule;
    ``flow`` is the dataflow of the code (initializers and subprogram
    bodies), which a process's declarative part adds to its record.
    """

    __slots__ = ("env", "code", "entries", "msgs", "configs", "flow")

    def __init__(self, env, code=(), entries=(), msgs=(), configs=(),
                 flow=NO_FLOW):
        self.env = env
        self.code = code
        self.entries = entries
        self.msgs = list(msgs)
        self.configs = list(configs)
        self.flow = flow


def _msg(line, text):
    return "line %d: %s" % (line, text)


def redeclared(entries, labels, line):
    """A message per designator declared twice in one declarative
    region, among its declarations ``entries`` and statement
    ``labels`` (``(label, line)`` pairs; IEEE 1076, and generated
    names rely on it).  Subprograms
    and enumeration literals may be overloaded; an entry listed twice
    (a subtype renaming its type) is one declaration."""
    named = [(getattr(e, "name", ""), e) for e in entries
             if not is_overloadable(e)]
    named += [(label, SimpleNamespace(line=at)) for label, at in labels]
    seen, msgs = {}, []
    for name, entry in named:
        if name and seen.setdefault(name, entry) is not entry:
            msgs.append(_msg(getattr(entry, "line", 0) or line,
                             "%r is already declared in this region"
                             % name))
    return msgs


# -- marks and subtype indications --------------------------------------------------


def resolve_mark(parts, env, cc, line):
    """Resolve a (possibly selected) type-mark name to entries.

    ``parts`` is the identifier path (``["std", "standard", "bit"]``).
    Returns (entries, msgs).
    """
    head = parts[0]
    result = env.lookup(head)
    entries = list(result.entries)
    msgs = []
    if result.conflict:
        return [], [_msg(line, "%r is hidden by conflicting imports" % head)]
    if not entries and cc.library is not None and len(parts) > 1 \
            and cc.library.has_library(head):
        entries = [LibraryName(head)]
    for part in parts[1:]:
        if not entries:
            break
        entry = entries[0]
        kind = entry_kind(entry)
        if kind == "library":
            unit = cc.library.find_unit(entry.name, part) \
                if cc.library else None
            if unit is None:
                return [], [_msg(line, "no unit %r in library %r"
                                 % (part, entry.name))]
            entries = [unit]
        elif kind == "package":
            found = [d for d in entry.visible_decls()
                     if getattr(d, "name", None) == part]
            if not found:
                return [], [_msg(line, "package %r has no %r"
                                 % (entry.name, part))]
            entries = found
        else:
            return [], [_msg(line, "cannot select %r from %s"
                             % (part, kind))]
    if not entries:
        return [], [_msg(line, "%r is not visible" % ".".join(parts))]
    return entries, msgs


class LibraryName:
    """A library name bound by a LIBRARY clause (not serialized)."""

    __slots__ = ("name",)
    entry_kind = "library"
    overloadable = False

    def __init__(self, name):
        self.name = name


class SubtypeInfo:
    """A processed subtype indication: the type denotation plus the
    code that builds a default initial value."""

    __slots__ = ("vtype", "init_code", "resolution", "msgs",
                 "bounds_code")

    def __init__(self, vtype, init_code, resolution=None, msgs=(),
                 bounds_code=None):
        self.vtype = vtype
        self.init_code = init_code
        self.resolution = resolution
        self.msgs = list(msgs)
        self.bounds_code = bounds_code  # (left, dir, right) code triple


def default_init(vtype, bounds_code=None):
    """Code for T'LEFT-style default initial values."""
    if vtype is None:
        return "None"
    if vtypes.is_array(vtype):
        elem = default_init(vtype.element_type)
        rng = getattr(vtype, "index_range", None)
        if rng is not None and isinstance(rng.left, int):
            return "ops.fill(%r, %r, %r, %s)" % (
                rng.left, rng.direction, rng.right, elem)
        if bounds_code is not None:
            left, direction, right = bounds_code
            return "ops.fill(%s, %r, %s, %s)" % (
                left, direction, right, elem)
        return None  # unconstrained with no bounds: caller reports
    if vtypes.is_record(vtype):
        pairs = ", ".join(
            "(%r, %s)" % (f, default_init(t))
            for f, t in zip(vtype.field_names, vtype.field_types))
        return "ops.record_from([%s])" % pairs
    low, _high = vtypes.scalar_bounds(vtype)
    if vtype.base().kind == "float":
        return repr(float(low))
    return repr(low)


def subtype_indication(mark_entries, resolution_entries, constraint,
                       env, cc, line):
    """Build a SubtypeInfo from resolved mark + optional constraint.

    ``constraint`` is None or ("range"|"index", range_goal_dict).
    """
    msgs = []
    vtype = None
    for e in mark_entries:
        if entry_kind(e) == "type":
            vtype = e
            break
    if vtype is None:
        return SubtypeInfo(None, "None",
                           msgs=[_msg(line, "not a type mark")])
    resolution = None
    if resolution_entries:
        funcs = [e for e in resolution_entries
                 if entry_kind(e) == "subprogram" and e.is_function]
        if funcs:
            resolution = funcs[0]
        else:
            msgs.append(_msg(line, "resolution name is not a function"))
    bounds_code = None
    if constraint is not None:
        ckind, goal = constraint
        if not goal.get("ok"):
            msgs.extend(goal.get("msgs", ()))
        elif vtypes.is_array(vtype):
            if goal.get("static"):
                rng = IndexRange(left=goal["left_val"],
                                 direction=goal["direction"],
                                 right=goal["right_val"])
                vtype = ArraySubtype(name="", base_type=vtype.base(),
                                     index_range=rng)
            else:
                bounds_code = (goal["left_code"], goal["direction"],
                               goal["right_code"])
                vtype = ArraySubtype(name="", base_type=vtype.base(),
                                     index_range=None)
        elif vtype.is_scalar():
            if goal.get("static"):
                lo = min(goal["left_val"], goal["right_val"])
                hi = max(goal["left_val"], goal["right_val"])
                vtype = ScalarSubtype(name="", base_type=vtype,
                                      low=lo, high=hi,
                                      resolution=resolution)
            else:
                msgs.append(_msg(
                    line, "scalar subtype bounds must be static"))
        else:
            msgs.append(_msg(line, "constraint on non-array type"))
    if resolution is not None and vtype is not None \
            and vtypes.resolution_of(vtype) is not resolution:
        # The subtype carries the resolution, so the entry shows it.
        sub = vtype.kind == "subtype"
        vtype = ScalarSubtype(
            name="", base_type=vtype.base_type if sub else vtype,
            low=vtype.low if sub else None,
            high=vtype.high if sub else None, resolution=resolution)
    init = default_init(vtype, bounds_code)
    if init is None:
        init = "None"
    return SubtypeInfo(vtype, init, resolution, msgs, bounds_code)


# -- object declarations ----------------------------------------------------------------


def object_decl(obj_class, names, sub, init_goal, env, cc, line,
                scope=(), signal_kind=""):
    """Process constant/variable/signal declarations (one id list).

    ``init_goal`` is the exprEval result of the initializer or None.
    """
    msgs = list(sub.msgs)
    init_code = sub.init_code
    init_val = None
    has_val = False
    flow = NO_FLOW
    if init_goal is not None:
        msgs.extend(init_goal.get("msgs", ()))
        if init_goal.get("code"):
            init_code = init_goal["code"]
            flow = Flow.of_uses(init_goal.get("uses", ()))
        if init_goal.get("has_val"):
            init_val = init_goal["val"]
            has_val = True
    elif sub.vtype is not None and vtypes.is_array(sub.vtype) \
            and not getattr(sub.vtype, "constrained", True) \
            and sub.bounds_code is None:
        msgs.append(_msg(
            line, "object of unconstrained array type needs an "
            "initial value"))
    new_env = env
    code = []
    entries = []
    for name in names:
        py = N.declared(scope, obj_class, name)
        storable = has_val and _jsonable(init_val)
        entry = ObjectEntry(
            name=name, obj_class=obj_class, mode="",
            vtype=sub.vtype, py=py,
            value=init_val if storable else None,
            has_value=storable,
            signal_kind=signal_kind, line=line)
        entries.append(entry)
        new_env = new_env.bind(name, entry)
        if obj_class == "signal":
            code.append(ln(Row(["signal", py, N.kernel_path(scope, name),
                                init_code, _resolution_code(sub), line])))
        elif obj_class in ("constant", "variable"):
            code.append(ln("%s = %s" % (py, init_code)))
    return DeclResult(new_env, code, entries, msgs,
                      flow=flow if code else NO_FLOW)


def _jsonable(val):
    return isinstance(val, (int, float, str, bool, type(None)))


def _resolution_code(sub):
    resolution = sub.resolution or vtypes.resolution_of(sub.vtype)
    if resolution is None:
        return None
    return ("lambda _vs: %s(VArray.from_list(list(_vs)))"
            % resolution.py)


# -- type declarations --------------------------------------------------------------------


def enum_type_decl(name, literal_names, env, cc, line):
    etype = EnumType(name=name, literals=list(literal_names))
    new_env = env.bind(name, etype)
    entries = [etype]
    for pos, lit in enumerate(etype.literals):
        entry = EnumLiteralEntry(name=lit, etype=etype, position=pos)
        entries.append(entry)
        new_env = new_env.bind(lit, entry, overloadable=True)
    return DeclResult(new_env, [], entries, [])


def integer_type_decl(name, range_goal, env, cc, line):
    msgs = list(range_goal.get("msgs", ()))
    if not range_goal.get("static"):
        msgs.append(_msg(line, "integer type bounds must be static"))
        low, high = 0, 0
    else:
        low = min(range_goal["left_val"], range_goal["right_val"])
        high = max(range_goal["left_val"], range_goal["right_val"])
    itype = IntegerType(name=name, low=low, high=high)
    return DeclResult(env.bind(name, itype), [], [itype], msgs)


def array_type_decl(name, index_goal, unconstrained_mark, element_sub,
                    env, cc, line):
    """``type T is array (...) of elem``.

    ``index_goal`` is the range goal for a constrained array, or None
    with ``unconstrained_mark`` entries for ``array (T range <>)``.
    """
    msgs = list(element_sub.msgs)
    elem = element_sub.vtype
    if index_goal is not None:
        msgs.extend(m for m in index_goal.get("msgs", ()))
        index_type = index_goal.get("type") or cc.std.integer
        rng = None
        if index_goal.get("static"):
            rng = IndexRange(left=index_goal["left_val"],
                             direction=index_goal["direction"],
                             right=index_goal["right_val"])
        else:
            msgs.append(_msg(
                line, "array type index bounds must be static "
                "(use a subtype at the object for computed bounds)"))
        atype = ArrayType(name=name, index_type=index_type,
                          element_type=elem, index_range=rng)
    else:
        index_type = None
        for e in unconstrained_mark or ():
            if entry_kind(e) == "type":
                index_type = e
                break
        if index_type is None or not vtypes.is_discrete(index_type):
            msgs.append(_msg(line, "bad index type in array type"))
            index_type = cc.std.integer
        atype = ArrayType(name=name, index_type=index_type,
                          element_type=elem, index_range=None)
    return DeclResult(env.bind(name, atype), [], [atype], msgs)


def record_type_decl(name, fields, env, cc, line):
    """``fields`` is a list of (field_name, SubtypeInfo)."""
    msgs = []
    names = []
    ftypes = []
    for fname, sub in fields:
        msgs.extend(sub.msgs)
        if fname in names:
            msgs.append(_msg(line, "duplicate record field %r" % fname))
            continue
        names.append(fname)
        ftypes.append(sub.vtype)
    rtype = RecordType(name=name, field_names=names, field_types=ftypes)
    return DeclResult(env.bind(name, rtype), [], [rtype], msgs)


def subtype_decl(name, sub, env, cc, line):
    vtype = sub.vtype
    if vtype is not None and not getattr(vtype, "name", ""):
        vtype.name = name
    elif vtype is not None and vtype.name != name:
        # ``subtype small is integer`` with no constraint: a renaming
        # view is enough in the subset.
        if vtype.is_scalar() and vtype.kind != "subtype":
            vtype = ScalarSubtype(name=name, base_type=vtype,
                                  low=None, high=None,
                                  resolution=sub.resolution)
    return DeclResult(env.bind(name, vtype), [], [vtype], sub.msgs)


# -- subprograms -------------------------------------------------------------------------------


def make_param(name, obj_class, mode, sub, default_goal, line):
    msgs = list(sub.msgs)
    default = None
    has_default = False
    if default_goal is not None:
        msgs.extend(default_goal.get("msgs", ()))
        if default_goal.get("has_val") and _jsonable(default_goal["val"]):
            default = default_goal["val"]
            has_default = True
        elif default_goal.get("has_val"):
            msgs.append(_msg(
                line, "composite parameter defaults are not supported"))
        else:
            msgs.append(_msg(line, "parameter default must be static"))
    if not obj_class:
        obj_class = "constant" if mode in ("", "in") else "variable"
    param = ParamEntry(name=name, obj_class=obj_class,
                       mode=mode or "in", vtype=sub.vtype,
                       default=default, has_default=has_default)
    return param, msgs


def subprogram_body_env(entry, env, line):
    """The environment inside a subprogram body: params bound."""
    inner = env.enter_scope()
    for param in entry.params:
        obj = ObjectEntry(
            name=param.name, obj_class=param.obj_class,
            mode=param.mode, vtype=param.vtype,
            py=N.param(param.name), line=line,
            signal_kind="signal" if param.obj_class == "signal" else "")
        inner = inner.bind(param.name, obj)
    return inner


def subprogram_code(entry, body_code, local_names, writes, line):
    """Assemble the nested ``def`` for a subprogram body.

    ``writes`` is the set of python names the body assigns; names not
    local and not parameters need ``nonlocal`` — the up-level-reference
    support the paper notes C lacked (§1).
    """
    params = []
    for p in entry.params:
        if p.has_default:
            params.append("%s=%s" % (N.param(p.name),
                                     code_for_value(p.default)))
        else:
            params.append(N.param(p.name))
    lines = [ln("def %s(%s):" % (entry.py, ", ".join(params)))]
    locals_ = set(local_names) | {N.param(p.name) for p in entry.params}
    uplevel = sorted(w for w in writes if w not in locals_)
    body = as_text(body_code)
    if uplevel:
        body.insert(0, ln("nonlocal %s" % ", ".join(uplevel)))
    if not body:
        body = [ln("pass")]
    if entry.sub_kind == "procedure":
        out = [N.param(p.name) for p in entry.params
               if p.mode in ("out", "inout") and p.obj_class != "signal"]
        if out:
            body.append(ln("return %s" % ", ".join(out)))
    lines.extend(indent(body))
    return lines


# -- components, aliases, attributes -------------------------------------------------------------


def component_decl(name, generics, ports, env, cc, line):
    entry = ComponentEntry(name=name, generics=list(generics),
                           ports=list(ports), line=line)
    return DeclResult(env.bind(name, entry), [], [entry], [])


def alias_decl(name, sub, target_goal, env, cc, line):
    msgs = list(sub.msgs)
    msgs.extend(target_goal.get("msgs", ()))
    lv = target_goal.get("lvalue")
    if lv is None or lv.path:
        msgs.append(_msg(line, "alias target must be a whole object"))
        return DeclResult(env, [], [], msgs)
    entry = AliasEntry(name=name, target=lv.base,
                       vtype=sub.vtype or lv.base.vtype)
    return DeclResult(env.bind(name, entry), [], [entry], msgs)


def attribute_decl(name, mark_entries, env, cc, line):
    vtype = None
    msgs = []
    for e in mark_entries:
        if entry_kind(e) == "type":
            vtype = e
            break
    if vtype is None:
        msgs.append(_msg(line, "attribute type must be a type mark"))
    entry = AttributeDeclEntry(name=name, vtype=vtype)
    return DeclResult(env.bind(name, entry), [], [entry], msgs)


def attribute_spec(attr_name, item_name, value_goal, env, cc, line):
    """``attribute A of X : class is expr;`` — user-defined attribute
    values, the §3.2 shadowing mechanism."""
    msgs = list(value_goal.get("msgs", ()))
    result = env.lookup(attr_name)
    attr = None
    for e in result.entries:
        if entry_kind(e) == "attribute_decl":
            attr = e
            break
    if attr is None:
        msgs.append(_msg(line, "%r is not an attribute" % attr_name))
        return DeclResult(env, [], [], msgs)
    target_result = env.lookup(item_name)
    if not target_result.entries:
        msgs.append(_msg(line, "%r is not visible" % item_name))
        return DeclResult(env, [], [], msgs)
    if not value_goal.get("has_val"):
        msgs.append(_msg(line, "attribute value must be static"))
        return DeclResult(env, [], [], msgs)
    target = target_result.entries[0]
    av = AttributeValue(attr=attr, target=target,
                        value=value_goal["val"]
                        if _jsonable(value_goal["val"]) else None)
    return DeclResult(bind_attr_value(env, av), [], [av], msgs)


# -- context clauses -----------------------------------------------------------------------------


def library_clause(names, env, cc, line):
    msgs = []
    new_env = env
    for name in names:
        if cc.library is not None and not cc.library.has_library(name):
            msgs.append(_msg(line, "unknown library %r" % name))
            continue
        new_env = new_env.bind(name, LibraryName(name))
    return DeclResult(new_env, [], [], msgs)


def use_clause(paths, env, cc, line):
    """``use lib.unit.item`` / ``use lib.unit.all`` (§3.4)."""
    msgs = []
    new_env = env
    for parts in paths:
        if len(parts) < 2:
            msgs.append(_msg(line, "use clause needs a selected name"))
            continue
        head = parts[0]
        lib_entry = None
        for e in new_env.lookup(head).entries:
            if entry_kind(e) == "library":
                lib_entry = e
                break
        if lib_entry is None:
            msgs.append(_msg(line, "%r is not a library (missing "
                             "library clause?)" % head))
            continue
        unit = cc.library.find_unit(lib_entry.name, parts[1]) \
            if cc.library else None
        if unit is None:
            msgs.append(_msg(line, "no unit %r in library %r"
                             % (parts[1], head)))
            continue
        if len(parts) == 2:
            # The unit itself becomes visible (for pkg.item selection).
            new_env = new_env.bind(parts[1], unit, via_use=True)
            continue
        item = parts[2]
        if item == "all":
            new_env = new_env.bind(parts[1], unit, via_use=True)
            for d in unit.visible_decls():
                dname = getattr(d, "name", None)
                if dname:
                    new_env = new_env.bind(
                        dname, d, via_use=True,
                        overloadable=is_overloadable(d))
                if getattr(d, "kind", None) == "enum":
                    for pos, lit in enumerate(d.literals):
                        new_env = new_env.bind(
                            lit,
                            _find_literal(unit, d, pos),
                            via_use=True, overloadable=True)
        else:
            found = [d for d in unit.visible_decls()
                     if getattr(d, "name", None) == item]
            if not found:
                msgs.append(_msg(line, "no %r in unit %r"
                                 % (item, parts[1])))
                continue
            for d in found:
                new_env = new_env.bind(
                    item, d, via_use=True,
                    overloadable=is_overloadable(d))
    return DeclResult(new_env, [], [], msgs)


def _find_literal(unit, etype, pos):
    for d in unit.visible_decls():
        if entry_kind(d) == "enum_literal" and d.etype is etype \
                and d.position == pos:
            return d
    return EnumLiteralEntry(name=etype.literals[pos], etype=etype,
                            position=pos)
