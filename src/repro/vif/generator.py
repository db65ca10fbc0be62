"""Generator for VIF node declarations and manipulation code.

The paper's VIF processor "generates declarations for this data, and
generates C code that manipulates the VIF": code that writes the VIF to
disk, reads it back, allocates individual nodes, and produces a
human-readable form.  :func:`generate_source` emits the same four
families as Python source — class declarations plus per-kind ``new_``,
``write_``, ``read_`` and ``dump_`` functions — committed as
:mod:`repro.vif._generated`, which :mod:`repro.vif.nodes` imports to
obtain the node classes the rest of the compiler uses.  The emitted
text is *generated code* in the sense of Figure 2 and is counted as
such by benchmark E1.
"""

from .core import VIFError, schema_crc32
from .schema_lang import parse_schema

_HEADER = '''\
"""VIF node declarations and access functions.

GENERATED by repro.vif.generator from the declarative schema — do not
edit.  Regenerate with ``python -m repro.regen``.
"""

from repro.vif.core import Field, Node
'''


def generate_source(decls, schema_crc=None):
    """Emit the Python module source for a list of SchemaNodeDecl;
    ``schema_crc`` (see :func:`schema_crc32`) is recorded as
    ``SCHEMA_CRC32`` when given."""
    out = [_HEADER]
    if schema_crc is not None:
        out.append("SCHEMA_CRC32 = 0x%08x" % schema_crc)
    mixins = {}
    for decl in decls:
        if decl.mixin:
            module, cls = decl.mixin.split(":")
            alias = "_mixin_%s" % cls
            if decl.mixin not in mixins:
                mixins[decl.mixin] = alias
                out.append("from %s import %s as %s" % (module, cls, alias))
    out.append("")
    for decl in decls:
        out.append(_class_source(decl, mixins))
        out.append(_new_source(decl))
        out.append(_write_source(decl))
        out.append(_read_source(decl))
        out.append(_dump_source(decl))
    out.append(_registry_source(decls))
    return "\n".join(out)


def _bases(decl, mixins):
    if decl.mixin:
        return "%s, Node" % mixins[decl.mixin]
    return "Node"


def _default_expr(field):
    if field.ftype == "list":
        return "None"
    return repr(field.default())


def _init_value(field):
    if field.ftype == "list":
        return "list(%s) if %s is not None else []" % (
            field.name,
            field.name,
        )
    return field.name


def _class_source(decl, mixins):
    lines = []
    lines.append("class %s(%s):" % (decl.kind, _bases(decl, mixins)))
    lines.append('    """VIF node kind %r."""' % decl.kind)
    lines.append("")
    slots = ", ".join(repr(f.name) for f in decl.fields)
    if decl.fields and len(decl.fields) == 1:
        slots += ","
    lines.append("    __slots__ = (%s)" % slots)
    lines.append("    VIF_KIND = %r" % decl.kind)
    fields = ", ".join(
        "Field(%r, %r)" % (f.name, f.ftype) for f in decl.fields
    )
    if decl.fields and len(decl.fields) == 1:
        fields += ","
    lines.append("    VIF_FIELDS = (%s)" % fields)
    lines.append("")
    params = "".join(
        ", %s=%s" % (f.name, _default_expr(f)) for f in decl.fields
    )
    lines.append("    def __init__(self%s):" % params)
    lines.append("        self._vif_home = None")
    for f in decl.fields:
        lines.append("        self.%s = %s" % (f.name, _init_value(f)))
    lines.append("        if hasattr(self, '_post_init'):")
    lines.append("            self._post_init()")
    lines.append("")
    return "\n".join(lines)


def _new_source(decl):
    return (
        "def new_%s(**fields):\n"
        '    """Allocate a %s node."""\n'
        "    return %s(**fields)\n"
    ) % (decl.kind, decl.kind, decl.kind)


def _write_source(decl):
    lines = ["def write_%s(node, encode):" % decl.kind]
    lines.append('    """Encode the fields of a %s node."""' % decl.kind)
    lines.append("    return {")
    for f in decl.fields:
        lines.append(
            "        %r: encode(node.%s, %r)," % (f.name, f.name, f.ftype)
        )
    lines.append("    }")
    lines.append("")
    return "\n".join(lines)


def _read_source(decl):
    lines = ["def read_%s(node, data, decode):" % decl.kind]
    lines.append(
        '    """Fill a blank %s node from encoded fields."""' % decl.kind
    )
    for f in decl.fields:
        lines.append(
            "    node.%s = decode(data.get(%r), %r)"
            % (f.name, f.name, f.ftype)
        )
    lines.append("    if hasattr(node, '_post_init'):")
    lines.append("        node._post_init()")
    lines.append("    return node")
    lines.append("")
    return "\n".join(lines)


def _dump_source(decl):
    lines = ["def dump_%s(node, show):" % decl.kind]
    lines.append(
        '    """Human-readable (field, text) pairs for a %s node."""'
        % decl.kind
    )
    lines.append("    return [")
    for f in decl.fields:
        lines.append(
            "        (%r, show(node.%s, %r))," % (f.name, f.name, f.ftype)
        )
    lines.append("    ]")
    lines.append("")
    return "\n".join(lines)


def _registry_source(decls):
    lines = ["REGISTRY = {"]
    for decl in decls:
        lines.append(
            "    %r: (%s, new_%s, write_%s, read_%s, dump_%s),"
            % ((decl.kind,) + (decl.kind,) * 5)
        )
    lines.append("}")
    lines.append("")
    return "\n".join(lines)


def generate_from_text(schema_text, filename="<schema>"):
    """Parse schema text and emit the module source."""
    from ..ag.errors import ParseError

    try:
        decls = parse_schema(schema_text, filename)
    except ParseError as exc:
        raise VIFError(
            "%s: schema is empty or malformed: %s" % (filename, exc)
        ) from exc
    if not decls:
        raise VIFError("%s: schema declares no node kinds" % filename)
    return generate_source(decls, schema_crc32(schema_text))
