"""VIF serialization: write, read (resolving nested foreign
references), and the human-readable dump.

A unit's VIF is a node table plus named roots.  Nodes reachable from
the roots that do not yet belong to a unit are *owned* by the unit
being written; nodes that already belong elsewhere are written as
foreign references ``(library, unit, id)`` — the reader resolves those
by loading the owning unit, recursively ("reads the VIF from disk,
resolving any nested foreign references").  Once built and written, VIF
is never mutated; recompiling a unit builds fresh nodes.
"""

import json

from .core import VIFError
from . import nodes as _nodes

#: Bumped when the stored fields change, in layout or in meaning
#: (VIF-5: architectures and packages keep their signal, process and
#: instance statements as rows, outside the model's text).
FORMAT = "VIF-5"


def unit_depends(payload):
    """The dependency metadata a payload carries: the sorted
    ``(library, unit)`` pairs the writer recorded whenever it encoded
    a foreign reference.  This is the ground truth the incremental
    build system's dependency graph is harvested from."""
    return [tuple(d) for d in payload.get("depends", [])]


class VIFWriter:
    """Serializes one unit's roots into a JSON-able dict."""

    def __init__(self, library, unit):
        self.library = library
        self.unit = unit
        self._ids = {}
        self._order = []
        self._depends = set()

    def write(self, roots):
        """Encode ``roots`` (name -> node); returns the unit payload."""
        registry = _nodes.registry()
        for node in roots.values():
            self._discover(node)
        encoded_nodes = []
        for node in self._order:
            kind = node.VIF_KIND
            if kind not in registry:
                raise VIFError("node kind %r is not in the schema" % kind)
            write_fn = registry[kind][2]
            encoded_nodes.append([kind, write_fn(node, self._encode)])
        payload = {
            "format": FORMAT,
            "library": self.library,
            "unit": self.unit,
            "roots": {
                name: self._encode(node, "ref")
                for name, node in roots.items()
            },
            "nodes": encoded_nodes,
            "depends": sorted(self._depends),
        }
        # Ownership is recorded only after a fully successful encode.
        for i, node in enumerate(self._order):
            node._vif_home = (self.library, self.unit, i)
        try:
            json.dumps(payload)
        except (TypeError, ValueError) as exc:
            raise VIFError(
                "unit %s.%s contains non-serializable data: %s"
                % (self.library, self.unit, exc)
            ) from exc
        return payload

    @property
    def depends(self):
        """The ``(library, unit)`` pairs discovered so far (the same
        set the payload carries under ``"depends"``)."""
        return sorted(self._depends)

    @property
    def node_table(self):
        """The owned nodes in id order (index == ``_vif_home`` id).
        Lets a reader be seeded with the *original* objects so foreign
        references from freshly loaded units resolve to them instead
        of to materialized copies — identity, not equality."""
        return list(self._order)

    # -- traversal ---------------------------------------------------------

    def _is_foreign(self, node):
        home = node._vif_home
        return home is not None and (home[0], home[1]) != (
            self.library,
            self.unit,
        )

    def _discover(self, node):
        if node is None or self._is_foreign(node):
            return
        if id(node) in self._ids:
            return
        self._ids[id(node)] = len(self._order)
        self._order.append(node)
        for field, value in node.vif_fields():
            if field.ftype == "ref" and value is not None:
                self._discover(value)
            elif field.ftype == "list":
                for item in value:
                    self._discover(item)

    def _encode(self, value, ftype):
        if ftype in ("str", "int", "bool", "float", "data"):
            return value
        if ftype == "ref":
            if value is None:
                return None
            if self._is_foreign(value):
                lib, unit, node_id = value._vif_home
                self._depends.add((lib, unit))
                return {"$f": [lib, unit, node_id]}
            return {"$r": self._ids[id(value)]}
        if ftype == "list":
            return [self._encode(item, "ref") for item in value]
        raise VIFError("unknown field type %r" % ftype)


class VIFReader:
    """Reconstructs units from payloads, resolving foreign references.

    ``loader(library, unit)`` returns the stored payload for a unit;
    constructed node tables are cached so shared declarations resolve
    to the *same* node objects — foreign references are pointers, not
    copies.
    """

    def __init__(self, loader):
        self._loader = loader
        self._cache = {}  # (library, unit) -> node list
        self._roots = {}  # (library, unit) -> {name: node}

    def seed(self, library, unit, table, roots):
        """Pre-populate the cache with live node objects.

        Used for units whose canonical nodes already exist in this
        process (e.g. the STANDARD package singleton): foreign
        references into the seeded unit then resolve to those very
        objects, preserving the identity semantics the type checker
        relies on, instead of materializing divergent copies from the
        payload."""
        self._cache[(library, unit)] = list(table)
        self._roots[(library, unit)] = dict(roots)

    def read_unit(self, library, unit):
        """Roots dict for a unit, loading transitively as needed."""
        key = (library, unit)
        if key in self._roots:
            return self._roots[key]
        payload = self._loader(library, unit)
        if payload is None:
            raise VIFError("no VIF for unit %s.%s" % (library, unit))
        if payload.get("format") != FORMAT:
            raise VIFError(
                "unit %s.%s has VIF format %r, not %r: it was written "
                "by another compiler version; rebuild the library"
                % (library, unit, payload.get("format"), FORMAT)
            )
        table = self._materialize(library, unit, payload)
        roots = {
            name: self._decode_with(table, enc, "ref")
            for name, enc in payload.get("roots", {}).items()
        }
        self._roots[key] = roots
        return roots

    def node(self, library, unit, node_id):
        """One node by its home triple."""
        key = (library, unit)
        if key not in self._cache:
            self.read_unit(library, unit)
        try:
            return self._cache[key][node_id]
        except IndexError:
            raise VIFError(
                "unit %s.%s has no node #%d" % (library, unit, node_id)
            ) from None

    def _materialize(self, library, unit, payload):
        key = (library, unit)
        if key in self._cache:
            return self._cache[key]
        registry = _nodes.registry()
        table = []
        for kind, fields in payload["nodes"]:
            if kind not in registry:
                raise VIFError(
                    "unit %s.%s: unknown node kind %r" % (library, unit, kind)
                )
            cls = registry[kind][0]
            # A payload written before a schema change lacks the new
            # fields; reading it would leave them unset.
            missing = len(fields) != len(cls.VIF_FIELDS) and [
                f.name for f in cls.VIF_FIELDS if f.name not in fields]
            if missing:
                raise VIFError(
                    "unit %s.%s was written by an older compiler: its %s "
                    "node lacks field(s) %s; rebuild the library"
                    % (library, unit, kind, ", ".join(missing)))
            node = cls.__new__(cls)
            node._vif_home = (library, unit, len(table))
            table.append(node)
        # Register before filling so intra-unit (even cyclic) refs and
        # mutually dependent units resolve.
        self._cache[key] = table

        def decode(value, ftype):
            return self._decode_with(table, value, ftype)

        for node, (kind, fields) in zip(table, payload["nodes"]):
            read_fn = registry[kind][3]
            read_fn(node, fields, decode)
        return table

    def _decode_with(self, table, value, ftype):
        if ftype in ("str", "int", "bool", "float", "data"):
            return value
        if ftype == "ref":
            if value is None:
                return None
            if "$r" in value:
                return table[value["$r"]]
            if "$f" in value:
                lib, unit, node_id = value["$f"]
                return self.node(lib, unit, node_id)
            raise VIFError("malformed reference %r" % (value,))
        if ftype == "list":
            return [self._decode_with(table, item, "ref") for item in value]
        raise VIFError("unknown field type %r" % ftype)


def dump_unit(payload):
    """The human-readable form of a unit's VIF (debugging and
    documentation, as in the paper)."""
    registry = _nodes.registry()
    lines = [
        "VIF unit %s.%s" % (payload["library"], payload["unit"]),
        "roots: "
        + ", ".join(
            "%s=%s" % (name, _show_encoded(enc))
            for name, enc in payload.get("roots", {}).items()
        ),
    ]
    deps = payload.get("depends", [])
    if deps:
        lines.append(
            "depends: " + ", ".join("%s.%s" % (l, u) for l, u in deps)
        )
    for i, (kind, fields) in enumerate(payload["nodes"]):
        lines.append("n%-4d %s" % (i, kind))
        decl_fields = registry[kind][0].VIF_FIELDS
        for field in decl_fields:
            value = fields.get(field.name)
            if field.ftype == "ref":
                text = _show_encoded(value)
            elif field.ftype == "list":
                text = "[" + ", ".join(
                    _show_encoded(v) for v in (value or [])
                ) + "]"
            else:
                text = _abbreviate(repr(value))
            lines.append("      .%-12s = %s" % (field.name, text))
    return "\n".join(lines)


def _show_encoded(enc):
    if enc is None:
        return "nil"
    if "$r" in enc:
        return "@%d" % enc["$r"]
    if "$f" in enc:
        lib, unit, node_id = enc["$f"]
        return "@%s.%s#%d" % (lib, unit, node_id)
    return repr(enc)


def _abbreviate(text, limit=72):
    if len(text) <= limit:
        return text
    return text[: limit - 3] + "..."
