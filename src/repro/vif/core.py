"""VIF core: the node base class and field descriptors.

Generated node classes (see :mod:`repro.vif.generator`) derive from
:class:`Node`; each carries a ``VIF_KIND`` string and a ``VIF_FIELDS``
tuple of :class:`Field` descriptors the serialization engine consults.
"""

import zlib


class VIFError(Exception):
    """Malformed schema, serialization failure, or unresolvable ref."""


def schema_crc32(schema_text):
    """The schema fingerprint a generated node module records, so a
    module generated from another schema text is recognized as stale."""
    return zlib.crc32(schema_text.encode("utf-8"))


#: Legal field type names in the schema notation.
FIELD_TYPES = ("str", "int", "bool", "float", "data", "ref", "list")

_DEFAULTS = {
    "str": "",
    "int": 0,
    "bool": False,
    "float": 0.0,
    "data": None,
    "ref": None,
}


class Field:
    """One typed field of a node kind."""

    __slots__ = ("name", "ftype")

    def __init__(self, name, ftype):
        if ftype not in FIELD_TYPES:
            raise VIFError("unknown VIF field type %r" % ftype)
        self.name = name
        self.ftype = ftype

    def default(self):
        if self.ftype == "list":
            return []
        return _DEFAULTS[self.ftype]

    def __repr__(self):
        return "<Field %s: %s>" % (self.name, self.ftype)


class Node:
    """Base class of all VIF nodes.

    ``_vif_home`` records where the node lives once it has been written
    to (or read from) a library: a ``(library, unit, node_id)`` triple.
    A node with a home is *foreign* to any other unit that reaches it,
    and is serialized as a foreign reference rather than inline —
    re-reading then resolves back to the owning unit's node.  This is
    how "ENV values are part of the VIF and hence are retained in the
    model library" works without ever copying a declaration.
    """

    __slots__ = ("_vif_home",)

    VIF_KIND = None
    VIF_FIELDS = ()

    def vif_fields(self):
        """(field, value) pairs in schema order."""
        return [(f, getattr(self, f.name)) for f in self.VIF_FIELDS]

    def __repr__(self):
        label = getattr(self, "name", None)
        if label:
            return "<%s %s>" % (self.VIF_KIND, label)
        return "<%s>" % self.VIF_KIND
