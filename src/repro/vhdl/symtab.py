"""Symbol-table entry behaviors.

Entries are VIF nodes (classes generated from ``repro/vif/schema.vif``)
with the behavior defined here — the paper's design where "in our VHDL
compiler [the symbol table] is done by the VIF, both foreign VIF read
from the library, and domestic VIF created as part of processing the
current compilation unit" (§4.3).

The *environment* that maps identifiers to entries is the applicative
:class:`repro.applicative.Env`; this module adds the VHDL-specific
classification helpers the two AGs use to build LEF tokens and resolve
overloading.
"""

from . import vtypes


class ObjectEntryBehavior:
    """A declared object: constant, variable, signal, generic, port,
    subprogram parameter, or loop parameter.

    ``py`` is the Python runtime reference the code generator emits for
    this object (e.g. ``s_count`` for a signal); ``value`` carries the
    statically known value of a constant or generic when there is one.
    """

    __slots__ = ()
    entry_kind = "object"
    overloadable = False

    @property
    def is_signal(self):
        return self.obj_class in ("signal", "port") or (
            self.obj_class == "param" and self.signal_kind == "signal"
        )

    @property
    def is_readable(self):
        return self.mode != "out"

    @property
    def is_writable(self):
        return self.obj_class not in ("constant", "generic") and (
            self.mode in ("out", "inout", "")
            or self.obj_class in ("variable", "signal", "loopvar")
        )

    def static_value(self):
        return self.value if self.has_value else None


class EnumLiteralEntryBehavior:
    """An enumeration literal — overloadable, like a parameterless
    function returning its type (the Ada/VHDL model)."""

    __slots__ = ()
    entry_kind = "enum_literal"
    overloadable = True


class PhysicalUnitEntryBehavior:
    """A unit name of a physical type (``ns``, ``ms``, ...): scales an
    abstract literal into the type's primary unit."""

    __slots__ = ()
    entry_kind = "physical_unit"
    overloadable = False


class ParamEntryBehavior:
    """One formal parameter of a subprogram."""

    __slots__ = ()
    entry_kind = "param"
    overloadable = False


class SubprogramEntryBehavior:
    """A function or procedure, possibly one of an overload set.

    ``predefined_op`` is the operator symbol for implicitly declared
    operators ("+", "and", ...); the code generator maps those to
    :mod:`repro.sim.runtime` calls instead of user code.
    """

    __slots__ = ()
    entry_kind = "subprogram"
    overloadable = True

    @property
    def is_function(self):
        return self.sub_kind == "function"

    def min_args(self):
        return sum(1 for p in self.params if not p.has_default)

    def max_args(self):
        return len(self.params)

    def accepts_arity(self, n):
        return self.min_args() <= n <= self.max_args()

    def param_by_name(self, name):
        for p in self.params:
            if p.name == name:
                return p
        return None


class AliasEntryBehavior:
    """A restricted Ada-renaming: another view of an existing object."""

    __slots__ = ()
    entry_kind = "alias"
    overloadable = False

    def resolve(self):
        """The ultimate non-alias entry."""
        target = self.target
        while getattr(target, "entry_kind", None) == "alias":
            target = target.target
        return target


class AttributeDeclEntryBehavior:
    """A user-defined attribute declaration: ``attribute A : T;``."""

    __slots__ = ()
    entry_kind = "attribute_decl"
    overloadable = False


class AttributeValueBehavior:
    """One attribute specification: the value of attribute ``attr`` on
    the declared item ``target``."""

    __slots__ = ()
    entry_kind = "attribute_value"


class ComponentEntryBehavior:
    """A component declaration — "a kind of socket" in the paper's
    hardware analogy (§3.3)."""

    __slots__ = ()
    entry_kind = "component"
    overloadable = False

    def port_by_name(self, name):
        for p in self.ports:
            if p.name == name:
                return p
        return None

    def generic_by_name(self, name):
        for g in self.generics:
            if g.name == name:
                return g
        return None


class _UnitBehavior:
    __slots__ = ()
    overloadable = False

    def visible_decls(self):
        """Entries a USE clause can import from this unit."""
        return list(self.decls)


class EntityUnitBehavior(_UnitBehavior):
    """An entity: the interface of a family of devices (§3.3)."""

    __slots__ = ()
    entry_kind = "entity"
    unit_class = "entity"

    def port_by_name(self, name):
        for p in self.ports:
            if p.name == name:
                return p
        return None

    def generic_by_name(self, name):
        for g in self.generics:
            if g.name == name:
                return g
        return None


class ArchUnitBehavior(_UnitBehavior):
    """An architecture: 'a board with sockets' (§3.3)."""

    __slots__ = ()
    entry_kind = "architecture"
    unit_class = "architecture"


class InstanceEntryBehavior:
    """A component instantiation: 'an instance of a socket'."""

    __slots__ = ()
    entry_kind = "instance"

    @property
    def is_bound(self):
        return bool(self.bound_entity)


class PackageUnitBehavior(_UnitBehavior):
    __slots__ = ()
    entry_kind = "package"
    unit_class = "package"


class PackageBodyUnitBehavior(_UnitBehavior):
    __slots__ = ()
    entry_kind = "package_body"
    unit_class = "package_body"


class ConfigUnitBehavior(_UnitBehavior):
    """A configuration: 'what actual chips to plug in the sockets'."""

    __slots__ = ()
    entry_kind = "configuration"
    unit_class = "configuration"

    def visible_decls(self):
        return []


# -- classification helpers ---------------------------------------------------


def entry_kind(entry):
    """The classification tag of any environment entry."""
    kind = getattr(entry, "entry_kind", None)
    if kind is not None:
        return kind
    if getattr(entry, "kind", None) in (
        "enum",
        "integer",
        "physical",
        "float",
        "array",
        "record",
        "subtype",
    ):
        return "type"
    return "unknown"


def is_overloadable(entry):
    return bool(getattr(entry, "overloadable", False))


def deref_alias(entry):
    """Follow alias chains to the real entry."""
    if entry_kind(entry) == "alias":
        return entry.resolve()
    return entry


def lookup_user_attribute(user_attrs, target, attr_name):
    """Find the AttributeValue for (target, attr_name), following the
    §3.2 rule that a user-defined attribute can shadow a predefined
    one.  ``user_attrs`` is a unit's attribute-specification list."""
    target = deref_alias(target)
    for av in user_attrs:
        if av.target is target and av.attr.name == attr_name:
            return av
    return None
