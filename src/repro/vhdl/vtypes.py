"""The VHDL type system — behavior mixins for generated VIF nodes.

Type denotations are VIF nodes (see ``repro/vif/schema.vif``): their
class *declarations* are generated from the declarative schema, and the
classes here supply the behavior.  That makes every type a first-class
symbol-table object that serializes into a unit's VIF and can be
referenced foreign from other units — the paper's "the VIF is the
symbol table" design (§4.3).

Runtime values are plain data: every scalar is an int (enumeration
position, integer value, femtoseconds for TIME), composites are
:class:`repro.sim.runtime.VArray` / ``VRecord``.

Type equality in VHDL is by declaration: each type declaration creates
a distinct type object.  Subtypes answer :meth:`base` with their base
type's identity; :func:`same_base` is the compatibility check.
"""


class _TypeBehavior:
    """Shared behavior of all type nodes."""

    __slots__ = ()

    def base(self):
        """The base type (self unless this is a subtype)."""
        return self

    def is_scalar(self):
        return False

    def is_discrete(self):
        return False

    def is_composite(self):
        return False


class EnumTypeBehavior(_TypeBehavior):
    """Enumeration type: ordered literals.  Runtime value: position."""

    __slots__ = ()
    kind = "enum"

    def is_scalar(self):
        return True

    def is_discrete(self):
        return True

    def position(self, literal):
        return self.literals.index(literal)

    @property
    def low(self):
        return 0

    @property
    def high(self):
        return len(self.literals) - 1

    def image(self, value):
        if 0 <= value < len(self.literals):
            return self.literals[value]
        return "#%d" % value


class IntegerTypeBehavior(_TypeBehavior):
    """Integer type with its defining range."""

    __slots__ = ()
    kind = "integer"

    def is_scalar(self):
        return True

    def is_discrete(self):
        return True

    def image(self, value):
        return str(value)


class PhysicalTypeBehavior(_TypeBehavior):
    """Physical type (TIME): runtime value in primary units (fs)."""

    __slots__ = ()
    kind = "physical"

    def is_scalar(self):
        return True

    def scale(self, unit_name):
        for unit, scale in self.units:
            if unit == unit_name:
                return scale
        raise KeyError(unit_name)

    def image(self, value):
        for unit, scale in reversed(self.units):
            if scale and value % scale == 0:
                return "%d %s" % (value // scale, unit)
        unit, scale = self.units[0]
        return "%d %s" % (value // scale, unit)


class FloatTypeBehavior(_TypeBehavior):
    """Floating-point type (REAL)."""

    __slots__ = ()
    kind = "float"

    def is_scalar(self):
        return True

    def image(self, value):
        return repr(value)


class IndexRangeBehavior:
    """A static index range: direction plus integer bounds."""

    __slots__ = ()

    @property
    def low(self):
        return min(self.left, self.right)

    @property
    def high(self):
        return max(self.left, self.right)

    def length(self):
        if self.direction == "to":
            n = self.right - self.left + 1
        else:
            n = self.left - self.right + 1
        return max(n, 0)

    def indices(self):
        if self.direction == "to":
            return range(self.left, self.right + 1)
        return range(self.left, self.right - 1, -1)


class ArrayTypeBehavior(_TypeBehavior):
    """Array type; unconstrained when ``index_range`` is None."""

    __slots__ = ()
    kind = "array"

    def is_composite(self):
        return True

    @property
    def constrained(self):
        return self.index_range is not None


class ArraySubtypeBehavior(_TypeBehavior):
    """Index-constrained view of an array base type."""

    __slots__ = ()
    kind = "array"

    def base(self):
        return self.base_type.base()

    @property
    def index_type(self):
        return self.base().index_type

    @property
    def element_type(self):
        return self.base().element_type

    def is_composite(self):
        return True

    @property
    def constrained(self):
        return True


class RecordTypeBehavior(_TypeBehavior):
    """Record type: parallel ``field_names`` / ``field_types`` lists."""

    __slots__ = ()
    kind = "record"

    def is_composite(self):
        return True

    def field_type(self, name):
        """Type of field ``name``, or None."""
        try:
            i = self.field_names.index(name)
        except ValueError:
            return None
        return self.field_types[i]


class ScalarSubtypeBehavior(_TypeBehavior):
    """Range-constrained scalar subtype, optionally resolved (bus
    resolution function on signal subtypes)."""

    __slots__ = ()
    kind = "subtype"

    def base(self):
        return self.base_type.base()

    def is_scalar(self):
        return True

    def is_discrete(self):
        return self.base().is_discrete()

    @property
    def effective_low(self):
        return self.low if self.low is not None else self.base().low

    @property
    def effective_high(self):
        return self.high if self.high is not None else self.base().high

    def image(self, value):
        return self.base().image(value)


# -- helpers over any type node ---------------------------------------------


def same_base(a, b):
    """VHDL type compatibility: identical base types."""
    return a is not None and b is not None and a.base() is b.base()


def is_array(vtype):
    return vtype is not None and getattr(vtype, "kind", None) == "array"


def is_record(vtype):
    return vtype is not None and getattr(vtype, "kind", None) == "record"


def is_numeric(vtype):
    return vtype is not None and vtype.base().kind in (
        "integer",
        "physical",
        "float",
    )


def is_discrete(vtype):
    return vtype is not None and vtype.is_discrete()


def is_scalar(vtype):
    return vtype is not None and vtype.is_scalar()


def element_type(vtype):
    """Element type of an array (sub)type, or None."""
    if is_array(vtype):
        return vtype.element_type
    return None


def scalar_bounds(vtype):
    """(low, high) of a scalar (sub)type."""
    base = vtype.base()
    if vtype.kind == "subtype":
        return vtype.effective_low, vtype.effective_high
    return base.low, base.high


def resolution_of(vtype):
    """The resolution-function entry on a (sub)type, or None."""
    if vtype is not None and vtype.kind == "subtype":
        return vtype.resolution
    return None


def describe(vtype):
    """Readable type name for diagnostics."""
    if vtype is None:
        return "<error-type>"
    name = getattr(vtype, "name", "")
    return name or "<anonymous %s>" % vtype.kind
