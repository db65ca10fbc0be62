"""Runtime support: values and the predefined VHDL operations.

"The runtime support functions perform all the predefined VHDL
operations."  Scalar runtime values are plain ints (enumeration
position, integer value, femtoseconds for TIME) or floats (REAL);
composites are :class:`VArray` and :class:`VRecord`.  The :data:`ops`
namespace is what generated code calls (``ops.add``, ``ops.concat``,
...); it is deliberately flat and stable because it is a *code
generation target*.
"""


class RuntimeError_(Exception):
    """A runtime check failed (range, index, resolution, assertion)."""


class VArray:
    """An array value: direction, bounds, and element list.

    Bounds travel with the value because VHDL objects of unconstrained
    array types take their constraint from their initial value or
    actual (§3.1's composite formals).  Immutable by convention — all
    ops build new arrays.
    """

    __slots__ = ("left", "direction", "right", "elems")

    def __init__(self, left, direction, right, elems):
        self.left = left
        self.direction = direction
        self.right = right
        self.elems = list(elems)

    @classmethod
    def from_list(cls, elems, left=0, direction="to"):
        n = len(elems)
        if direction == "to":
            right = left + n - 1
        else:
            right = left - n + 1
        return cls(left, direction, right, elems)

    def __len__(self):
        return len(self.elems)

    def offset(self, index):
        """Element position for VHDL index ``index`` (with check)."""
        if self.direction == "to":
            off = index - self.left
        else:
            off = self.left - index
        if not 0 <= off < len(self.elems):
            raise RuntimeError_(
                "index %r out of range %r %s %r"
                % (index, self.left, self.direction, self.right)
            )
        return off

    def __eq__(self, other):
        if isinstance(other, VArray):
            return self.elems == other.elems
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.elems))

    def __repr__(self):
        return "VArray(%r %s %r: %r)" % (
            self.left,
            self.direction,
            self.right,
            self.elems,
        )


class VRecord:
    """A record value: ordered field name -> value mapping."""

    __slots__ = ("fields",)

    def __init__(self, fields):
        self.fields = dict(fields)

    def __eq__(self, other):
        if isinstance(other, VRecord):
            return self.fields == other.fields
        return NotImplemented

    def __repr__(self):
        return "VRecord(%r)" % (self.fields,)


def _as_key(value):
    if isinstance(value, VArray):
        return tuple(value.elems)
    return value


class _Ops:
    """The predefined-operation namespace generated code targets."""

    # -- numeric ---------------------------------------------------------

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def div(a, b):
        if b == 0:
            raise RuntimeError_("division by zero")
        if isinstance(a, float) or isinstance(b, float):
            return a / b
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q

    @staticmethod
    def mod(a, b):
        # VHDL mod takes the sign of b, exactly like Python's %.
        if b == 0:
            raise RuntimeError_("mod by zero")
        return a % b

    @staticmethod
    def rem(a, b):
        if b == 0:
            raise RuntimeError_("rem by zero")
        return a - b * int(_Ops.div(a, b))

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def pos(a):
        return a

    @staticmethod
    def abs_(a):
        return abs(a)

    @staticmethod
    def pow_(a, b):
        if isinstance(a, int) and b < 0:
            raise RuntimeError_("negative exponent for integer **")
        return a**b

    # -- relational (arrays compare lexicographically) ----------------------

    @staticmethod
    def eq(a, b):
        return 1 if _as_key(a) == _as_key(b) else 0

    @staticmethod
    def ne(a, b):
        return 1 if _as_key(a) != _as_key(b) else 0

    @staticmethod
    def lt(a, b):
        return 1 if _as_key(a) < _as_key(b) else 0

    @staticmethod
    def le(a, b):
        return 1 if _as_key(a) <= _as_key(b) else 0

    @staticmethod
    def gt(a, b):
        return 1 if _as_key(a) > _as_key(b) else 0

    @staticmethod
    def ge(a, b):
        return 1 if _as_key(a) >= _as_key(b) else 0

    # -- logical (bit/boolean are 0/1; arrays apply elementwise) -----------

    @staticmethod
    def _logical(a, b, fn):
        if isinstance(a, VArray) or isinstance(b, VArray):
            if not (isinstance(a, VArray) and isinstance(b, VArray)):
                raise RuntimeError_("logical op on array and scalar")
            if len(a) != len(b):
                raise RuntimeError_(
                    "logical op on arrays of different lengths "
                    "(%d and %d)" % (len(a), len(b))
                )
            return VArray(
                a.left,
                a.direction,
                a.right,
                [fn(x, y) for x, y in zip(a.elems, b.elems)],
            )
        return fn(a, b)

    @staticmethod
    def and_(a, b):
        return _Ops._logical(a, b, lambda x, y: x & y)

    @staticmethod
    def or_(a, b):
        return _Ops._logical(a, b, lambda x, y: x | y)

    @staticmethod
    def xor(a, b):
        return _Ops._logical(a, b, lambda x, y: x ^ y)

    @staticmethod
    def nand(a, b):
        return _Ops._logical(a, b, lambda x, y: 1 - (x & y))

    @staticmethod
    def nor(a, b):
        return _Ops._logical(a, b, lambda x, y: 1 - (x | y))

    @staticmethod
    def not_(a):
        if isinstance(a, VArray):
            return VArray(
                a.left, a.direction, a.right, [1 - x for x in a.elems]
            )
        return 1 - a

    # -- arrays ------------------------------------------------------------

    @staticmethod
    def concat(a, b):
        """``&``: result index range starts at the left operand's left
        (VHDL'87 rule when the left operand is non-null)."""
        xs = a.elems if isinstance(a, VArray) else [a]
        ys = b.elems if isinstance(b, VArray) else [b]
        if isinstance(a, VArray) and len(a):
            return VArray.from_list(xs + ys, a.left, a.direction)
        if isinstance(b, VArray):
            return VArray.from_list(xs + ys, b.left, b.direction)
        return VArray.from_list(xs + ys)

    @staticmethod
    def index(arr, i):
        if not isinstance(arr, VArray):
            raise RuntimeError_("indexing a non-array value")
        return arr.elems[arr.offset(i)]

    @staticmethod
    def slice_(arr, left, direction, right):
        if not isinstance(arr, VArray):
            raise RuntimeError_("slicing a non-array value")
        if direction != arr.direction:
            raise RuntimeError_(
                "slice direction %s differs from array direction %s"
                % (direction, arr.direction)
            )
        if direction == "to":
            n = right - left + 1
        else:
            n = left - right + 1
        if n <= 0:
            return VArray(left, direction, right, [])
        lo = arr.offset(left)
        return VArray(left, direction, right, arr.elems[lo : lo + n])

    @staticmethod
    def array_update(arr, i, value):
        """A copy of ``arr`` with element ``i`` replaced (for indexed
        variable assignment targets)."""
        off = arr.offset(i)
        elems = list(arr.elems)
        elems[off] = value
        return VArray(arr.left, arr.direction, arr.right, elems)

    @staticmethod
    def slice_update(arr, left, direction, right, value):
        """A copy of ``arr`` with a slice replaced."""
        new = ops.slice_(arr, arr.left, arr.direction, arr.right)
        for k, i in enumerate(
            range(left, right + 1)
            if direction == "to"
            else range(left, right - 1, -1)
        ):
            new.elems[new.offset(i)] = value.elems[k]
        return new

    @staticmethod
    def rebound(arr, left, direction, right):
        """Renumber an array value to a target subtype's bounds (the
        implicit subtype conversion of VHDL assignment)."""
        if not isinstance(arr, VArray):
            raise RuntimeError_("array value expected")
        if direction == "to":
            n = right - left + 1
        else:
            n = left - right + 1
        if len(arr.elems) != max(n, 0):
            raise RuntimeError_(
                "array value of length %d assigned to a target of "
                "length %d" % (len(arr.elems), max(n, 0)))
        return VArray(left, direction, right, arr.elems)

    @staticmethod
    def fill(left, direction, right, value):
        """An array of the given bounds filled with ``value``."""
        if direction == "to":
            n = right - left + 1
        else:
            n = left - right + 1
        return VArray(left, direction, right, [value] * max(n, 0))

    @staticmethod
    def array_from(positional, left, direction, right=None, others=None):
        """Build an array value from aggregate pieces."""
        elems = list(positional)
        if right is None:
            if direction == "to":
                right = left + len(elems) - 1
            else:
                right = left - len(elems) + 1
        n = (right - left + 1) if direction == "to" else (left - right + 1)
        n = max(n, 0)
        if others is not None:
            while len(elems) < n:
                elems.append(others)
        if len(elems) != n:
            raise RuntimeError_(
                "aggregate has %d elements for a range of length %d"
                % (len(elems), n)
            )
        return VArray(left, direction, right, elems)

    @staticmethod
    def range_of(arr):
        """(left, direction, right) of an array value — 'RANGE."""
        return (arr.left, arr.direction, arr.right)

    @staticmethod
    def reverse_range_of(arr):
        d = "downto" if arr.direction == "to" else "to"
        return (arr.right, d, arr.left)

    @staticmethod
    def length(arr):
        return len(arr)

    # -- records ------------------------------------------------------------

    @staticmethod
    def field(rec, name):
        try:
            return rec.fields[name]
        except (AttributeError, KeyError):
            raise RuntimeError_("no record field %r" % name) from None

    @staticmethod
    def record_from(pairs):
        return VRecord(pairs)

    @staticmethod
    def record_update(rec, name, value):
        fields = dict(rec.fields)
        fields[name] = value
        return VRecord(fields)

    # -- checks and conversions ----------------------------------------------

    @staticmethod
    def check_range(value, low, high, what="value"):
        if not low <= value <= high:
            raise RuntimeError_(
                "%s %r out of range %r to %r" % (what, value, low, high)
            )
        return value

    @staticmethod
    def to_integer(x):
        return int(round(x)) if isinstance(x, float) else int(x)

    @staticmethod
    def to_float(x):
        return float(x)

    @staticmethod
    def iter_range(left, direction, right):
        """Loop iteration for ``for i in left {to|downto} right``."""
        if direction == "to":
            return range(left, right + 1)
        return range(left, right - 1, -1)

    # -- scalar attribute support ------------------------------------------------

    @staticmethod
    def succ(value, high):
        if value >= high:
            raise RuntimeError_("'SUCC past the end of the type")
        return value + 1

    @staticmethod
    def pred(value, low):
        if value <= low:
            raise RuntimeError_("'PRED past the start of the type")
        return value - 1


ops = _Ops()
