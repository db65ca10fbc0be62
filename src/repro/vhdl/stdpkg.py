"""Package STANDARD and library STD.

The predefined language environment every VHDL compilation unit sees:
BOOLEAN, BIT, CHARACTER, SEVERITY_LEVEL, INTEGER, REAL, TIME (with its
units), NATURAL, POSITIVE, STRING, BIT_VECTOR, and the predefined
function NOW.  Built once, written into an in-memory ``std`` library
VIF so that every other unit's references to these nodes serialize as
foreign references — exactly how user packages behave.
"""

from ..sim import TIME_UNITS
from ..vif.io import VIFWriter
from ..vif.nodes import (
    ArrayType,
    EnumLiteralEntry,
    EnumType,
    FloatType,
    IntegerType,
    PackageUnit,
    PhysicalType,
    PhysicalUnitEntry,
    ScalarSubtype,
    SubprogramEntry,
)
from ..applicative import Env

#: Names of the 33 non-graphic CHARACTER positions 0..32 is graphic
#: space; VHDL'87 names positions 0..31 and 127.
_CONTROL_NAMES = [
    "nul", "soh", "stx", "etx", "eot", "enq", "ack", "bel",
    "bs", "ht", "lf", "vt", "ff", "cr", "so", "si",
    "dle", "dc1", "dc2", "dc3", "dc4", "nak", "syn", "etb",
    "can", "em", "sub", "esc", "fsp", "gsp", "rsp", "usp",
]


def _character_literals():
    """The 128 CHARACTER literal names, position = ASCII code."""
    names = list(_CONTROL_NAMES)
    for code in range(32, 127):
        names.append("'%c'" % chr(code))
    names.append("del")
    return names


class StandardPackage:
    """The constructed STANDARD package and its environment."""

    def __init__(self):
        self.boolean = EnumType(name="boolean", literals=["false", "true"])
        self.bit = EnumType(name="bit", literals=["'0'", "'1'"])
        self.character = EnumType(
            name="character", literals=_character_literals()
        )
        self.severity_level = EnumType(
            name="severity_level",
            literals=["note", "warning", "error", "failure"],
        )
        self.integer = IntegerType(
            name="integer", low=-(2**31) + 1, high=2**31 - 1
        )
        self.real = FloatType(name="real", low=-1e38, high=1e38)
        self.time = PhysicalType(
            name="time",
            low=-(2**62),
            high=2**62,
            units=[list(u) for u in TIME_UNITS],
        )
        self.natural = ScalarSubtype(
            name="natural", base_type=self.integer, low=0, high=None
        )
        self.positive = ScalarSubtype(
            name="positive", base_type=self.integer, low=1, high=None
        )
        self.string = ArrayType(
            name="string",
            index_type=self.positive,
            element_type=self.character,
            index_range=None,
        )
        self.bit_vector = ArrayType(
            name="bit_vector",
            index_type=self.natural,
            element_type=self.bit,
            index_range=None,
        )
        self.now_fn = SubprogramEntry(
            name="now",
            sub_kind="function",
            params=[],
            result=self.time,
            py="rt.now",
            predefined_op="now",
            pure=True,
        )
        self.types = [
            self.boolean,
            self.bit,
            self.character,
            self.severity_level,
            self.integer,
            self.real,
            self.time,
            self.natural,
            self.positive,
            self.string,
            self.bit_vector,
        ]
        self._build_literals()
        self._build_units()
        self.package = PackageUnit(
            name="standard",
            decls=(
                self.types
                + self.literal_entries
                + self.unit_entries
                + [self.now_fn]
            ),
        )
        #: In-memory VIF payload for the std library.
        writer = VIFWriter("std", "standard")
        self.payload = writer.write({"unit": self.package})
        #: Nodes in VIF id order, for seeding readers so foreign
        #: references into STANDARD resolve to these singleton objects
        #: (type checking is identity-based).
        self.node_table = writer.node_table

    def _build_literals(self):
        self.literal_entries = []
        for etype in (
            self.boolean,
            self.bit,
            self.character,
            self.severity_level,
        ):
            for pos, lit in enumerate(etype.literals):
                self.literal_entries.append(
                    EnumLiteralEntry(name=lit, etype=etype, position=pos)
                )

    def _build_units(self):
        self.unit_entries = [
            PhysicalUnitEntry(name=unit, ptype=self.time, scale=scale)
            for unit, scale in TIME_UNITS
        ]

    def environment(self):
        """An Env with every STANDARD declaration directly visible
        (the implicit context of all compilation units)."""
        env = Env.EMPTY
        for t in self.types:
            env = env.bind(t.name, t)
        for lit in self.literal_entries:
            env = env.bind(lit.name, lit, overloadable=True)
        for u in self.unit_entries:
            env = env.bind(u.name, u)
        env = env.bind("now", self.now_fn, overloadable=True)
        return env


_STANDARD = None


def standard():
    """The singleton STANDARD package."""
    global _STANDARD
    if _STANDARD is None:
        _STANDARD = StandardPackage()
    return _STANDARD
