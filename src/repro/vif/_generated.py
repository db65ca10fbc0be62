"""VIF node declarations and access functions.

GENERATED by repro.vif.generator from the declarative schema — do not
edit.  Regenerate with ``python -m repro.regen``.
"""

from repro.vif.core import Field, Node

SCHEMA_CRC32 = 0xbcb226d9
from repro.vhdl.vtypes import EnumTypeBehavior as _mixin_EnumTypeBehavior
from repro.vhdl.vtypes import IntegerTypeBehavior as _mixin_IntegerTypeBehavior
from repro.vhdl.vtypes import PhysicalTypeBehavior as _mixin_PhysicalTypeBehavior
from repro.vhdl.vtypes import FloatTypeBehavior as _mixin_FloatTypeBehavior
from repro.vhdl.vtypes import IndexRangeBehavior as _mixin_IndexRangeBehavior
from repro.vhdl.vtypes import ArrayTypeBehavior as _mixin_ArrayTypeBehavior
from repro.vhdl.vtypes import ArraySubtypeBehavior as _mixin_ArraySubtypeBehavior
from repro.vhdl.vtypes import RecordTypeBehavior as _mixin_RecordTypeBehavior
from repro.vhdl.vtypes import ScalarSubtypeBehavior as _mixin_ScalarSubtypeBehavior
from repro.vhdl.symtab import ObjectEntryBehavior as _mixin_ObjectEntryBehavior
from repro.vhdl.symtab import EnumLiteralEntryBehavior as _mixin_EnumLiteralEntryBehavior
from repro.vhdl.symtab import ParamEntryBehavior as _mixin_ParamEntryBehavior
from repro.vhdl.symtab import PhysicalUnitEntryBehavior as _mixin_PhysicalUnitEntryBehavior
from repro.vhdl.symtab import SubprogramEntryBehavior as _mixin_SubprogramEntryBehavior
from repro.vhdl.symtab import AliasEntryBehavior as _mixin_AliasEntryBehavior
from repro.vhdl.symtab import AttributeDeclEntryBehavior as _mixin_AttributeDeclEntryBehavior
from repro.vhdl.symtab import AttributeValueBehavior as _mixin_AttributeValueBehavior
from repro.vhdl.symtab import ComponentEntryBehavior as _mixin_ComponentEntryBehavior
from repro.vhdl.symtab import EntityUnitBehavior as _mixin_EntityUnitBehavior
from repro.vhdl.symtab import ArchUnitBehavior as _mixin_ArchUnitBehavior
from repro.vhdl.symtab import InstanceEntryBehavior as _mixin_InstanceEntryBehavior
from repro.vhdl.symtab import PackageUnitBehavior as _mixin_PackageUnitBehavior
from repro.vhdl.symtab import PackageBodyUnitBehavior as _mixin_PackageBodyUnitBehavior
from repro.vhdl.symtab import ConfigUnitBehavior as _mixin_ConfigUnitBehavior

class EnumType(_mixin_EnumTypeBehavior, Node):
    """VIF node kind 'EnumType'."""

    __slots__ = ('name', 'literals')
    VIF_KIND = 'EnumType'
    VIF_FIELDS = (Field('name', 'str'), Field('literals', 'data'))

    def __init__(self, name='', literals=None):
        self._vif_home = None
        self.name = name
        self.literals = literals
        if hasattr(self, '_post_init'):
            self._post_init()

def new_EnumType(**fields):
    """Allocate a EnumType node."""
    return EnumType(**fields)

def write_EnumType(node, encode):
    """Encode the fields of a EnumType node."""
    return {
        'name': encode(node.name, 'str'),
        'literals': encode(node.literals, 'data'),
    }

def read_EnumType(node, data, decode):
    """Fill a blank EnumType node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.literals = decode(data.get('literals'), 'data')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_EnumType(node, show):
    """Human-readable (field, text) pairs for a EnumType node."""
    return [
        ('name', show(node.name, 'str')),
        ('literals', show(node.literals, 'data')),
    ]

class IntegerType(_mixin_IntegerTypeBehavior, Node):
    """VIF node kind 'IntegerType'."""

    __slots__ = ('name', 'low', 'high')
    VIF_KIND = 'IntegerType'
    VIF_FIELDS = (Field('name', 'str'), Field('low', 'int'), Field('high', 'int'))

    def __init__(self, name='', low=0, high=0):
        self._vif_home = None
        self.name = name
        self.low = low
        self.high = high
        if hasattr(self, '_post_init'):
            self._post_init()

def new_IntegerType(**fields):
    """Allocate a IntegerType node."""
    return IntegerType(**fields)

def write_IntegerType(node, encode):
    """Encode the fields of a IntegerType node."""
    return {
        'name': encode(node.name, 'str'),
        'low': encode(node.low, 'int'),
        'high': encode(node.high, 'int'),
    }

def read_IntegerType(node, data, decode):
    """Fill a blank IntegerType node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.low = decode(data.get('low'), 'int')
    node.high = decode(data.get('high'), 'int')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_IntegerType(node, show):
    """Human-readable (field, text) pairs for a IntegerType node."""
    return [
        ('name', show(node.name, 'str')),
        ('low', show(node.low, 'int')),
        ('high', show(node.high, 'int')),
    ]

class PhysicalType(_mixin_PhysicalTypeBehavior, Node):
    """VIF node kind 'PhysicalType'."""

    __slots__ = ('name', 'low', 'high', 'units')
    VIF_KIND = 'PhysicalType'
    VIF_FIELDS = (Field('name', 'str'), Field('low', 'int'), Field('high', 'int'), Field('units', 'data'))

    def __init__(self, name='', low=0, high=0, units=None):
        self._vif_home = None
        self.name = name
        self.low = low
        self.high = high
        self.units = units
        if hasattr(self, '_post_init'):
            self._post_init()

def new_PhysicalType(**fields):
    """Allocate a PhysicalType node."""
    return PhysicalType(**fields)

def write_PhysicalType(node, encode):
    """Encode the fields of a PhysicalType node."""
    return {
        'name': encode(node.name, 'str'),
        'low': encode(node.low, 'int'),
        'high': encode(node.high, 'int'),
        'units': encode(node.units, 'data'),
    }

def read_PhysicalType(node, data, decode):
    """Fill a blank PhysicalType node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.low = decode(data.get('low'), 'int')
    node.high = decode(data.get('high'), 'int')
    node.units = decode(data.get('units'), 'data')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_PhysicalType(node, show):
    """Human-readable (field, text) pairs for a PhysicalType node."""
    return [
        ('name', show(node.name, 'str')),
        ('low', show(node.low, 'int')),
        ('high', show(node.high, 'int')),
        ('units', show(node.units, 'data')),
    ]

class FloatType(_mixin_FloatTypeBehavior, Node):
    """VIF node kind 'FloatType'."""

    __slots__ = ('name', 'low', 'high')
    VIF_KIND = 'FloatType'
    VIF_FIELDS = (Field('name', 'str'), Field('low', 'float'), Field('high', 'float'))

    def __init__(self, name='', low=0.0, high=0.0):
        self._vif_home = None
        self.name = name
        self.low = low
        self.high = high
        if hasattr(self, '_post_init'):
            self._post_init()

def new_FloatType(**fields):
    """Allocate a FloatType node."""
    return FloatType(**fields)

def write_FloatType(node, encode):
    """Encode the fields of a FloatType node."""
    return {
        'name': encode(node.name, 'str'),
        'low': encode(node.low, 'float'),
        'high': encode(node.high, 'float'),
    }

def read_FloatType(node, data, decode):
    """Fill a blank FloatType node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.low = decode(data.get('low'), 'float')
    node.high = decode(data.get('high'), 'float')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_FloatType(node, show):
    """Human-readable (field, text) pairs for a FloatType node."""
    return [
        ('name', show(node.name, 'str')),
        ('low', show(node.low, 'float')),
        ('high', show(node.high, 'float')),
    ]

class IndexRange(_mixin_IndexRangeBehavior, Node):
    """VIF node kind 'IndexRange'."""

    __slots__ = ('left', 'direction', 'right')
    VIF_KIND = 'IndexRange'
    VIF_FIELDS = (Field('left', 'data'), Field('direction', 'str'), Field('right', 'data'))

    def __init__(self, left=None, direction='', right=None):
        self._vif_home = None
        self.left = left
        self.direction = direction
        self.right = right
        if hasattr(self, '_post_init'):
            self._post_init()

def new_IndexRange(**fields):
    """Allocate a IndexRange node."""
    return IndexRange(**fields)

def write_IndexRange(node, encode):
    """Encode the fields of a IndexRange node."""
    return {
        'left': encode(node.left, 'data'),
        'direction': encode(node.direction, 'str'),
        'right': encode(node.right, 'data'),
    }

def read_IndexRange(node, data, decode):
    """Fill a blank IndexRange node from encoded fields."""
    node.left = decode(data.get('left'), 'data')
    node.direction = decode(data.get('direction'), 'str')
    node.right = decode(data.get('right'), 'data')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_IndexRange(node, show):
    """Human-readable (field, text) pairs for a IndexRange node."""
    return [
        ('left', show(node.left, 'data')),
        ('direction', show(node.direction, 'str')),
        ('right', show(node.right, 'data')),
    ]

class ArrayType(_mixin_ArrayTypeBehavior, Node):
    """VIF node kind 'ArrayType'."""

    __slots__ = ('name', 'index_type', 'element_type', 'index_range')
    VIF_KIND = 'ArrayType'
    VIF_FIELDS = (Field('name', 'str'), Field('index_type', 'ref'), Field('element_type', 'ref'), Field('index_range', 'ref'))

    def __init__(self, name='', index_type=None, element_type=None, index_range=None):
        self._vif_home = None
        self.name = name
        self.index_type = index_type
        self.element_type = element_type
        self.index_range = index_range
        if hasattr(self, '_post_init'):
            self._post_init()

def new_ArrayType(**fields):
    """Allocate a ArrayType node."""
    return ArrayType(**fields)

def write_ArrayType(node, encode):
    """Encode the fields of a ArrayType node."""
    return {
        'name': encode(node.name, 'str'),
        'index_type': encode(node.index_type, 'ref'),
        'element_type': encode(node.element_type, 'ref'),
        'index_range': encode(node.index_range, 'ref'),
    }

def read_ArrayType(node, data, decode):
    """Fill a blank ArrayType node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.index_type = decode(data.get('index_type'), 'ref')
    node.element_type = decode(data.get('element_type'), 'ref')
    node.index_range = decode(data.get('index_range'), 'ref')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_ArrayType(node, show):
    """Human-readable (field, text) pairs for a ArrayType node."""
    return [
        ('name', show(node.name, 'str')),
        ('index_type', show(node.index_type, 'ref')),
        ('element_type', show(node.element_type, 'ref')),
        ('index_range', show(node.index_range, 'ref')),
    ]

class ArraySubtype(_mixin_ArraySubtypeBehavior, Node):
    """VIF node kind 'ArraySubtype'."""

    __slots__ = ('name', 'base_type', 'index_range')
    VIF_KIND = 'ArraySubtype'
    VIF_FIELDS = (Field('name', 'str'), Field('base_type', 'ref'), Field('index_range', 'ref'))

    def __init__(self, name='', base_type=None, index_range=None):
        self._vif_home = None
        self.name = name
        self.base_type = base_type
        self.index_range = index_range
        if hasattr(self, '_post_init'):
            self._post_init()

def new_ArraySubtype(**fields):
    """Allocate a ArraySubtype node."""
    return ArraySubtype(**fields)

def write_ArraySubtype(node, encode):
    """Encode the fields of a ArraySubtype node."""
    return {
        'name': encode(node.name, 'str'),
        'base_type': encode(node.base_type, 'ref'),
        'index_range': encode(node.index_range, 'ref'),
    }

def read_ArraySubtype(node, data, decode):
    """Fill a blank ArraySubtype node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.base_type = decode(data.get('base_type'), 'ref')
    node.index_range = decode(data.get('index_range'), 'ref')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_ArraySubtype(node, show):
    """Human-readable (field, text) pairs for a ArraySubtype node."""
    return [
        ('name', show(node.name, 'str')),
        ('base_type', show(node.base_type, 'ref')),
        ('index_range', show(node.index_range, 'ref')),
    ]

class RecordType(_mixin_RecordTypeBehavior, Node):
    """VIF node kind 'RecordType'."""

    __slots__ = ('name', 'field_names', 'field_types')
    VIF_KIND = 'RecordType'
    VIF_FIELDS = (Field('name', 'str'), Field('field_names', 'data'), Field('field_types', 'list'))

    def __init__(self, name='', field_names=None, field_types=None):
        self._vif_home = None
        self.name = name
        self.field_names = field_names
        self.field_types = list(field_types) if field_types is not None else []
        if hasattr(self, '_post_init'):
            self._post_init()

def new_RecordType(**fields):
    """Allocate a RecordType node."""
    return RecordType(**fields)

def write_RecordType(node, encode):
    """Encode the fields of a RecordType node."""
    return {
        'name': encode(node.name, 'str'),
        'field_names': encode(node.field_names, 'data'),
        'field_types': encode(node.field_types, 'list'),
    }

def read_RecordType(node, data, decode):
    """Fill a blank RecordType node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.field_names = decode(data.get('field_names'), 'data')
    node.field_types = decode(data.get('field_types'), 'list')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_RecordType(node, show):
    """Human-readable (field, text) pairs for a RecordType node."""
    return [
        ('name', show(node.name, 'str')),
        ('field_names', show(node.field_names, 'data')),
        ('field_types', show(node.field_types, 'list')),
    ]

class ScalarSubtype(_mixin_ScalarSubtypeBehavior, Node):
    """VIF node kind 'ScalarSubtype'."""

    __slots__ = ('name', 'base_type', 'low', 'high', 'resolution')
    VIF_KIND = 'ScalarSubtype'
    VIF_FIELDS = (Field('name', 'str'), Field('base_type', 'ref'), Field('low', 'data'), Field('high', 'data'), Field('resolution', 'ref'))

    def __init__(self, name='', base_type=None, low=None, high=None, resolution=None):
        self._vif_home = None
        self.name = name
        self.base_type = base_type
        self.low = low
        self.high = high
        self.resolution = resolution
        if hasattr(self, '_post_init'):
            self._post_init()

def new_ScalarSubtype(**fields):
    """Allocate a ScalarSubtype node."""
    return ScalarSubtype(**fields)

def write_ScalarSubtype(node, encode):
    """Encode the fields of a ScalarSubtype node."""
    return {
        'name': encode(node.name, 'str'),
        'base_type': encode(node.base_type, 'ref'),
        'low': encode(node.low, 'data'),
        'high': encode(node.high, 'data'),
        'resolution': encode(node.resolution, 'ref'),
    }

def read_ScalarSubtype(node, data, decode):
    """Fill a blank ScalarSubtype node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.base_type = decode(data.get('base_type'), 'ref')
    node.low = decode(data.get('low'), 'data')
    node.high = decode(data.get('high'), 'data')
    node.resolution = decode(data.get('resolution'), 'ref')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_ScalarSubtype(node, show):
    """Human-readable (field, text) pairs for a ScalarSubtype node."""
    return [
        ('name', show(node.name, 'str')),
        ('base_type', show(node.base_type, 'ref')),
        ('low', show(node.low, 'data')),
        ('high', show(node.high, 'data')),
        ('resolution', show(node.resolution, 'ref')),
    ]

class ObjectEntry(_mixin_ObjectEntryBehavior, Node):
    """VIF node kind 'ObjectEntry'."""

    __slots__ = ('name', 'obj_class', 'mode', 'vtype', 'py', 'value', 'has_value', 'signal_kind', 'line')
    VIF_KIND = 'ObjectEntry'
    VIF_FIELDS = (Field('name', 'str'), Field('obj_class', 'str'), Field('mode', 'str'), Field('vtype', 'ref'), Field('py', 'str'), Field('value', 'data'), Field('has_value', 'bool'), Field('signal_kind', 'str'), Field('line', 'int'))

    def __init__(self, name='', obj_class='', mode='', vtype=None, py='', value=None, has_value=False, signal_kind='', line=0):
        self._vif_home = None
        self.name = name
        self.obj_class = obj_class
        self.mode = mode
        self.vtype = vtype
        self.py = py
        self.value = value
        self.has_value = has_value
        self.signal_kind = signal_kind
        self.line = line
        if hasattr(self, '_post_init'):
            self._post_init()

def new_ObjectEntry(**fields):
    """Allocate a ObjectEntry node."""
    return ObjectEntry(**fields)

def write_ObjectEntry(node, encode):
    """Encode the fields of a ObjectEntry node."""
    return {
        'name': encode(node.name, 'str'),
        'obj_class': encode(node.obj_class, 'str'),
        'mode': encode(node.mode, 'str'),
        'vtype': encode(node.vtype, 'ref'),
        'py': encode(node.py, 'str'),
        'value': encode(node.value, 'data'),
        'has_value': encode(node.has_value, 'bool'),
        'signal_kind': encode(node.signal_kind, 'str'),
        'line': encode(node.line, 'int'),
    }

def read_ObjectEntry(node, data, decode):
    """Fill a blank ObjectEntry node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.obj_class = decode(data.get('obj_class'), 'str')
    node.mode = decode(data.get('mode'), 'str')
    node.vtype = decode(data.get('vtype'), 'ref')
    node.py = decode(data.get('py'), 'str')
    node.value = decode(data.get('value'), 'data')
    node.has_value = decode(data.get('has_value'), 'bool')
    node.signal_kind = decode(data.get('signal_kind'), 'str')
    node.line = decode(data.get('line'), 'int')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_ObjectEntry(node, show):
    """Human-readable (field, text) pairs for a ObjectEntry node."""
    return [
        ('name', show(node.name, 'str')),
        ('obj_class', show(node.obj_class, 'str')),
        ('mode', show(node.mode, 'str')),
        ('vtype', show(node.vtype, 'ref')),
        ('py', show(node.py, 'str')),
        ('value', show(node.value, 'data')),
        ('has_value', show(node.has_value, 'bool')),
        ('signal_kind', show(node.signal_kind, 'str')),
        ('line', show(node.line, 'int')),
    ]

class EnumLiteralEntry(_mixin_EnumLiteralEntryBehavior, Node):
    """VIF node kind 'EnumLiteralEntry'."""

    __slots__ = ('name', 'etype', 'position')
    VIF_KIND = 'EnumLiteralEntry'
    VIF_FIELDS = (Field('name', 'str'), Field('etype', 'ref'), Field('position', 'int'))

    def __init__(self, name='', etype=None, position=0):
        self._vif_home = None
        self.name = name
        self.etype = etype
        self.position = position
        if hasattr(self, '_post_init'):
            self._post_init()

def new_EnumLiteralEntry(**fields):
    """Allocate a EnumLiteralEntry node."""
    return EnumLiteralEntry(**fields)

def write_EnumLiteralEntry(node, encode):
    """Encode the fields of a EnumLiteralEntry node."""
    return {
        'name': encode(node.name, 'str'),
        'etype': encode(node.etype, 'ref'),
        'position': encode(node.position, 'int'),
    }

def read_EnumLiteralEntry(node, data, decode):
    """Fill a blank EnumLiteralEntry node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.etype = decode(data.get('etype'), 'ref')
    node.position = decode(data.get('position'), 'int')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_EnumLiteralEntry(node, show):
    """Human-readable (field, text) pairs for a EnumLiteralEntry node."""
    return [
        ('name', show(node.name, 'str')),
        ('etype', show(node.etype, 'ref')),
        ('position', show(node.position, 'int')),
    ]

class ParamEntry(_mixin_ParamEntryBehavior, Node):
    """VIF node kind 'ParamEntry'."""

    __slots__ = ('name', 'obj_class', 'mode', 'vtype', 'default', 'has_default')
    VIF_KIND = 'ParamEntry'
    VIF_FIELDS = (Field('name', 'str'), Field('obj_class', 'str'), Field('mode', 'str'), Field('vtype', 'ref'), Field('default', 'data'), Field('has_default', 'bool'))

    def __init__(self, name='', obj_class='', mode='', vtype=None, default=None, has_default=False):
        self._vif_home = None
        self.name = name
        self.obj_class = obj_class
        self.mode = mode
        self.vtype = vtype
        self.default = default
        self.has_default = has_default
        if hasattr(self, '_post_init'):
            self._post_init()

def new_ParamEntry(**fields):
    """Allocate a ParamEntry node."""
    return ParamEntry(**fields)

def write_ParamEntry(node, encode):
    """Encode the fields of a ParamEntry node."""
    return {
        'name': encode(node.name, 'str'),
        'obj_class': encode(node.obj_class, 'str'),
        'mode': encode(node.mode, 'str'),
        'vtype': encode(node.vtype, 'ref'),
        'default': encode(node.default, 'data'),
        'has_default': encode(node.has_default, 'bool'),
    }

def read_ParamEntry(node, data, decode):
    """Fill a blank ParamEntry node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.obj_class = decode(data.get('obj_class'), 'str')
    node.mode = decode(data.get('mode'), 'str')
    node.vtype = decode(data.get('vtype'), 'ref')
    node.default = decode(data.get('default'), 'data')
    node.has_default = decode(data.get('has_default'), 'bool')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_ParamEntry(node, show):
    """Human-readable (field, text) pairs for a ParamEntry node."""
    return [
        ('name', show(node.name, 'str')),
        ('obj_class', show(node.obj_class, 'str')),
        ('mode', show(node.mode, 'str')),
        ('vtype', show(node.vtype, 'ref')),
        ('default', show(node.default, 'data')),
        ('has_default', show(node.has_default, 'bool')),
    ]

class PhysicalUnitEntry(_mixin_PhysicalUnitEntryBehavior, Node):
    """VIF node kind 'PhysicalUnitEntry'."""

    __slots__ = ('name', 'ptype', 'scale')
    VIF_KIND = 'PhysicalUnitEntry'
    VIF_FIELDS = (Field('name', 'str'), Field('ptype', 'ref'), Field('scale', 'int'))

    def __init__(self, name='', ptype=None, scale=0):
        self._vif_home = None
        self.name = name
        self.ptype = ptype
        self.scale = scale
        if hasattr(self, '_post_init'):
            self._post_init()

def new_PhysicalUnitEntry(**fields):
    """Allocate a PhysicalUnitEntry node."""
    return PhysicalUnitEntry(**fields)

def write_PhysicalUnitEntry(node, encode):
    """Encode the fields of a PhysicalUnitEntry node."""
    return {
        'name': encode(node.name, 'str'),
        'ptype': encode(node.ptype, 'ref'),
        'scale': encode(node.scale, 'int'),
    }

def read_PhysicalUnitEntry(node, data, decode):
    """Fill a blank PhysicalUnitEntry node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.ptype = decode(data.get('ptype'), 'ref')
    node.scale = decode(data.get('scale'), 'int')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_PhysicalUnitEntry(node, show):
    """Human-readable (field, text) pairs for a PhysicalUnitEntry node."""
    return [
        ('name', show(node.name, 'str')),
        ('ptype', show(node.ptype, 'ref')),
        ('scale', show(node.scale, 'int')),
    ]

class SubprogramEntry(_mixin_SubprogramEntryBehavior, Node):
    """VIF node kind 'SubprogramEntry'."""

    __slots__ = ('name', 'sub_kind', 'params', 'result', 'py', 'predefined_op', 'pure', 'line', 'drives', 'reads')
    VIF_KIND = 'SubprogramEntry'
    VIF_FIELDS = (Field('name', 'str'), Field('sub_kind', 'str'), Field('params', 'list'), Field('result', 'ref'), Field('py', 'str'), Field('predefined_op', 'str'), Field('pure', 'bool'), Field('line', 'int'), Field('drives', 'data'), Field('reads', 'data'))

    def __init__(self, name='', sub_kind='', params=None, result=None, py='', predefined_op='', pure=False, line=0, drives=None, reads=None):
        self._vif_home = None
        self.name = name
        self.sub_kind = sub_kind
        self.params = list(params) if params is not None else []
        self.result = result
        self.py = py
        self.predefined_op = predefined_op
        self.pure = pure
        self.line = line
        self.drives = drives
        self.reads = reads
        if hasattr(self, '_post_init'):
            self._post_init()

def new_SubprogramEntry(**fields):
    """Allocate a SubprogramEntry node."""
    return SubprogramEntry(**fields)

def write_SubprogramEntry(node, encode):
    """Encode the fields of a SubprogramEntry node."""
    return {
        'name': encode(node.name, 'str'),
        'sub_kind': encode(node.sub_kind, 'str'),
        'params': encode(node.params, 'list'),
        'result': encode(node.result, 'ref'),
        'py': encode(node.py, 'str'),
        'predefined_op': encode(node.predefined_op, 'str'),
        'pure': encode(node.pure, 'bool'),
        'line': encode(node.line, 'int'),
        'drives': encode(node.drives, 'data'),
        'reads': encode(node.reads, 'data'),
    }

def read_SubprogramEntry(node, data, decode):
    """Fill a blank SubprogramEntry node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.sub_kind = decode(data.get('sub_kind'), 'str')
    node.params = decode(data.get('params'), 'list')
    node.result = decode(data.get('result'), 'ref')
    node.py = decode(data.get('py'), 'str')
    node.predefined_op = decode(data.get('predefined_op'), 'str')
    node.pure = decode(data.get('pure'), 'bool')
    node.line = decode(data.get('line'), 'int')
    node.drives = decode(data.get('drives'), 'data')
    node.reads = decode(data.get('reads'), 'data')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_SubprogramEntry(node, show):
    """Human-readable (field, text) pairs for a SubprogramEntry node."""
    return [
        ('name', show(node.name, 'str')),
        ('sub_kind', show(node.sub_kind, 'str')),
        ('params', show(node.params, 'list')),
        ('result', show(node.result, 'ref')),
        ('py', show(node.py, 'str')),
        ('predefined_op', show(node.predefined_op, 'str')),
        ('pure', show(node.pure, 'bool')),
        ('line', show(node.line, 'int')),
        ('drives', show(node.drives, 'data')),
        ('reads', show(node.reads, 'data')),
    ]

class AliasEntry(_mixin_AliasEntryBehavior, Node):
    """VIF node kind 'AliasEntry'."""

    __slots__ = ('name', 'target', 'vtype')
    VIF_KIND = 'AliasEntry'
    VIF_FIELDS = (Field('name', 'str'), Field('target', 'ref'), Field('vtype', 'ref'))

    def __init__(self, name='', target=None, vtype=None):
        self._vif_home = None
        self.name = name
        self.target = target
        self.vtype = vtype
        if hasattr(self, '_post_init'):
            self._post_init()

def new_AliasEntry(**fields):
    """Allocate a AliasEntry node."""
    return AliasEntry(**fields)

def write_AliasEntry(node, encode):
    """Encode the fields of a AliasEntry node."""
    return {
        'name': encode(node.name, 'str'),
        'target': encode(node.target, 'ref'),
        'vtype': encode(node.vtype, 'ref'),
    }

def read_AliasEntry(node, data, decode):
    """Fill a blank AliasEntry node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.target = decode(data.get('target'), 'ref')
    node.vtype = decode(data.get('vtype'), 'ref')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_AliasEntry(node, show):
    """Human-readable (field, text) pairs for a AliasEntry node."""
    return [
        ('name', show(node.name, 'str')),
        ('target', show(node.target, 'ref')),
        ('vtype', show(node.vtype, 'ref')),
    ]

class AttributeDeclEntry(_mixin_AttributeDeclEntryBehavior, Node):
    """VIF node kind 'AttributeDeclEntry'."""

    __slots__ = ('name', 'vtype')
    VIF_KIND = 'AttributeDeclEntry'
    VIF_FIELDS = (Field('name', 'str'), Field('vtype', 'ref'))

    def __init__(self, name='', vtype=None):
        self._vif_home = None
        self.name = name
        self.vtype = vtype
        if hasattr(self, '_post_init'):
            self._post_init()

def new_AttributeDeclEntry(**fields):
    """Allocate a AttributeDeclEntry node."""
    return AttributeDeclEntry(**fields)

def write_AttributeDeclEntry(node, encode):
    """Encode the fields of a AttributeDeclEntry node."""
    return {
        'name': encode(node.name, 'str'),
        'vtype': encode(node.vtype, 'ref'),
    }

def read_AttributeDeclEntry(node, data, decode):
    """Fill a blank AttributeDeclEntry node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.vtype = decode(data.get('vtype'), 'ref')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_AttributeDeclEntry(node, show):
    """Human-readable (field, text) pairs for a AttributeDeclEntry node."""
    return [
        ('name', show(node.name, 'str')),
        ('vtype', show(node.vtype, 'ref')),
    ]

class AttributeValue(_mixin_AttributeValueBehavior, Node):
    """VIF node kind 'AttributeValue'."""

    __slots__ = ('attr', 'target', 'value')
    VIF_KIND = 'AttributeValue'
    VIF_FIELDS = (Field('attr', 'ref'), Field('target', 'ref'), Field('value', 'data'))

    def __init__(self, attr=None, target=None, value=None):
        self._vif_home = None
        self.attr = attr
        self.target = target
        self.value = value
        if hasattr(self, '_post_init'):
            self._post_init()

def new_AttributeValue(**fields):
    """Allocate a AttributeValue node."""
    return AttributeValue(**fields)

def write_AttributeValue(node, encode):
    """Encode the fields of a AttributeValue node."""
    return {
        'attr': encode(node.attr, 'ref'),
        'target': encode(node.target, 'ref'),
        'value': encode(node.value, 'data'),
    }

def read_AttributeValue(node, data, decode):
    """Fill a blank AttributeValue node from encoded fields."""
    node.attr = decode(data.get('attr'), 'ref')
    node.target = decode(data.get('target'), 'ref')
    node.value = decode(data.get('value'), 'data')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_AttributeValue(node, show):
    """Human-readable (field, text) pairs for a AttributeValue node."""
    return [
        ('attr', show(node.attr, 'ref')),
        ('target', show(node.target, 'ref')),
        ('value', show(node.value, 'data')),
    ]

class ComponentEntry(_mixin_ComponentEntryBehavior, Node):
    """VIF node kind 'ComponentEntry'."""

    __slots__ = ('name', 'generics', 'ports', 'line')
    VIF_KIND = 'ComponentEntry'
    VIF_FIELDS = (Field('name', 'str'), Field('generics', 'list'), Field('ports', 'list'), Field('line', 'int'))

    def __init__(self, name='', generics=None, ports=None, line=0):
        self._vif_home = None
        self.name = name
        self.generics = list(generics) if generics is not None else []
        self.ports = list(ports) if ports is not None else []
        self.line = line
        if hasattr(self, '_post_init'):
            self._post_init()

def new_ComponentEntry(**fields):
    """Allocate a ComponentEntry node."""
    return ComponentEntry(**fields)

def write_ComponentEntry(node, encode):
    """Encode the fields of a ComponentEntry node."""
    return {
        'name': encode(node.name, 'str'),
        'generics': encode(node.generics, 'list'),
        'ports': encode(node.ports, 'list'),
        'line': encode(node.line, 'int'),
    }

def read_ComponentEntry(node, data, decode):
    """Fill a blank ComponentEntry node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.generics = decode(data.get('generics'), 'list')
    node.ports = decode(data.get('ports'), 'list')
    node.line = decode(data.get('line'), 'int')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_ComponentEntry(node, show):
    """Human-readable (field, text) pairs for a ComponentEntry node."""
    return [
        ('name', show(node.name, 'str')),
        ('generics', show(node.generics, 'list')),
        ('ports', show(node.ports, 'list')),
        ('line', show(node.line, 'int')),
    ]

class EntityUnit(_mixin_EntityUnitBehavior, Node):
    """VIF node kind 'EntityUnit'."""

    __slots__ = ('name', 'generics', 'ports', 'decls', 'user_attrs', 'context', 'py_source', 'line', 'source_file')
    VIF_KIND = 'EntityUnit'
    VIF_FIELDS = (Field('name', 'str'), Field('generics', 'list'), Field('ports', 'list'), Field('decls', 'list'), Field('user_attrs', 'list'), Field('context', 'data'), Field('py_source', 'str'), Field('line', 'int'), Field('source_file', 'str'))

    def __init__(self, name='', generics=None, ports=None, decls=None, user_attrs=None, context=None, py_source='', line=0, source_file=''):
        self._vif_home = None
        self.name = name
        self.generics = list(generics) if generics is not None else []
        self.ports = list(ports) if ports is not None else []
        self.decls = list(decls) if decls is not None else []
        self.user_attrs = list(user_attrs) if user_attrs is not None else []
        self.context = context
        self.py_source = py_source
        self.line = line
        self.source_file = source_file
        if hasattr(self, '_post_init'):
            self._post_init()

def new_EntityUnit(**fields):
    """Allocate a EntityUnit node."""
    return EntityUnit(**fields)

def write_EntityUnit(node, encode):
    """Encode the fields of a EntityUnit node."""
    return {
        'name': encode(node.name, 'str'),
        'generics': encode(node.generics, 'list'),
        'ports': encode(node.ports, 'list'),
        'decls': encode(node.decls, 'list'),
        'user_attrs': encode(node.user_attrs, 'list'),
        'context': encode(node.context, 'data'),
        'py_source': encode(node.py_source, 'str'),
        'line': encode(node.line, 'int'),
        'source_file': encode(node.source_file, 'str'),
    }

def read_EntityUnit(node, data, decode):
    """Fill a blank EntityUnit node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.generics = decode(data.get('generics'), 'list')
    node.ports = decode(data.get('ports'), 'list')
    node.decls = decode(data.get('decls'), 'list')
    node.user_attrs = decode(data.get('user_attrs'), 'list')
    node.context = decode(data.get('context'), 'data')
    node.py_source = decode(data.get('py_source'), 'str')
    node.line = decode(data.get('line'), 'int')
    node.source_file = decode(data.get('source_file'), 'str')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_EntityUnit(node, show):
    """Human-readable (field, text) pairs for a EntityUnit node."""
    return [
        ('name', show(node.name, 'str')),
        ('generics', show(node.generics, 'list')),
        ('ports', show(node.ports, 'list')),
        ('decls', show(node.decls, 'list')),
        ('user_attrs', show(node.user_attrs, 'list')),
        ('context', show(node.context, 'data')),
        ('py_source', show(node.py_source, 'str')),
        ('line', show(node.line, 'int')),
        ('source_file', show(node.source_file, 'str')),
    ]

class ArchUnit(_mixin_ArchUnitBehavior, Node):
    """VIF node kind 'ArchUnit'."""

    __slots__ = ('name', 'entity_name', 'entity', 'decls', 'instances', 'user_attrs', 'processes', 'block_signals', 'slot_forms', 'rows', 'py_source', 'line', 'source_file')
    VIF_KIND = 'ArchUnit'
    VIF_FIELDS = (Field('name', 'str'), Field('entity_name', 'str'), Field('entity', 'ref'), Field('decls', 'list'), Field('instances', 'list'), Field('user_attrs', 'list'), Field('processes', 'data'), Field('block_signals', 'data'), Field('slot_forms', 'data'), Field('rows', 'data'), Field('py_source', 'str'), Field('line', 'int'), Field('source_file', 'str'))

    def __init__(self, name='', entity_name='', entity=None, decls=None, instances=None, user_attrs=None, processes=None, block_signals=None, slot_forms=None, rows=None, py_source='', line=0, source_file=''):
        self._vif_home = None
        self.name = name
        self.entity_name = entity_name
        self.entity = entity
        self.decls = list(decls) if decls is not None else []
        self.instances = list(instances) if instances is not None else []
        self.user_attrs = list(user_attrs) if user_attrs is not None else []
        self.processes = processes
        self.block_signals = block_signals
        self.slot_forms = slot_forms
        self.rows = rows
        self.py_source = py_source
        self.line = line
        self.source_file = source_file
        if hasattr(self, '_post_init'):
            self._post_init()

def new_ArchUnit(**fields):
    """Allocate a ArchUnit node."""
    return ArchUnit(**fields)

def write_ArchUnit(node, encode):
    """Encode the fields of a ArchUnit node."""
    return {
        'name': encode(node.name, 'str'),
        'entity_name': encode(node.entity_name, 'str'),
        'entity': encode(node.entity, 'ref'),
        'decls': encode(node.decls, 'list'),
        'instances': encode(node.instances, 'list'),
        'user_attrs': encode(node.user_attrs, 'list'),
        'processes': encode(node.processes, 'data'),
        'block_signals': encode(node.block_signals, 'data'),
        'slot_forms': encode(node.slot_forms, 'data'),
        'rows': encode(node.rows, 'data'),
        'py_source': encode(node.py_source, 'str'),
        'line': encode(node.line, 'int'),
        'source_file': encode(node.source_file, 'str'),
    }

def read_ArchUnit(node, data, decode):
    """Fill a blank ArchUnit node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.entity_name = decode(data.get('entity_name'), 'str')
    node.entity = decode(data.get('entity'), 'ref')
    node.decls = decode(data.get('decls'), 'list')
    node.instances = decode(data.get('instances'), 'list')
    node.user_attrs = decode(data.get('user_attrs'), 'list')
    node.processes = decode(data.get('processes'), 'data')
    node.block_signals = decode(data.get('block_signals'), 'data')
    node.slot_forms = decode(data.get('slot_forms'), 'data')
    node.rows = decode(data.get('rows'), 'data')
    node.py_source = decode(data.get('py_source'), 'str')
    node.line = decode(data.get('line'), 'int')
    node.source_file = decode(data.get('source_file'), 'str')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_ArchUnit(node, show):
    """Human-readable (field, text) pairs for a ArchUnit node."""
    return [
        ('name', show(node.name, 'str')),
        ('entity_name', show(node.entity_name, 'str')),
        ('entity', show(node.entity, 'ref')),
        ('decls', show(node.decls, 'list')),
        ('instances', show(node.instances, 'list')),
        ('user_attrs', show(node.user_attrs, 'list')),
        ('processes', show(node.processes, 'data')),
        ('block_signals', show(node.block_signals, 'data')),
        ('slot_forms', show(node.slot_forms, 'data')),
        ('rows', show(node.rows, 'data')),
        ('py_source', show(node.py_source, 'str')),
        ('line', show(node.line, 'int')),
        ('source_file', show(node.source_file, 'str')),
    ]

class InstanceEntry(_mixin_InstanceEntryBehavior, Node):
    """VIF node kind 'InstanceEntry'."""

    __slots__ = ('label', 'component', 'bound_library', 'bound_entity', 'bound_arch', 'connections')
    VIF_KIND = 'InstanceEntry'
    VIF_FIELDS = (Field('label', 'str'), Field('component', 'ref'), Field('bound_library', 'str'), Field('bound_entity', 'str'), Field('bound_arch', 'str'), Field('connections', 'data'))

    def __init__(self, label='', component=None, bound_library='', bound_entity='', bound_arch='', connections=None):
        self._vif_home = None
        self.label = label
        self.component = component
        self.bound_library = bound_library
        self.bound_entity = bound_entity
        self.bound_arch = bound_arch
        self.connections = connections
        if hasattr(self, '_post_init'):
            self._post_init()

def new_InstanceEntry(**fields):
    """Allocate a InstanceEntry node."""
    return InstanceEntry(**fields)

def write_InstanceEntry(node, encode):
    """Encode the fields of a InstanceEntry node."""
    return {
        'label': encode(node.label, 'str'),
        'component': encode(node.component, 'ref'),
        'bound_library': encode(node.bound_library, 'str'),
        'bound_entity': encode(node.bound_entity, 'str'),
        'bound_arch': encode(node.bound_arch, 'str'),
        'connections': encode(node.connections, 'data'),
    }

def read_InstanceEntry(node, data, decode):
    """Fill a blank InstanceEntry node from encoded fields."""
    node.label = decode(data.get('label'), 'str')
    node.component = decode(data.get('component'), 'ref')
    node.bound_library = decode(data.get('bound_library'), 'str')
    node.bound_entity = decode(data.get('bound_entity'), 'str')
    node.bound_arch = decode(data.get('bound_arch'), 'str')
    node.connections = decode(data.get('connections'), 'data')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_InstanceEntry(node, show):
    """Human-readable (field, text) pairs for a InstanceEntry node."""
    return [
        ('label', show(node.label, 'str')),
        ('component', show(node.component, 'ref')),
        ('bound_library', show(node.bound_library, 'str')),
        ('bound_entity', show(node.bound_entity, 'str')),
        ('bound_arch', show(node.bound_arch, 'str')),
        ('connections', show(node.connections, 'data')),
    ]

class PackageUnit(_mixin_PackageUnitBehavior, Node):
    """VIF node kind 'PackageUnit'."""

    __slots__ = ('name', 'decls', 'user_attrs', 'context', 'rows', 'py_source', 'line', 'source_file')
    VIF_KIND = 'PackageUnit'
    VIF_FIELDS = (Field('name', 'str'), Field('decls', 'list'), Field('user_attrs', 'list'), Field('context', 'data'), Field('rows', 'data'), Field('py_source', 'str'), Field('line', 'int'), Field('source_file', 'str'))

    def __init__(self, name='', decls=None, user_attrs=None, context=None, rows=None, py_source='', line=0, source_file=''):
        self._vif_home = None
        self.name = name
        self.decls = list(decls) if decls is not None else []
        self.user_attrs = list(user_attrs) if user_attrs is not None else []
        self.context = context
        self.rows = rows
        self.py_source = py_source
        self.line = line
        self.source_file = source_file
        if hasattr(self, '_post_init'):
            self._post_init()

def new_PackageUnit(**fields):
    """Allocate a PackageUnit node."""
    return PackageUnit(**fields)

def write_PackageUnit(node, encode):
    """Encode the fields of a PackageUnit node."""
    return {
        'name': encode(node.name, 'str'),
        'decls': encode(node.decls, 'list'),
        'user_attrs': encode(node.user_attrs, 'list'),
        'context': encode(node.context, 'data'),
        'rows': encode(node.rows, 'data'),
        'py_source': encode(node.py_source, 'str'),
        'line': encode(node.line, 'int'),
        'source_file': encode(node.source_file, 'str'),
    }

def read_PackageUnit(node, data, decode):
    """Fill a blank PackageUnit node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.decls = decode(data.get('decls'), 'list')
    node.user_attrs = decode(data.get('user_attrs'), 'list')
    node.context = decode(data.get('context'), 'data')
    node.rows = decode(data.get('rows'), 'data')
    node.py_source = decode(data.get('py_source'), 'str')
    node.line = decode(data.get('line'), 'int')
    node.source_file = decode(data.get('source_file'), 'str')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_PackageUnit(node, show):
    """Human-readable (field, text) pairs for a PackageUnit node."""
    return [
        ('name', show(node.name, 'str')),
        ('decls', show(node.decls, 'list')),
        ('user_attrs', show(node.user_attrs, 'list')),
        ('context', show(node.context, 'data')),
        ('rows', show(node.rows, 'data')),
        ('py_source', show(node.py_source, 'str')),
        ('line', show(node.line, 'int')),
        ('source_file', show(node.source_file, 'str')),
    ]

class PackageBodyUnit(_mixin_PackageBodyUnitBehavior, Node):
    """VIF node kind 'PackageBodyUnit'."""

    __slots__ = ('name', 'decls', 'rows', 'py_source', 'line', 'source_file')
    VIF_KIND = 'PackageBodyUnit'
    VIF_FIELDS = (Field('name', 'str'), Field('decls', 'list'), Field('rows', 'data'), Field('py_source', 'str'), Field('line', 'int'), Field('source_file', 'str'))

    def __init__(self, name='', decls=None, rows=None, py_source='', line=0, source_file=''):
        self._vif_home = None
        self.name = name
        self.decls = list(decls) if decls is not None else []
        self.rows = rows
        self.py_source = py_source
        self.line = line
        self.source_file = source_file
        if hasattr(self, '_post_init'):
            self._post_init()

def new_PackageBodyUnit(**fields):
    """Allocate a PackageBodyUnit node."""
    return PackageBodyUnit(**fields)

def write_PackageBodyUnit(node, encode):
    """Encode the fields of a PackageBodyUnit node."""
    return {
        'name': encode(node.name, 'str'),
        'decls': encode(node.decls, 'list'),
        'rows': encode(node.rows, 'data'),
        'py_source': encode(node.py_source, 'str'),
        'line': encode(node.line, 'int'),
        'source_file': encode(node.source_file, 'str'),
    }

def read_PackageBodyUnit(node, data, decode):
    """Fill a blank PackageBodyUnit node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.decls = decode(data.get('decls'), 'list')
    node.rows = decode(data.get('rows'), 'data')
    node.py_source = decode(data.get('py_source'), 'str')
    node.line = decode(data.get('line'), 'int')
    node.source_file = decode(data.get('source_file'), 'str')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_PackageBodyUnit(node, show):
    """Human-readable (field, text) pairs for a PackageBodyUnit node."""
    return [
        ('name', show(node.name, 'str')),
        ('decls', show(node.decls, 'list')),
        ('rows', show(node.rows, 'data')),
        ('py_source', show(node.py_source, 'str')),
        ('line', show(node.line, 'int')),
        ('source_file', show(node.source_file, 'str')),
    ]

class ConfigUnit(_mixin_ConfigUnitBehavior, Node):
    """VIF node kind 'ConfigUnit'."""

    __slots__ = ('name', 'entity_name', 'entity', 'bindings', 'py_source', 'line', 'source_file')
    VIF_KIND = 'ConfigUnit'
    VIF_FIELDS = (Field('name', 'str'), Field('entity_name', 'str'), Field('entity', 'ref'), Field('bindings', 'data'), Field('py_source', 'str'), Field('line', 'int'), Field('source_file', 'str'))

    def __init__(self, name='', entity_name='', entity=None, bindings=None, py_source='', line=0, source_file=''):
        self._vif_home = None
        self.name = name
        self.entity_name = entity_name
        self.entity = entity
        self.bindings = bindings
        self.py_source = py_source
        self.line = line
        self.source_file = source_file
        if hasattr(self, '_post_init'):
            self._post_init()

def new_ConfigUnit(**fields):
    """Allocate a ConfigUnit node."""
    return ConfigUnit(**fields)

def write_ConfigUnit(node, encode):
    """Encode the fields of a ConfigUnit node."""
    return {
        'name': encode(node.name, 'str'),
        'entity_name': encode(node.entity_name, 'str'),
        'entity': encode(node.entity, 'ref'),
        'bindings': encode(node.bindings, 'data'),
        'py_source': encode(node.py_source, 'str'),
        'line': encode(node.line, 'int'),
        'source_file': encode(node.source_file, 'str'),
    }

def read_ConfigUnit(node, data, decode):
    """Fill a blank ConfigUnit node from encoded fields."""
    node.name = decode(data.get('name'), 'str')
    node.entity_name = decode(data.get('entity_name'), 'str')
    node.entity = decode(data.get('entity'), 'ref')
    node.bindings = decode(data.get('bindings'), 'data')
    node.py_source = decode(data.get('py_source'), 'str')
    node.line = decode(data.get('line'), 'int')
    node.source_file = decode(data.get('source_file'), 'str')
    if hasattr(node, '_post_init'):
        node._post_init()
    return node

def dump_ConfigUnit(node, show):
    """Human-readable (field, text) pairs for a ConfigUnit node."""
    return [
        ('name', show(node.name, 'str')),
        ('entity_name', show(node.entity_name, 'str')),
        ('entity', show(node.entity, 'ref')),
        ('bindings', show(node.bindings, 'data')),
        ('py_source', show(node.py_source, 'str')),
        ('line', show(node.line, 'int')),
        ('source_file', show(node.source_file, 'str')),
    ]

REGISTRY = {
    'EnumType': (EnumType, new_EnumType, write_EnumType, read_EnumType, dump_EnumType),
    'IntegerType': (IntegerType, new_IntegerType, write_IntegerType, read_IntegerType, dump_IntegerType),
    'PhysicalType': (PhysicalType, new_PhysicalType, write_PhysicalType, read_PhysicalType, dump_PhysicalType),
    'FloatType': (FloatType, new_FloatType, write_FloatType, read_FloatType, dump_FloatType),
    'IndexRange': (IndexRange, new_IndexRange, write_IndexRange, read_IndexRange, dump_IndexRange),
    'ArrayType': (ArrayType, new_ArrayType, write_ArrayType, read_ArrayType, dump_ArrayType),
    'ArraySubtype': (ArraySubtype, new_ArraySubtype, write_ArraySubtype, read_ArraySubtype, dump_ArraySubtype),
    'RecordType': (RecordType, new_RecordType, write_RecordType, read_RecordType, dump_RecordType),
    'ScalarSubtype': (ScalarSubtype, new_ScalarSubtype, write_ScalarSubtype, read_ScalarSubtype, dump_ScalarSubtype),
    'ObjectEntry': (ObjectEntry, new_ObjectEntry, write_ObjectEntry, read_ObjectEntry, dump_ObjectEntry),
    'EnumLiteralEntry': (EnumLiteralEntry, new_EnumLiteralEntry, write_EnumLiteralEntry, read_EnumLiteralEntry, dump_EnumLiteralEntry),
    'ParamEntry': (ParamEntry, new_ParamEntry, write_ParamEntry, read_ParamEntry, dump_ParamEntry),
    'PhysicalUnitEntry': (PhysicalUnitEntry, new_PhysicalUnitEntry, write_PhysicalUnitEntry, read_PhysicalUnitEntry, dump_PhysicalUnitEntry),
    'SubprogramEntry': (SubprogramEntry, new_SubprogramEntry, write_SubprogramEntry, read_SubprogramEntry, dump_SubprogramEntry),
    'AliasEntry': (AliasEntry, new_AliasEntry, write_AliasEntry, read_AliasEntry, dump_AliasEntry),
    'AttributeDeclEntry': (AttributeDeclEntry, new_AttributeDeclEntry, write_AttributeDeclEntry, read_AttributeDeclEntry, dump_AttributeDeclEntry),
    'AttributeValue': (AttributeValue, new_AttributeValue, write_AttributeValue, read_AttributeValue, dump_AttributeValue),
    'ComponentEntry': (ComponentEntry, new_ComponentEntry, write_ComponentEntry, read_ComponentEntry, dump_ComponentEntry),
    'EntityUnit': (EntityUnit, new_EntityUnit, write_EntityUnit, read_EntityUnit, dump_EntityUnit),
    'ArchUnit': (ArchUnit, new_ArchUnit, write_ArchUnit, read_ArchUnit, dump_ArchUnit),
    'InstanceEntry': (InstanceEntry, new_InstanceEntry, write_InstanceEntry, read_InstanceEntry, dump_InstanceEntry),
    'PackageUnit': (PackageUnit, new_PackageUnit, write_PackageUnit, read_PackageUnit, dump_PackageUnit),
    'PackageBodyUnit': (PackageBodyUnit, new_PackageBodyUnit, write_PackageBodyUnit, read_PackageBodyUnit, dump_PackageBodyUnit),
    'ConfigUnit': (ConfigUnit, new_ConfigUnit, write_ConfigUnit, read_ConfigUnit, dump_ConfigUnit),
}
