"""Provides the generated VIF node classes.

The declarative schema (``schema.vif``) is processed by the schema AG
and the generator into a node-declaration/manipulation module — the
Python analog of the C the paper's VIF program generated.  That module
is generated once and committed as :mod:`repro.vif._generated`
(``python -m repro.regen`` rewrites it); this module imports it on
first use and re-exports its classes (``from repro.vif.nodes import
EnumType, ...``).  When the committed module is missing, or records
another schema text, the source is generated and executed in memory
instead.

:func:`generated_source` runs the schema AG and the generator afresh,
so benchmark E1 can count generated lines exactly as Figure 2 does and
the tests can check the committed module against its generator.
"""

import os
from importlib import import_module

from .core import schema_crc32

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "schema.vif")

#: Where the generated module is committed.
GENERATED_PATH = os.path.join(os.path.dirname(__file__), "_generated.py")

_SOURCE = None
_NAMESPACE = None


def schema_text():
    """The declarative schema source text."""
    with open(SCHEMA_PATH) as f:
        return f.read()


def generated_source():
    """The node-module source, generated from the schema (cached)."""
    global _SOURCE
    if _SOURCE is None:
        from .generator import generate_from_text

        _SOURCE = generate_from_text(schema_text(), SCHEMA_PATH)
    return _SOURCE


def _committed():
    """The committed module's namespace, or ``None`` when it is missing
    or records another schema text."""
    name = __package__ + "._generated"
    try:
        _generated = import_module(name)
    except ModuleNotFoundError as exc:
        if exc.name != name:
            raise
        return None
    if getattr(_generated, "SCHEMA_CRC32", None) \
            != schema_crc32(schema_text()):
        return None
    return vars(_generated)


def _load():
    # Loaded on first use, not at module load: the generated module
    # imports behavior mixins from repro.vhdl, which imports this one.
    global _NAMESPACE
    if _NAMESPACE is None:
        namespace = _committed()
        if namespace is None:
            namespace = {"__name__": __package__ + "._generated"}
            exec(compile(generated_source(), "<vif generated>", "exec"),
                 namespace)
        _NAMESPACE = namespace
    return _NAMESPACE


def registry():
    """Kind -> (class, new, write, read, dump) for every node kind."""
    return _load()["REGISTRY"]


def node_class(kind):
    """The generated class for one node kind."""
    return registry()[kind][0]


def __getattr__(name):
    """Module-level attribute access resolves generated classes, so
    ``from repro.vif.nodes import EnumType`` works naturally."""
    ns = _load()
    if name in ns:
        return ns[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
