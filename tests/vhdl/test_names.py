"""The generated-name rule (:mod:`repro.vhdl.names`), as properties.

Parts are drawn from the VHDL basic-identifier grammar, biased toward
the shapes earlier naming schemes made up (``x_l10``, ``proc_l7``,
``guard_b``, ``pkg_a``, ``op_plus``, ``c_b``), which a source could
spell and so once met a generated name."""

import keyword

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ag.errors import LexError
from repro.vhdl import names as N
from repro.vhdl.lexer import KEYWORDS, scan

OLD_SHAPES = ["x_l10", "i_l10", "proc_l7", "cassign_l6", "guard_b",
              "guard", "pkg_a", "pkg_a_c", "a_c", "op_plus", "plus",
              "c_b", "s_x", "b", "b1", "pkg", "f_f_l5", "l_i", "p", "o"]

#: Operator symbols a function may designate, as the grammar passes
#: them (quoted, lower case).
OPERATORS = ['"%s"' % op for op in (
    "+", "-", "*", "/", "&", "=", "/=", "<", "<=", ">", ">=", "**",
    "and", "or", "nand", "nor", "xor", "not", "abs", "mod", "rem")]

#: A reserved word matches the regex but is no identifier a source can
#: declare, so it is drawn out.
identifiers = st.one_of(
    st.sampled_from(OLD_SHAPES),
    st.from_regex(r"[a-z](_?[a-z0-9]){0,5}", fullmatch=True).filter(
        lambda name: name not in KEYWORDS))
implicit_labels = st.builds(
    N.implicit_label, st.sampled_from(
        ["proc", "cassign", "sassign", "cassert", "u", "blk"]),
    st.integers(1, 30))
labels = st.one_of(identifiers, implicit_labels)
scopes = st.lists(st.one_of(
    st.tuples(st.just("package"), identifiers),
    st.tuples(st.just("block"), labels)), max_size=3).map(tuple)
ordinals = st.integers(0, 3)

#: One declaration: an object's, or a subprogram's (whose designator
#: may be an operator symbol).
declarations = st.one_of(
    st.tuples(st.just("object"), scopes,
              st.sampled_from(sorted(set(N.KIND) - {"function",
                                                     "operator"})),
              identifiers, ordinals),
    st.tuples(st.just("subprogram"), scopes, st.just("function"),
              st.one_of(identifiers, st.sampled_from(OPERATORS)),
              ordinals))


def python_name(decl):
    what, scope, kind, name, ordinal = decl
    if what == "subprogram":
        return N.subprogram(scope, name, ordinal)
    return N.declared(scope, kind, name, ordinal)


def is_basic_identifier(text):
    try:
        tokens = scan(text)
    except LexError:
        return False
    return [t.kind for t in tokens] == ["ID"]


@settings(max_examples=100)
@given(identifiers)
def test_drawn_identifiers_are_vhdl_basic_identifiers(name):
    assert is_basic_identifier(name)


@settings(max_examples=300)
@given(st.lists(declarations, min_size=2, max_size=8, unique=True))
def test_distinct_declarations_get_distinct_names(decls):
    assert len({python_name(d) for d in decls}) == len(decls)


@settings(max_examples=100)
@given(declarations)
def test_every_name_is_a_python_identifier(decl):
    name = python_name(decl)
    assert name.isidentifier() and not keyword.iskeyword(name)


@settings(max_examples=100)
@given(implicit_labels)
def test_implicit_labels_are_not_vhdl_labels(label):
    assert not is_basic_identifier(label)
    assert (N.PROCESS_FUNCTION % label).isidentifier()


def test_guard_is_named_by_its_blocks():
    scope = (("block", "o1"), ("block", "b"))
    assert N.guard_signal(scope) == ("b_o1__b_b__s_guard", "o1:b.guard")
    assert N.declared((), "signal", "guard_b") != N.guard_signal(
        (("block", "b"),))[0]


CLASHES = """
package pk is
  signal ps, pt : integer := 0;
end pk;
entity e is end e;
architecture a of e is
  signal x, y : integer := 0;
  constant k : integer := 3;
  signal z : integer := k;
begin
  p : process begin wait; end process;
end a;
"""


def _colliding(monkeypatch, pairs):
    """Make :func:`repro.vhdl.names.declared` name each ``(kind, name)``
    of ``pairs`` as the declaration it maps to."""
    declared = N.declared

    def colliding(scope, kind, name, ordinal=0):
        kind, name = pairs.get((kind, name), (kind, name))
        return declared(scope, kind, name, ordinal)
    monkeypatch.setattr(N, "declared", colliding)


def _messages(source):
    from repro.vhdl.compiler import Compiler

    compiler = Compiler()
    result = compiler.compile(source)
    return result, compiler


def test_two_signals_on_one_python_name_are_an_internal_error(
        monkeypatch):
    _colliding(monkeypatch, {("signal", "y"): ("signal", "x"),
                             ("signal", "pt"): ("signal", "ps")})
    result, compiler = _messages(CLASHES)
    assert result.messages == [
        "internal: the model of package pk binds the Python name "
        "'pkg_pk__s_ps' twice",
        "internal: the model of architecture a of e binds the Python "
        "name 's_x' twice"]
    assert not result.ok and compiler.library.units_of("work") == []


def test_a_signal_and_a_constant_on_one_name_are_an_internal_error(
        monkeypatch):
    _colliding(monkeypatch, {("constant", "k"): ("signal", "z")})
    result, _ = _messages(CLASHES)
    assert result.messages == [
        "internal: the model of architecture a of e binds the Python "
        "name 's_z' twice"]


def test_names_apart_compile():
    result, _ = _messages(CLASHES)
    assert result.ok, result.messages
