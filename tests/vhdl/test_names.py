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
from repro.vhdl.lexer import scan

OLD_SHAPES = ["x_l10", "i_l10", "proc_l7", "cassign_l6", "guard_b",
              "guard", "pkg_a", "pkg_a_c", "a_c", "op_plus", "plus",
              "c_b", "s_x", "b", "b1", "pkg", "f_f_l5", "l_i", "p", "o"]

#: Operator symbols a function may designate, as the grammar passes
#: them (quoted, lower case).
OPERATORS = ['"%s"' % op for op in (
    "+", "-", "*", "/", "&", "=", "/=", "<", "<=", ">", ">=", "**",
    "and", "or", "nand", "nor", "xor", "not", "abs", "mod", "rem")]

identifiers = st.one_of(
    st.sampled_from(OLD_SHAPES),
    st.from_regex(r"[a-z](_?[a-z0-9]){0,5}", fullmatch=True))
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
