"""The expression AG (§4.1) — the second of the two cascaded grammars.

Parses LEF token lists.  Because identifiers were already resolved by
the principal AG into distinct token kinds (OBJ / NAMESET / TYPEMARK /
...), the phrase structure built here differs for identical source
text: ``X (Y)`` parses through ``fcall`` when X is a subprogram,
through the indexing/slicing production on ``obj_name`` when X is an
object, and through ``conv`` when X is a type mark — the paper's
motivating example, realized syntactically rather than by semantic
dispatch on a *united* production.

A synthetic first token (``M_EXPR`` / ``M_TARGET`` / ``M_RANGE`` /
``M_CHOICE`` / ``M_CALL``) selects the goal phrase — the "flags
indicating the context in which this expression occurs" that exprEval
receives.
"""

import os

from ..ag import AGSpec, SYN, INH, SubEvaluator
from ..ag.lexer import Token

from . import expr_sem as sem
from .lef import LEF_KINDS, mode_token


def _binary(op_kind):
    def rule(left, right, ctx):
        return sem.binary_sem(op_kind, left, right, ctx, ctx.line)

    return rule


def _unary(op_kind):
    def rule(operand, ctx):
        return sem.unary_sem(op_kind, operand, ctx, ctx.line)

    return rule


def _call_or_items(prefix_entries, items, ctx, text):
    """NAMESET ( items ): a function call — or a pending procedure
    call when only procedures fit (finished by the M_CALL goal)."""
    from .symtab import entry_kind

    result = sem.resolve_call(prefix_entries, list(items), ctx,
                              ctx.line, text)
    if result.kind != "error":
        return result
    procs = [e for e in prefix_entries
             if entry_kind(e) == "subprogram" and not e.is_function]
    if procs:
        return sem.Sem(kind="call_items", entries=list(prefix_entries),
                       rng=tuple(items), code=text)
    return result


def _goal_call(s, ctx):
    if s.kind == "call_items":
        return sem.goal_call(
            sem.Sem(kind="nameset", entries=s.entries, code=s.code),
            list(s.rng), ctx)
    return sem.goal_call(s, [], ctx)


def _formal_of(choice_sems):
    """Extract a simple formal name from a one-element choice list."""
    if len(choice_sems) != 1:
        return None
    c = choice_sems[0]
    if c.kind == "rawid":
        return c.code
    if c.entry is not None and getattr(c.entry, "name", None):
        return c.entry.name
    return None


def _named_item(choices, value, ctx):
    expanded = []
    for c in choices:
        if c.kind == "range":
            expanded.append(c)
        else:
            expanded.append(c)
    return sem.Item("named", value=value, formal=_formal_of(choices),
                    choices=expanded, line=ctx.line)


#: The committed LALR(1) tables of the expression AG.
TABLES_FILE = os.path.join(os.path.dirname(__file__), "expr.lalr.json")


def expr_spec():
    """The expression AG specification, not yet finished."""
    g = AGSpec("vhdl_expr", tables_file=TABLES_FILE)
    g.terminals(*LEF_KINDS)
    g.terminals("UNARY")

    g.precedence("left", "AND", "OR", "NAND", "NOR", "XOR")
    g.precedence("left", "EQ", "NE", "LT", "LE", "GT", "GE")
    g.precedence("left", "PLUS", "MINUS", "AMP")
    g.precedence("left", "UNARY")
    g.precedence("left", "STAR", "SLASH", "MOD", "REM")
    g.precedence("nonassoc", "POW")
    g.precedence("left", "NOT", "ABS")

    g.attr_class("ENV", INH)
    g.attr_class("CTX", INH)
    g.attr_group("X", "ENV", "CTX")

    g.nonterminal("goal", ("GOAL", SYN), "X")
    for nt in ("e", "primary", "paren", "name", "base_name", "obj_name",
               "fcall", "conv", "qual", "tattr", "range_spec",
               "case_choice", "choice"):
        g.nonterminal(nt, ("SEM", SYN), "X")
    g.nonterminal("items", ("ITEMS", SYN), "X")
    g.nonterminal("choice_list", ("CHOICES", SYN), "X")
    g.set_start("goal")

    # ---- goals -----------------------------------------------------------

    p = g.production("g_expr", "goal -> M_EXPR e")
    p.rule("goal.GOAL", "e.SEM", "goal.CTX", fn=sem.goal_value)
    p = g.production("g_target", "goal -> M_TARGET name")
    p.rule("goal.GOAL", "name.SEM", "goal.CTX", fn=sem.goal_target)
    p = g.production("g_range", "goal -> M_RANGE range_spec")
    p.rule("goal.GOAL", "range_spec.SEM", "goal.CTX", fn=sem.goal_range)
    p = g.production("g_choice", "goal -> M_CHOICE case_choice")
    p.rule("goal.GOAL", "case_choice.SEM", "goal.CTX", fn=sem.goal_choice)
    p = g.production("g_call", "goal -> M_CALL name")
    p.rule("goal.GOAL", "name.SEM", "goal.CTX", fn=_goal_call)

    # ---- binary and unary operators ----------------------------------------

    binaries = [
        ("AND", "and"), ("OR", "or"), ("NAND", "nand"), ("NOR", "nor"),
        ("XOR", "xor"), ("EQ", "eq"), ("NE", "ne"), ("LT", "lt"),
        ("LE", "le"), ("GT", "gt"), ("GE", "ge"), ("PLUS", "add"),
        ("MINUS", "sub"), ("AMP", "amp"), ("STAR", "mul"),
        ("SLASH", "div"), ("MOD", "mod"), ("REM", "rem"), ("POW", "pow"),
    ]
    for term, tag in binaries:
        p = g.production("e_%s" % tag, "e -> e0 %s e1" % term)
        p.rule("e0.SEM", "e1.SEM", "e2.SEM", "e0.CTX", fn=_binary(term))
    p = g.production("e_not", "e -> NOT e0")
    p.rule("e0.SEM", "e1.SEM", "e0.CTX", fn=_unary("NOT"))
    p = g.production("e_abs", "e -> ABS e0")
    p.rule("e0.SEM", "e1.SEM", "e0.CTX", fn=_unary("ABS"))
    p = g.production("e_uminus", "e -> MINUS e0", prec="UNARY")
    p.rule("e0.SEM", "e1.SEM", "e0.CTX", fn=_unary("MINUS"))
    p = g.production("e_uplus", "e -> PLUS e0", prec="UNARY")
    p.rule("e0.SEM", "e1.SEM", "e0.CTX", fn=_unary("PLUS"))
    p = g.production("e_primary", "e -> primary")
    p.copy("e.SEM", "primary.SEM")

    # ---- primaries ------------------------------------------------------------

    p = g.production("p_name", "primary -> name")
    p.copy("primary.SEM", "name.SEM")
    p = g.production("p_int", "primary -> INT")
    p.rule("primary.SEM", "INT.value", "primary.CTX",
           fn=sem.int_literal_sem)
    p = g.production("p_real", "primary -> REAL")
    p.rule("primary.SEM", "REAL.value", "primary.CTX",
           fn=sem.int_literal_sem)
    p = g.production("p_phys_int", "primary -> INT UNIT")
    p.rule("primary.SEM", "INT.value", "UNIT.value", "INT.line",
           fn=sem.physical_literal_sem)
    p = g.production("p_phys_real", "primary -> REAL UNIT")
    p.rule("primary.SEM", "REAL.value", "UNIT.value", "REAL.line",
           fn=sem.physical_literal_sem)
    p = g.production("p_unit", "primary -> UNIT")
    p.rule("primary.SEM", "UNIT.value", "UNIT.line",
           fn=lambda u, line: sem.physical_literal_sem(1, u, line))
    p = g.production("p_str", "primary -> STR")
    p.rule("primary.SEM", "STR.value", "STR.line",
           fn=sem.string_literal_sem)
    p = g.production("p_bitstr", "primary -> BITSTR")
    p.rule("primary.SEM", "BITSTR.value", "BITSTR.line",
           fn=sem.bitstring_literal_sem)
    p = g.production("p_paren", "primary -> paren")
    p.copy("primary.SEM", "paren.SEM")

    p = g.production("paren_items", "paren -> LP items RP")
    p.rule("paren.SEM", "items.ITEMS", "paren.CTX", "LP.line",
           fn=lambda items, ctx, line: sem.paren_sem(
               list(items), ctx, ctx.line or line))

    # ---- names: the §4.1 phrase structures -----------------------------------

    p = g.production("n_obj", "name -> obj_name")
    p.copy("name.SEM", "obj_name.SEM")
    p = g.production("n_fcall", "name -> fcall")
    p.copy("name.SEM", "fcall.SEM")
    p = g.production("n_conv", "name -> conv")
    p.copy("name.SEM", "conv.SEM")
    p = g.production("n_qual", "name -> qual")
    p.copy("name.SEM", "qual.SEM")
    p = g.production("n_tattr", "name -> tattr")
    p.copy("name.SEM", "tattr.SEM")
    p = g.production("n_nameset", "name -> NAMESET")
    p.rule("name.SEM", "NAMESET.value", "NAMESET.text", "NAMESET.line",
           fn=sem.nameset_sem)
    p = g.production("n_typemark", "name -> TYPEMARK")
    p.rule("name.SEM", "TYPEMARK.value", fn=sem.typemark_sem)
    p = g.production("n_rawid", "name -> RAWID")
    p.rule("name.SEM", "RAWID.value", "RAWID.text", "RAWID.line",
           fn=lambda v, t, ln: sem.rawid_sem(Token("RAWID", t, v, ln)))

    p = g.production("b_obj", "base_name -> obj_name")
    p.copy("base_name.SEM", "obj_name.SEM")
    p = g.production("b_fcall", "base_name -> fcall")
    p.copy("base_name.SEM", "fcall.SEM")
    p = g.production("b_conv", "base_name -> conv")
    p.copy("base_name.SEM", "conv.SEM")
    p = g.production("b_qual", "base_name -> qual")
    p.copy("base_name.SEM", "qual.SEM")
    p = g.production("b_tattr", "base_name -> tattr")
    p.copy("base_name.SEM", "tattr.SEM")
    p = g.production("b_rawid", "base_name -> RAWID")
    p.rule("base_name.SEM", "RAWID.value", "RAWID.text", "RAWID.line",
           fn=lambda v, t, ln: sem.rawid_sem(Token("RAWID", t, v, ln)))

    p = g.production("o_obj", "obj_name -> OBJ")
    p.rule("obj_name.SEM", "OBJ.value", "obj_name.CTX",
           fn=lambda entry, ctx: sem.object_sem(entry, ctx))
    p = g.production("o_apply", "obj_name -> base_name LP items RP")
    p.rule("obj_name.SEM", "base_name.SEM", "items.ITEMS",
           "obj_name.CTX",
           fn=lambda pfx, items, ctx: sem.apply_items(
               pfx, list(items), ctx, ctx.line))
    p = g.production("o_select", "obj_name -> base_name DOT RAWID")
    p.rule("obj_name.SEM", "base_name.SEM", "RAWID.text",
           "obj_name.CTX",
           fn=lambda pfx, field, ctx: sem.selection_sem(
               pfx, field, ctx, ctx.line))
    p = g.production("o_attr", "obj_name -> base_name TICK RAWID")
    p.rule("obj_name.SEM", "base_name.SEM", "RAWID.text",
           "obj_name.CTX",
           fn=lambda pfx, attr, ctx: sem.attribute_sem(
               pfx, attr, ctx, ctx.line))

    # The call phrase structure: distinct because the prefix token is
    # NAMESET, not OBJ — "parsed according to the expression AG's
    # phrase-structure for a subprogram invocation".
    p = g.production("f_call", "fcall -> NAMESET LP items RP")
    p.rule("fcall.SEM", "NAMESET.value", "items.ITEMS", "fcall.CTX",
           "NAMESET.text", fn=_call_or_items)

    # The conversion phrase structure: prefix token is TYPEMARK.
    p = g.production("c_conv", "conv -> TYPEMARK LP e RP")
    p.rule("conv.SEM", "TYPEMARK.value", "e.SEM", "conv.CTX",
           fn=lambda t, operand, ctx: sem.conversion_sem(
               t, [sem.Item("pos", value=operand)], ctx, ctx.line))

    p = g.production("q_qual", "qual -> TYPEMARK TICK paren")
    p.rule("qual.SEM", "TYPEMARK.value", "paren.SEM", "qual.CTX",
           fn=lambda t, paren, ctx: sem.qualified_sem(
               t, paren, ctx, ctx.line))

    p = g.production("t_attr", "tattr -> TYPEMARK TICK RAWID")
    p.rule("tattr.SEM", "TYPEMARK.value", "RAWID.text", "tattr.CTX",
           fn=lambda t, attr, ctx: sem.attribute_sem(
               sem.typemark_sem(t), attr, ctx, ctx.line))

    # ---- item lists (arguments, aggregates, indexes, slices) ------------------

    g.nonterminal("item", ("ITEM", SYN), "X")
    p = g.production("items_one", "items -> item")
    p.rule("items.ITEMS", "item.ITEM", fn=lambda it: (it,))
    p = g.production("items_more", "items -> items0 COMMA item")
    p.rule("items0.ITEMS", "items1.ITEMS", "item.ITEM",
           fn=lambda items, it: items + (it,))

    p = g.production("item_pos", "item -> e")
    p.rule("item.ITEM", "e.SEM",
           fn=lambda s: sem.Item("pos", value=s))
    p = g.production("item_range_to", "item -> e0 TO e1")
    p.rule("item.ITEM", "e0.SEM", "e1.SEM", "item.CTX",
           fn=lambda l, r, ctx: sem.Item(
               "range", rng=sem.range_sem(l, "to", r, ctx, ctx.line).rng,
               value=None, line=ctx.line))
    p = g.production("item_range_downto", "item -> e0 DOWNTO e1")
    p.rule("item.ITEM", "e0.SEM", "e1.SEM", "item.CTX",
           fn=lambda l, r, ctx: sem.Item(
               "range",
               rng=sem.range_sem(l, "downto", r, ctx, ctx.line).rng,
               value=None, line=ctx.line))
    p = g.production("item_named", "item -> choice_list ARROW e")
    p.rule("item.ITEM", "choice_list.CHOICES", "e.SEM", "item.CTX",
           fn=_named_item)
    p = g.production("item_others", "item -> OTHERS ARROW e")
    p.rule("item.ITEM", "e.SEM",
           fn=lambda v: sem.Item("others", value=v))

    # ---- choices (aggregate keys, case alternatives) ---------------------------

    p = g.production("choices_one", "choice_list -> choice")
    p.rule("choice_list.CHOICES", "choice.SEM", fn=lambda c: (c,))
    p = g.production("choices_more", "choice_list -> choice_list0 BAR choice")
    p.rule("choice_list0.CHOICES", "choice_list1.CHOICES", "choice.SEM",
           fn=lambda cs, c: cs + (c,))
    p = g.production("choice_e", "choice -> e")
    p.copy("choice.SEM", "e.SEM")
    p = g.production("choice_to", "choice -> e0 TO e1")
    p.rule("choice.SEM", "e0.SEM", "e1.SEM", "choice.CTX",
           fn=lambda l, r, ctx: sem.range_sem(l, "to", r, ctx, ctx.line))
    p = g.production("choice_downto", "choice -> e0 DOWNTO e1")
    p.rule("choice.SEM", "e0.SEM", "e1.SEM", "choice.CTX",
           fn=lambda l, r, ctx: sem.range_sem(
               l, "downto", r, ctx, ctx.line))

    # ---- discrete ranges (M_RANGE) ------------------------------------------------

    p = g.production("r_single", "range_spec -> e")
    p.copy("range_spec.SEM", "e.SEM")
    p = g.production("r_to", "range_spec -> e0 TO e1")
    p.rule("range_spec.SEM", "e0.SEM", "e1.SEM", "range_spec.CTX",
           fn=lambda l, r, ctx: sem.range_sem(l, "to", r, ctx, ctx.line))
    p = g.production("r_downto", "range_spec -> e0 DOWNTO e1")
    p.rule("range_spec.SEM", "e0.SEM", "e1.SEM", "range_spec.CTX",
           fn=lambda l, r, ctx: sem.range_sem(
               l, "downto", r, ctx, ctx.line))
    p = g.production("r_mark_to", "range_spec -> e0 RANGEKW e1 TO e2")
    p.rule("range_spec.SEM", "e0.SEM", "e1.SEM", "e2.SEM",
           "range_spec.CTX", fn=_range_with_mark("to"))
    p = g.production("r_mark_downto",
                     "range_spec -> e0 RANGEKW e1 DOWNTO e2")
    p.rule("range_spec.SEM", "e0.SEM", "e1.SEM", "e2.SEM",
           "range_spec.CTX", fn=_range_with_mark("downto"))

    # ---- case choices (M_CHOICE) ----------------------------------------------------

    p = g.production("cc_e", "case_choice -> e")
    p.copy("case_choice.SEM", "e.SEM")
    p = g.production("cc_to", "case_choice -> e0 TO e1")
    p.rule("case_choice.SEM", "e0.SEM", "e1.SEM", "case_choice.CTX",
           fn=lambda l, r, ctx: sem.range_sem(l, "to", r, ctx, ctx.line))
    p = g.production("cc_downto", "case_choice -> e0 DOWNTO e1")
    p.rule("case_choice.SEM", "e0.SEM", "e1.SEM", "case_choice.CTX",
           fn=lambda l, r, ctx: sem.range_sem(
               l, "downto", r, ctx, ctx.line))
    p = g.production("cc_others", "case_choice -> OTHERS")
    p.rule("case_choice.SEM", fn=lambda: sem.Sem(kind="others"))

    return g


def _make_grammar():
    return expr_spec().finish()


def _range_with_mark(direction):
    def rule(mark, left, right, ctx):
        vtype = mark.type if mark.kind == "typemark" else None
        if vtype is not None:
            left = sem.force(left, vtype, ctx)
            right = sem.force(right, vtype, ctx)
        return sem.range_sem(left, direction, right, ctx, ctx.line)

    return rule


_GRAMMAR = None


def expr_grammar():
    """The compiled expression AG (built once per session, like the
    evaluator Linguist generates once per AG)."""
    global _GRAMMAR
    if _GRAMMAR is None:
        _GRAMMAR = _make_grammar()
    return _GRAMMAR


class ExprEvaluator:
    """The ``exprEval`` out-of-line function of §4.1.

    Wraps the generated expression evaluator behind a functional
    interface: takes a LEF token list plus the context arguments (the
    expected type, line, level, flags) and returns the goal attributes
    of the expression AG.
    """

    def __init__(self, std, unit_resolver=None, observer=None):
        self.sub = SubEvaluator(expr_grammar(), goals=["GOAL"],
                                observer=observer)
        self.std = std
        self.unit_resolver = unit_resolver

    @property
    def invocations(self):
        return self.sub.invocations

    def __call__(self, lef_tokens, mode, env, line=0, level=0,
                 expected=None, user_attrs=()):
        ctx = sem.Ctx(env=env, std=self.std, line=line, level=level,
                      expected=expected, unit_resolver=self.unit_resolver,
                      user_attrs=user_attrs)
        tokens = [mode_token(mode, line)] + list(lef_tokens)
        result = self.sub.try_call(
            tokens,
            inherited={"ENV": env, "CTX": ctx},
            on_error=lambda exc: {"GOAL": {
                "kind": "error", "ok": False, "code": "None",
                "type": None, "val": None, "has_val": False,
                "msgs": ["line %d: expression syntax: %s" % (line, exc)],
            }},
        )
        return result["GOAL"]
