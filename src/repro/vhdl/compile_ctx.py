"""The compilation context threaded through the principal AG.

One :class:`CompileCtx` per compilation unit, carried by the ``CC``
inherited attribute class.  It bundles the services semantic rules
need: package STANDARD, the ``exprEval`` sub-evaluator (§4.1), the
design-library view for foreign references (§3.4), and a name supply
for generated Python identifiers.
"""

from .expr_grammar import ExprEvaluator
from .lef import mode_token
from .stdpkg import standard


class CompileCtx:
    """Per-unit compilation services."""

    def __init__(self, library=None, work="work", filename=None,
                 observer=None):
        self.std = standard()
        self.library = library  # a LibraryStaging view, or None
        self.work = work  # name of the working library
        #: the source file being compiled; stamped onto every unit at
        #: registration so post-compile tools (``repro lint``, runtime
        #: multi-driver errors) can anchor diagnostics to declarations
        self.filename = filename
        #: exprEval reports its firings to ``observer`` (the compiler's
        #: :class:`repro.diag.AGObserver`) too.  It resolves units
        #: through the library itself, not through this context, which
        #: would make context and evaluator a cycle.
        self.expr_eval = ExprEvaluator(
            self.std, library.find_unit if library is not None else None,
            observer)
        self._gensym = 0
        #: set by the unit productions as they learn what they compile
        self.unit_name = "?"
        #: prefix for generated python names (packages use
        #: ``pkg_<name>_`` so cross-unit references are unambiguous)
        self.py_scope = ""

    def gensym(self, prefix):
        """A fresh generated-code identifier."""
        self._gensym += 1
        return "%s_%d" % (prefix, self._gensym)

    # -- exprEval entry points (the paper's single out-of-line function,
    # split by context flag) ------------------------------------------------

    def eval_expr(self, lef_tokens, env, line=0, expected=None):
        return self.expr_eval(
            list(lef_tokens), "M_EXPR", env, line=line, expected=expected,
            user_attrs=attrs_of(env))

    def eval_target(self, lef_tokens, env, line=0):
        return self.expr_eval(
            list(lef_tokens), "M_TARGET", env, line=line,
            user_attrs=attrs_of(env))

    def eval_range(self, lef_tokens, env, line=0):
        return self.expr_eval(
            list(lef_tokens), "M_RANGE", env, line=line,
            user_attrs=attrs_of(env))

    def eval_choice(self, lef_tokens, env, line=0, expected=None):
        return self.expr_eval(
            list(lef_tokens), "M_CHOICE", env, line=line,
            expected=expected, user_attrs=attrs_of(env))

    def eval_call(self, lef_tokens, env, line=0):
        return self.expr_eval(
            list(lef_tokens), "M_CALL", env, line=line,
            user_attrs=attrs_of(env))


#: The env key under which accumulated attribute specifications ride.
#: Attribute values are part of the environment so that their
#: availability follows declaration order, like any other binding.
ATTRS_KEY = "attribute specifications"


def attrs_of(env):
    """The accumulated AttributeValue tuple visible in ``env``."""
    result = env.lookup(ATTRS_KEY)
    if result.entries:
        return result.entries[0]
    return ()


def bind_attr_value(env, attr_value):
    """Extend ``env`` with one more attribute specification."""
    return env.bind(ATTRS_KEY, attrs_of(env) + (attr_value,))
