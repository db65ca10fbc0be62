"""The compilation context threaded through the principal AG.

One :class:`CompileCtx` per compilation unit, carried by the ``CC``
inherited attribute class.  It bundles the services semantic rules
need: package STANDARD, the ``exprEval`` sub-evaluator (§4.1) and the
design-library view for foreign references (§3.4).  No name supply:
names follow from scope paths and positions (:mod:`.names`).
"""

from .expr_grammar import ExprEvaluator
from .lef import mode_token
from .stdpkg import standard


def _entry(mode):
    """An exprEval entry point: the paper's single out-of-line
    function, with context flag ``mode``."""
    def run(self, lef_tokens, env, line=0, expected=None):
        return self.expr_eval(list(lef_tokens), mode, env, line=line,
                              expected=expected, user_attrs=attrs_of(env))
    return run


class CompileCtx:
    """Per-unit compilation services."""

    eval_expr = _entry("M_EXPR")
    eval_target = _entry("M_TARGET")
    eval_range = _entry("M_RANGE")
    eval_choice = _entry("M_CHOICE")
    eval_call = _entry("M_CALL")

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
