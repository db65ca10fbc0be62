"""Demand-driven (dynamic) attribute evaluator.

Evaluates attribute instances over a parse tree by demand with
memoization, detecting genuinely circular instances on the fly.  The
static visit-sequence evaluator (:mod:`repro.ag.static_eval`) is the
analog of the code Linguist generates for ordered AGs; this evaluator
is the reference semantics both are tested against, and the one the
VHDL compiler uses by default (it handles any noncircular AG).

The implementation is iterative — VHDL statement lists produce trees
whose depth is proportional to source length, so recursion is not an
option.
"""

from .attributes import SYN
from .errors import EvaluationError, CircularityError
from .lr.parser import MISSING, ParseTree


class DynamicEvaluator:
    """Evaluator for one compiled AG and one root-inherited valuation."""

    def __init__(self, compiled, inherited=None, observer=None):
        self.compiled = compiled
        self.attr_table = compiled.attr_table
        self.inherited = dict(inherited or {})
        #: optional :class:`repro.diag.AGObserver` record
        self.observer = observer
        #: its firing count for this grammar, or None
        self.fired = (observer.fired(compiled.name)
                      if observer is not None else None)

    # -- public API -----------------------------------------------------------

    def attribute(self, node, name):
        """Value of attribute ``name`` on (the LHS instance of) ``node``."""
        value = getattr(node, name, MISSING)
        if value is MISSING:
            self._force(node, name)
            return getattr(node, name)
        if self.observer is not None:
            self.observer.cache_hits += 1
        return value

    def goal_attributes(self, tree, goals=None):
        """Evaluate and return the root's synthesized attributes."""
        if goals is None:
            goals = [
                d.name for d in self.attr_table.synthesized(tree.symbol)
            ]
        return {name: self.attribute(tree, name) for name in goals}

    # -- engine ----------------------------------------------------------------

    def _locate_rule(self, node, name):
        """Find (rule, owner_node) defining instance ``(node, name)``."""
        decl = self.attr_table.get(node.symbol, name)
        if decl is None:
            raise EvaluationError(
                "symbol %r has no attribute %r" % (node.symbol.name, name)
            )
        if decl.kind == SYN:
            owner = node
            key = (0, name)
        else:
            owner = node.parent
            if owner is None:
                return None, None  # root inherited: supplied externally
            key = (node.child_index, name)
        rule = self.compiled.rules_of(owner.production).get(key)
        if rule is None:
            raise EvaluationError(
                "no rule defines %s.%s in production %s"
                % (node.symbol.name, name, owner.production.label)
            )
        return rule, owner

    def _force(self, node, name):
        """Compute instance ``(node, name)`` and everything it needs.

        Memo accounting follows a recursive demand evaluator: each
        non-terminal dependency a rule reads is either computed on its
        behalf (a miss, counted when its own rule fires) or found
        already computed (a hit).  ``forced`` counts, per stack frame,
        the dependencies that frame had to compute, and ``located``
        keeps the frame's rule and owner once found.
        """
        stack = [(node, name)]
        on_stack = {(node, name)}
        forced = [0]
        located = [None]
        hits = 0
        fired = self.fired
        while stack:
            # Only a missing instance is pushed, and it is popped as
            # soon as its rule fires: the top is never computed yet.
            cur_node, cur_name = stack[-1]
            if located[-1] is None:
                located[-1] = self._locate_rule(cur_node, cur_name)
            rule, owner = located[-1]
            if rule is None:
                # Root inherited attribute.
                if cur_name not in self.inherited:
                    raise EvaluationError(
                        "root inherited attribute %r was not supplied "
                        "to the evaluator" % cur_name
                    )
                setattr(cur_node, cur_name, self.inherited[cur_name])
                forced.pop()
                located.pop()
                on_stack.discard((cur_node, cur_name))
                stack.pop()
                continue
            # Push only the FIRST unready dependency: the stack then
            # stays a pure dependency chain, so membership in
            # ``on_stack`` means "ancestor" and the cycle check is
            # sound (batched pushes would make sibling demands look
            # circular).
            values = []
            first_missing = None
            memoized = 0
            for occ in rule.deps:
                inst = (owner if occ.pos == 0
                        else owner.children[occ.pos - 1])
                # A terminal occurrence reads a lexical pseudo-attribute
                # of the token, which is never MISSING.
                value = getattr(inst, occ.attr)
                if value is MISSING:
                    first_missing = (inst, occ.attr)
                    break
                values.append(value)
                if isinstance(inst, ParseTree):
                    memoized += 1
            if first_missing is not None:
                inst = first_missing
                if inst in on_stack:
                    cycle = _extract_cycle(stack, inst)
                    raise CircularityError(
                        "circular attribute dependency at %s.%s "
                        "(line %d): %s"
                        % (
                            inst[0].symbol.name,
                            inst[1],
                            inst[0].line,
                            " <- ".join(
                                "%s.%s" % (n.symbol.name, a)
                                for n, a in cycle
                            ),
                        ),
                        cycle=cycle,
                    )
                forced[-1] += 1
                forced.append(0)
                located.append(None)
                on_stack.add(inst)
                stack.append(inst)
                continue
            try:
                result = rule.fn(*values)
            except CircularityError:
                raise
            except Exception as exc:
                raise EvaluationError(
                    "semantic rule for %s.%s in production %s failed "
                    "(line %d): %s: %s"
                    % (
                        cur_node.symbol.name,
                        cur_name,
                        owner.production.label,
                        cur_node.line,
                        type(exc).__name__,
                        exc,
                    )
                ) from exc
            hits += memoized - forced.pop()
            located.pop()
            if fired is not None:
                fired[owner.production.label] += 1
            setattr(cur_node, cur_name, result)
            on_stack.discard((cur_node, cur_name))
            stack.pop()
        if self.observer is not None:
            self.observer.cache_hits += hits


def _extract_cycle(stack, instance):
    try:
        start = stack.index(instance)
    except ValueError:
        return [instance]
    return stack[start:] + [instance]


def evaluate_tree(compiled, tree, inherited=None, goals=None,
                  observer=None):
    """Convenience wrapper: evaluate ``tree`` and return goal attributes."""
    return DynamicEvaluator(
        compiled, inherited, observer=observer
    ).goal_attributes(tree, goals)
