"""Static visit-sequence evaluator for ordered AGs.

Executes the plans produced by :class:`repro.ag.ordered.OrderedAnalysis`
— the analog of the attribute-evaluator code Linguist generates.  Where
the dynamic evaluator demands attributes and discovers an order at run
time, this evaluator follows the precomputed visit sequences: visit
``i`` of a node assumes the inherited attributes of partition ``A_{2i-1}``
are already stored and leaves the synthesized attributes of ``A_{2i}``
computed.

The engine is iterative (explicit frame stack): VHDL statement lists
make trees whose depth tracks source length.
"""

from .errors import EvaluationError
from .lr.parser import MISSING
from .ordered import EVAL, VISIT


class StaticEvaluator:
    """Evaluator driven by precomputed visit sequences."""

    def __init__(self, compiled, inherited=None, observer=None):
        self.compiled = compiled
        self.analysis = compiled.analyze()
        self.attr_table = compiled.attr_table
        self.inherited = dict(inherited or {})
        #: optional :class:`repro.diag.AGObserver` record
        self.observer = observer
        #: its firing count for this grammar, or None
        self.fired = (observer.fired(compiled.name)
                      if observer is not None else None)

    def goal_attributes(self, tree, goals=None):
        """Run all root visits; return the root synthesized attributes."""
        for decl in self.attr_table.inherited(tree.symbol):
            if decl.name not in self.inherited:
                raise EvaluationError(
                    "root inherited attribute %r was not supplied "
                    "to the evaluator" % decl.name
                )
            setattr(tree, decl.name, self.inherited[decl.name])
        for v in range(1, self.analysis.visits[tree.symbol.name] + 1):
            self.run_visit(tree, v)
        if goals is None:
            goals = [
                d.name for d in self.attr_table.synthesized(tree.symbol)
            ]
        return {name: getattr(tree, name) for name in goals}

    def run_visit(self, node, visit):
        """Execute visit ``visit`` of ``node`` (and nested child visits)."""
        if self.observer is not None:
            self.observer.record_visit(node.symbol)
        plans = self.analysis.plans[node.production.index]
        stack = [(node, iter(plans[visit - 1]))]
        while stack:
            cur, actions = stack[-1]
            pushed = False
            for action in actions:
                if action.op == EVAL:
                    self._apply(cur, action.rule)
                else:
                    child = cur.children[action.child_pos - 1]
                    if self.observer is not None:
                        self.observer.record_visit(child.symbol)
                    child_plans = self.analysis.plans[
                        child.production.index
                    ]
                    stack.append(
                        (child, iter(child_plans[action.visit - 1]))
                    )
                    pushed = True
                    break
            if not pushed:
                stack.pop()

    def _apply(self, owner, rule):
        values = []
        for occ in rule.deps:
            inst = owner if occ.pos == 0 else owner.children[occ.pos - 1]
            value = getattr(inst, occ.attr)
            if value is MISSING:
                raise EvaluationError(
                    "visit-sequence bug: %s.%s not yet available in "
                    "production %s"
                    % (occ.symbol.name, occ.attr, rule.production.label)
                )
            values.append(value)
        target = rule.target
        inst = owner if target.pos == 0 else owner.children[target.pos - 1]
        try:
            setattr(inst, target.attr, rule.fn(*values))
        except Exception as exc:
            raise EvaluationError(
                "semantic rule for %s.%s in production %s failed: %s: %s"
                % (
                    target.symbol.name,
                    target.attr,
                    rule.production.label,
                    type(exc).__name__,
                    exc,
                )
            ) from exc
        if self.fired is not None:
            self.fired[rule.production.label] += 1
