"""The compiled backend's form of each process factory, as VIF data.

The principal AG emits every process of an architecture as a factory
over the names the process takes from outside it (the lifted ``_a<i>``
operands of :func:`repro.vhdl.semantics_unit._lift`), its signal
assignments and waits as :class:`~repro.vhdl.semantics_decl.Assign`
and :class:`~repro.vhdl.semantics_decl.Wait` lines.  With each
factory, :func:`~repro.vhdl.semantics_unit.arch_unit` also stores, in
``ArchUnit.slot_forms``, the form in which the compiled backend
(:mod:`repro.sim.codegen`) runs it, read off those lines: the process
loop split at its one wait, and its statements over parameters
``_k<i>``, numbered in order of first use, each an ``_a<i>`` operand
or a model global such as ``VArray``.  In that text:

- ``rt.read(s)`` is ``V[k]``, ``s'EVENT`` and ``s'ACTIVE`` compare the
  signal's stamps with ``step``, ``s'LAST_VALUE`` reads it, and
  ``rt.now`` is ``now``; the parameter ``k`` of a signal carries its
  ``Signal.index``;
- each signal assignment is a *hole*: ``[depth, target parameter,
  transport, value, delay, ...]``, which codegen fills once it knows
  whether the target is a slot.

A factory is one record, a list ``[reason, init_runs_body, waits,
args, signals, pure, body, cond]``:

- ``reason`` is None, or why no process of the factory can run as a
  plain function: ``names`` (a signal both read and passed bare) or
  ``construct`` (a use of an ``rt`` member other than ``now`` and
  ``assert_`` outside a signal assignment).  An ``exit`` or ``next``
  never reaches here outside a loop: that is a compile error.  A
  factory whose loop does not have that shape is the bare reason
  instead: ``shape`` (a declarative part: process variables) or
  ``wait`` (not exactly one ``Wait``, first or last in the loop, or a
  wait with a timeout);
- ``init_runs_body`` when the wait is last;
- ``waits`` and ``args``: the operands the wait lists and the
  parameters' names, each space-separated;
- ``signals``: the positions of the parameters used as signals;
- ``pure`` when nothing but an assignment to a non-slot can reach
  ``rt`` or a captured helper: no ``rt`` use and no call but
  ``ops.*``;
- ``body``: the loop's other statements, indented for a function
  nested in the factory, as strings and holes;
- ``cond``: the wait's condition, or None.
"""

import re

from . import names as N
from .semantics_decl import Assign, Wait
from .semantics_unit import _STRING

#: A string literal; a signal function of one name; another ``rt``
#: member; or a name that is neither an attribute nor a keyword
#: argument (nor the target of an assignment).
_TOKEN = re.compile(
    _STRING + r"|(?<![\w.])rt\.(read|event|active|last_value)"
    r"\(([A-Za-z_]\w*)\)|(?<![\w.])rt\.(\w+)"
    r"|(?<![\w.])([A-Za-z_]\w*)\b(?!\s*=(?!=))")

#: The slot form of each signal function, given its signal's parameter.
_SIGNAL_READS = {
    "read": "V[%s]",
    "event": "(1 if SIG[%s].event_delta == step else 0)",
    "active": "(1 if SIG[%s].active_delta == step else 0)",
    "last_value": "SIG[%s].last_value",
}

_OPERAND = re.compile(r"_a\d+$")

#: A string literal, or a call and its callee.
_CALL = re.compile(_STRING + r"|(?<![\w.])([A-Za-z_][\w.]*)\(")


class _Reject(Exception):
    pass


class _Render:
    """One factory's statements over its parameters."""

    def __init__(self):
        self.params = {}  # name -> "_k<i>"
        self.signals = set()  # parameters used as signals
        self.values = set()  # parameters used as values
        self.pure = True

    def param(self, name, used):
        k = self.params.setdefault(name, N.SLOT_PARAM % len(self.params))
        used.add(k)
        return k

    def sub(self, text):
        """``text`` over the parameters: a call of anything but
        ``ops.*`` clears :attr:`pure`."""
        text = _TOKEN.sub(self._token, text)
        if self.pure and any(
                callee and not callee.startswith("ops.")
                for callee in _CALL.findall(text)):
            self.pure = False
        return text

    def _token(self, match):
        fn, arg, member, name = match.groups()
        if fn is not None:
            return _SIGNAL_READS[fn] % self.param(arg, self.signals)
        if member == "now":
            return "now"
        if member is not None and member != "assert_":
            raise _Reject("construct")  # an assign or wait in a value
        if name == "rt":
            self.pure = False
        elif name is not None and (_OPERAND.match(name)
                                   or name in ("VArray", "VRecord")):
            return self.param(name, self.values)
        return match.group()

    def body(self, lines):
        """The loop statements ``lines``, each at depth 2 in a resume
        function, as text and holes: an :class:`Assign` is ``[depth,
        target, transport, value, delay, ...]``."""
        pieces = []
        for depth, line in lines:
            if type(line) is Assign:
                pieces.append(
                    [depth + 2, int(self.param(line.target,
                                               self.signals)[2:]),
                     bool(line.transport)]
                    + [self.sub(code) for elem in line.elems
                       for code in elem])
                continue
            line = "    " * (depth + 2) + self.sub(line) + "\n"
            if pieces and type(pieces[-1]) is str:
                pieces[-1] += line
            else:
                pieces.append(line)
        return pieces


def slot_form(decls, body):
    """The record of the process function whose declarative part and
    loop are the lifted ``(depth, line)`` lines ``decls`` and
    ``body``."""
    if decls:
        return "shape"
    at = [i for i, (_, line) in enumerate(body) if type(line) is Wait]
    if at == [0]:
        rest, init_runs_body = body[1:], False
    elif at == [len(body) - 1] and body[-1][0] == 0:
        rest, init_runs_body = body[:-1], True
    else:
        return "wait"
    wait = body[at[0]][1]
    if wait.timeout is not None:
        return "wait"  # a timed wait stays on the calendar
    waits = " ".join(wait.signals)
    render = _Render()
    try:
        body = render.body(rest)
        cond = None if wait.cond is None else render.sub(wait.cond)
        if render.signals & render.values:
            raise _Reject("names")  # a signal passed bare
    except _Reject as rej:
        return [rej.args[0], init_runs_body, waits, "", [], False, [],
                None]
    names = list(render.params)
    return [None, init_runs_body, waits, " ".join(names),
            [i for i, name in enumerate(names)
             if render.params[name] in render.signals],
            render.pure, body, cond]
