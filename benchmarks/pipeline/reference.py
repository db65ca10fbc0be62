"""Independent expected results for the pipeline benchmark.

Nothing here imports the compiler under test.  The models interpret the
data descriptions of :mod:`designs` directly, following VHDL's
semantics for the few constructs the generators use, and the checkers
parse only what a user sees: the report ``repro sim`` prints and the
JSON body ``POST /sim`` returns.
"""

import re

from designs import ACC_MOD, HALF_PERIOD_NS, ring_starters


# -- models -------------------------------------------------------------------


def call(package, index, x):
    """``package.functions[index](x)``, with VHDL integer ``mod``
    (the result takes the divisor's sign, as Python's ``%`` does)."""
    fn = package.functions[index]
    k = package.constants[fn.const]
    if fn.shape == "affine":
        return (x * fn.a + k) % fn.m
    if fn.shape == "fold":
        return x - fn.t if x > fn.t else x + k
    return (call(package, fn.callee, x) + k) % fn.m


def client_step(client, acc, g=0):
    """The accumulator after one rising edge."""
    v = acc + g
    for step in client.steps:
        if step[0] == "call":
            _, p, f, c = step
            v = v + call(client.packages[p], f, v % c)
        elif step[0] == "const":
            _, p, k = step
            v = v + client.packages[p].constants[k]
        else:
            _, m, md = step
            v = (v * m) % md
    return v % ACC_MOD


def rising_edges(until_ns):
    """Rising clock edges in ``[0, until_ns]``: the clock starts at
    '0' and toggles every half period, so it rises at odd multiples
    of the half period."""
    return (until_ns // HALF_PERIOD_NS + 1) // 2


def top_values(top, until_ns):
    """Expected final ``d<i>`` of every instance of a :class:`Top`."""
    edges = rising_edges(until_ns)
    values = {}
    for i, client in enumerate(top.clients):
        g = top.generics[i] if top.generics is not None else 0
        acc = client.init
        for _ in range(edges):
            acc = client_step(client, acc, g)
        values["d%d" % i] = acc
    return values


def ring_values(n, until_ns):
    """Final cell values and simulation cycle count of the token ring.

    Token ``j`` starts at starter cell ``s_j`` and flips cell
    ``(s_j + t) mod n`` at every ``t`` in ``1..until_ns`` ns; tokens
    never meet, so a cell's value is the parity of its flips.  Every
    nanosecond from 1 to ``until_ns`` holds exactly one simulation
    cycle (no zero-delay assignment, so no delta cycles), and the
    initialization run is not a cycle.
    """
    flips = [0] * n
    full, rest = divmod(until_ns, n)
    for s in ring_starters(n):
        for t in range(1, rest + 1):
            flips[(s + t) % n] += 1
        if full:
            for c in range(n):
                flips[c] += full
    values = {"c_%d" % i: flips[i] % 2 for i in range(n)}
    return values, until_ns


# -- checkers -----------------------------------------------------------------

_STOP = re.compile(r"^simulation stopped at (\d+) (\w+) \((\d+) cycles\)$")
_SIGNAL = re.compile(r"^\s+(\S+)\s+= (.*)$")


def parse_sim_report(lines):
    """``(end, cycles, {path: image})`` from ``repro sim`` output
    lines, or ``None`` when no stop line is present."""
    stop = None
    signals = {}
    for line in lines:
        match = _STOP.match(line)
        if match:
            stop = ("%s %s" % (match.group(1), match.group(2)),
                    int(match.group(3)))
            continue
        match = _SIGNAL.match(line)
        if match and stop is not None:
            signals[match.group(1)] = match.group(2).strip()
    if stop is None:
        return None
    return stop[0], stop[1], signals


def mismatches(signals, expected, scope):
    """Names in ``expected`` whose value differs from the signal
    ``<scope>:<name>`` in ``signals`` (``{path: image}``)."""
    bad = []
    for name, value in expected.items():
        got = signals.get("%s:%s" % (scope, name))
        if got != str(value):
            bad.append("%s: expected %s, got %s" % (name, value, got))
    return bad


def check_report(lines, expected, scope, end, cycles=None):
    """Problems found in a ``repro sim`` report (empty when right)."""
    parsed = parse_sim_report(lines)
    if parsed is None:
        return ["no 'simulation stopped' line"]
    got_end, got_cycles, signals = parsed
    problems = []
    if got_end != end:
        problems.append("stopped at %s, expected %s" % (got_end, end))
    if cycles is not None and got_cycles != cycles:
        problems.append("%d cycles, expected %d" % (got_cycles, cycles))
    return problems + mismatches(signals, expected, scope)


def check_sim_json(body, expected, scope, end_fs):
    """Problems found in a ``POST /sim`` response body."""
    if not isinstance(body, dict) or not body.get("ok"):
        return ["not ok: %s" % (body or {}).get("error")]
    problems = []
    if body.get("end_fs") != end_fs:
        problems.append("end_fs %s, expected %d"
                        % (body.get("end_fs"), end_fs))
    signals = {path: image for path, image in body.get("signals", ())}
    return problems + mismatches(signals, expected, scope)
