"""Seeded VHDL inputs for the pipeline benchmark.

Every design is first drawn as a small data description (packages of
constants and functions, clocked client processes, token rings) and
then rendered to VHDL text.  The compiler under test only ever sees the
text; :mod:`reference` interprets the same descriptions in plain Python
to predict what the simulator must print.
"""

import random

#: Modulus every client process reduces its accumulator by.
ACC_MOD = 1009
#: Clock half period of every generated test bench, in ns.
HALF_PERIOD_NS = 5
#: The port clause of every client entity and component.
PORTS = "port ( clk : in bit; dout : out integer );"


def count_lines(text):
    """Figure 2's counting convention: no blank and no comment lines."""
    n = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("--"):
            n += 1
    return n


# -- packages -----------------------------------------------------------------


class Function:
    """``name(x)``: one of three shapes over package constants.

    ``affine``: ``(x * a + K) mod m``; ``fold``: ``x - t`` when
    ``x > t``, else ``x + K``; ``chain``: ``(f_j(x) + K) mod m`` for an
    earlier function ``f_j`` of the same package.
    """

    def __init__(self, name, shape, const, a=0, m=0, t=0, callee=None):
        self.name = name
        self.shape = shape
        self.const = const      # index of the package constant K
        self.a = a
        self.m = m
        self.t = t
        self.callee = callee    # index of the earlier function (chain)


class Package:
    def __init__(self, name, prefix, constants, functions):
        self.name = name
        self.prefix = prefix        # "a" or "b": names ka_3, fa_2, ...
        self.constants = constants  # [int]
        self.functions = functions  # [Function]

    def const_name(self, i):
        return "k%s_%d" % (self.prefix, i)

    def render(self):
        out = ["package %s is" % self.name]
        for i, value in enumerate(self.constants):
            out.append("  constant %s : integer := %d;"
                       % (self.const_name(i), value))
        for fn in self.functions:
            out.append("  function %s (x : integer) return integer;"
                       % fn.name)
        out.append("end %s;" % self.name)
        out.append("")
        out.append("package body %s is" % self.name)
        for fn in self.functions:
            k = self.const_name(fn.const)
            out.append("  function %s (x : integer) return integer is"
                       % fn.name)
            if fn.shape == "chain":
                out.append("    variable y : integer := 0;")
            out.append("  begin")
            if fn.shape == "affine":
                out.append("    return (x * %d + %s) mod %d;"
                           % (fn.a, k, fn.m))
            elif fn.shape == "fold":
                out.append("    if x > %d then" % fn.t)
                out.append("      return x - %d;" % fn.t)
                out.append("    end if;")
                out.append("    return x + %s;" % k)
            else:
                out.append("    y := %s(x);"
                           % self.functions[fn.callee].name)
                out.append("    return (y + %s) mod %d;" % (k, fn.m))
            out.append("  end %s;" % fn.name)
        out.append("end %s;" % self.name)
        return "\n".join(out) + "\n"


def make_package(rng, name, prefix, n_constants, n_functions):
    constants = [rng.randint(1, 100) for _ in range(n_constants)]
    functions = []
    for i in range(n_functions):
        shape = rng.choice(("affine", "fold", "chain") if i else
                           ("affine", "fold"))
        functions.append(Function(
            "f%s_%d" % (prefix, i), shape,
            const=rng.randrange(n_constants),
            a=rng.randint(2, 9), m=rng.randint(300, 1000),
            t=rng.randint(10, 60),
            callee=rng.randrange(i) if i else None))
    return Package(name, prefix, constants, functions)


# -- clocked clients ----------------------------------------------------------


class Client:
    """A clocked entity: on each rising edge ``acc`` takes
    ``steps(acc) mod ACC_MOD``; ``dout`` mirrors ``acc``.

    ``steps`` is a list of ``("call", pkg, fn, c)`` (``v := v +
    f(v mod c)``), ``("const", pkg, k)`` (``v := v + K``) and
    ``("scale", m, md)`` (``v := (v * m) mod md``); ``pkg`` indexes
    ``packages``.  ``generic`` adds a ``g`` generic that is added to
    ``v`` before the steps.
    """

    def __init__(self, name, packages, init, steps, generic=False):
        self.name = name
        self.packages = packages
        self.init = init
        self.steps = steps
        self.generic = generic

    def _step_text(self, step):
        if step[0] == "call":
            _, p, f, c = step
            return "v := v + %s(v mod %d);" % (
                self.packages[p].functions[f].name, c)
        if step[0] == "const":
            _, p, k = step
            return "v := v + %s;" % self.packages[p].const_name(k)
        _, m, md = step
        return "v := (v * %d) mod %d;" % (m, md)

    def render(self):
        out = ["use work.%s.all;" % p.name for p in self.packages]
        out.append("entity %s is" % self.name)
        if self.generic:
            out.append("  generic ( g : integer := 1 );")
        out.append("  " + PORTS)
        out.append("end %s;" % self.name)
        out.append("")
        out.append("architecture rtl of %s is" % self.name)
        out.append("  signal acc : integer := %d;" % self.init)
        out.append("begin")
        out.append("  tick : process (clk)")
        out.append("    variable v : integer := 0;")
        out.append("  begin")
        out.append("    if clk'event and clk = '1' then")
        out.append("      v := acc;")
        if self.generic:
            out.append("      v := v + g;")
        for step in self.steps:
            out.append("      " + self._step_text(step))
        out.append("      acc <= v mod %d;" % ACC_MOD)
        out.append("    end if;")
        out.append("  end process;")
        out.append("  dout <= acc;")
        out.append("end rtl;")
        return "\n".join(out) + "\n"


def make_steps(rng, packages, n_steps):
    steps = []
    for _ in range(n_steps):
        kind = rng.choice(("call", "call", "const", "scale"))
        p = rng.randrange(len(packages))
        if kind == "call":
            steps.append(("call", p,
                          rng.randrange(len(packages[p].functions)),
                          rng.randint(20, 97)))
        elif kind == "const":
            steps.append(("const", p,
                          rng.randrange(len(packages[p].constants))))
        else:
            steps.append(("scale", rng.randint(2, 9),
                          rng.randint(500, 1000)))
    return steps


class Top:
    """A structural bench: a free-running clock and one instance per
    client, ``u<i>`` driving ``d<i>``; ``generics`` (when given) maps
    each instance's ``g``."""

    def __init__(self, name, clients, generics=None):
        self.name = name
        self.clients = clients
        self.generics = generics

    def render(self):
        out = ["entity %s is" % self.name, "end %s;" % self.name, "",
               "architecture struct of %s is" % self.name]
        for client in {c.name: c for c in self.clients}.values():
            out.append("  component %s" % client.name)
            if client.generic:
                out.append("    generic ( g : integer := 1 );")
            out.append("    " + PORTS)
            out.append("  end component;")
        out.append("  signal clk : bit := '0';")
        for i in range(len(self.clients)):
            out.append("  signal d%d : integer := 0;" % i)
        out.append("begin")
        out.append("  clock : process")
        out.append("  begin")
        out.append("    clk <= not clk after %d ns;" % HALF_PERIOD_NS)
        out.append("    wait on clk;")
        out.append("  end process;")
        for i, client in enumerate(self.clients):
            gmap = ""
            if self.generics is not None:
                gmap = "generic map ( g => %d ) " % self.generics[i]
            out.append("  u%d : %s %sport map ( clk => clk, dout => d%d );"
                       % (i, client.name, gmap, i))
        out.append("end struct;")
        return "\n".join(out) + "\n"


# -- fanin_compile: the paper's foreign-reference case ------------------------


class Project:
    """2 packages, the clients and one top, one design entity or
    package per file, listed in a valid compile order."""

    def __init__(self, packages, clients, top):
        self.packages = packages
        self.clients = clients
        self.top = top

    def files(self):
        """``[(file name, VHDL text)]`` in compile order."""
        out = [("%s.vhd" % p.name, p.render()) for p in self.packages]
        out.extend(("%s.vhd" % c.name, c.render()) for c in self.clients)
        out.append(("%s.vhd" % self.top.name, self.top.render()))
        return out


def make_project(rng, clients=60, fanin=8):
    # Package names sort before "body(...)": a library re-opened from
    # disk elaborates its units in file-name order, and a body loaded
    # before its declaration cannot see the declaration's constants.
    packages = [
        make_package(rng, "aux_a", "a", rng.randint(8, 16),
                     rng.randint(4, 8)),
        make_package(rng, "aux_b", "b", rng.randint(8, 16),
                     rng.randint(4, 8)),
    ]
    made = [
        Client("cl_%d" % i, packages, rng.randrange(ACC_MOD),
               make_steps(rng, packages, rng.randint(4, 8)))
        for i in range(clients)
    ]
    return Project(packages, made, Top("top", rng.sample(made, fanin)))


# -- token rings --------------------------------------------------------------

#: Step through the size range coprime with its width (81 = 3^4), so
#: the first k sizes of a run are distinct and spread evenly over the
#: range whatever the seed's offset.
_RING_STRIDE = 31


def ring_sizes(seed, low=360, high=440):
    """The run's cell counts: all distinct, evenly spread."""
    width = high - low + 1
    offset = random.Random(seed).randrange(width)
    return [low + (offset + j * _RING_STRIDE) % width
            for j in range(width)]


def ring_tokens(n):
    """1% of the cells carry a token."""
    return max(1, round(n / 100))


def ring_starters(n):
    tokens = ring_tokens(n)
    stride = n // tokens
    return [j * stride for j in range(tokens)]


def ring_source(n):
    """``n`` integer cells; each process flips its successor 1 ns
    after its own cell changes; starter cells use a sensitivity list,
    so their initialization run launches the tokens."""
    starters = set(ring_starters(n))
    out = ["entity ring is", "end ring;", "",
           "architecture rtl of ring is"]
    for i in range(n):
        out.append("  signal c_%d : integer := 0;" % i)
    out.append("begin")
    for i in range(n):
        j = (i + 1) % n
        if i in starters:
            out.append("  p_%d: process (c_%d) begin "
                       "c_%d <= 1 - c_%d after 1 ns; end process;"
                       % (i, i, j, j))
        else:
            out.append("  p_%d: process begin wait on c_%d; "
                       "c_%d <= 1 - c_%d after 1 ns; end process;"
                       % (i, i, j, j))
    out.append("end rtl;")
    return "\n".join(out) + "\n"


# -- serve_edit_loop ----------------------------------------------------------

EDIT_INSTANCES = 4


class EditDesign:
    """One session's design: a package, an editable leaf, and a top
    instantiating the leaf ``EDIT_INSTANCES`` times with distinct
    generics.  :meth:`edit` redraws the leaf's body."""

    def __init__(self, rng):
        self.rng = rng
        self.package = make_package(rng, "aux_e", "a", rng.randint(8, 16),
                                    rng.randint(4, 8))
        self.top = Top("etop", [], generics=[
            rng.randint(1, 50) for _ in range(EDIT_INSTANCES)])
        self.edit()

    def edit(self):
        """A fresh leaf body behind the same entity interface."""
        self.leaf = Client("leaf", [self.package],
                           self.rng.randrange(ACC_MOD),
                           make_steps(self.rng, [self.package],
                                      self.rng.randint(4, 8)),
                           generic=True)
        self.top.clients = [self.leaf] * EDIT_INSTANCES

    def files(self):
        """The priming compile: package, leaf and top."""
        return [{"name": "%s.vhd" % unit.name, "text": unit.render()}
                for unit in (self.package, self.leaf, self.top)]
