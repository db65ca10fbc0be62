"""The decision tape: seeded, replayable randomness for generation.

Every random decision the design generator makes is one ``draw(n)``
against a :class:`DecisionTape`.  In *generate* mode the tape pulls
values from a self-contained splitmix64 stream (no dependence on
``random``'s cross-version behaviour, so the same seed produces the
same byte sequence on every platform and Python version) and records
each drawn value.  In *replay* mode the tape feeds back a recorded (or
reduced) choice list: values are folded into range with ``% n`` and an
exhausted tape keeps returning 0, so **every** integer list is a valid
tape.  That totality is what makes shrinking simple — the reducer can
chop, zero, and decrease entries freely (:mod:`repro.gen.reducer`) and
the generator still produces *some* design, usually a smaller one.
"""

MASK64 = (1 << 64) - 1


def splitmix64(x):
    """One splitmix64 step: (next_state, output) — pure integers."""
    x = (x + 0x9E3779B97F4B7C15) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return x, z ^ (z >> 31)


def mix_seed(seed, index):
    """A stream seed for design ``index`` of base ``seed``.

    Derivation depends only on (seed, index) — never on worker
    identity or completion order — so a ``--jobs 4`` sweep generates
    byte-identical designs to a serial one.
    """
    state = (seed & MASK64) ^ 0xA076_1D64_78BD_642F
    state, out = splitmix64(state ^ ((index + 1) * 0x9DDF_EA08_EB38_2D69))
    _, out2 = splitmix64(state)
    return (out ^ (out2 << 1)) & MASK64


class DecisionTape:
    """A recorded stream of bounded integer choices.

    ``DecisionTape(seed=s)`` — generate mode.
    ``DecisionTape.replaying(choices)`` — replay mode (shrinking).

    After a generation (or replay) pass, ``tape.choices`` is the exact
    decision list that reproduces the run.
    """

    __slots__ = ("choices", "_state", "_replay", "_pos", "draws")

    def __init__(self, seed=0):
        self.choices = []
        self._state = (seed & MASK64) or 0x6A09E667F3BCC909
        self._replay = None
        self._pos = 0
        self.draws = 0

    @classmethod
    def replaying(cls, choices):
        tape = cls(0)
        tape._replay = [int(c) for c in choices]
        return tape

    def draw(self, n):
        """The next decision in ``[0, n)``; records what it drew."""
        if n <= 0:
            raise ValueError("draw needs a positive range, got %r" % n)
        if self._replay is not None:
            if self._pos < len(self._replay):
                raw = self._replay[self._pos]
                self._pos += 1
            else:
                raw = 0  # exhausted tape: the minimal choice
            value = raw % n
        else:
            self._state, out = splitmix64(self._state)
            value = out % n
        self.draws += 1
        self.choices.append(value)
        return value

    # -- conveniences (all reduce to draw) ------------------------------

    def randint(self, lo, hi):
        """Inclusive [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range [%d, %d]" % (lo, hi))
        return lo + self.draw(hi - lo + 1)

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from an empty sequence")
        return seq[self.draw(len(seq))]

    def weighted(self, pairs):
        """Pick from ``((item, weight), ...)`` by integer weights.

        A zeroed tape position lands in the *first* pair, so put the
        simplest alternative first: shrinking then steers designs
        toward it.
        """
        total = sum(w for _, w in pairs)
        if total <= 0:
            raise ValueError("weights sum to %r" % total)
        ticket = self.draw(total)
        for item, weight in pairs:
            if ticket < weight:
                return item
            ticket -= weight
        return pairs[-1][0]  # unreachable; keeps the checker honest

    def chance(self, numerator, denominator):
        """True with probability numerator/denominator.

        Encoded so the zero draw means **False** — shrinking turns
        optional features off.
        """
        if not 0 <= numerator <= denominator:
            raise ValueError("bad chance %d/%d"
                             % (numerator, denominator))
        if numerator == 0:
            return False
        return self.draw(denominator) >= denominator - numerator
