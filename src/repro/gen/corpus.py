"""The persisted regression corpus (``tests/gen/corpus/*.vhd``).

Each entry is a plain VHDL file whose leading comment lines carry the
replay contract as ``-- repro-fuzz: key=value`` pairs::

    -- repro-fuzz: expect=ok top=fz_top until_ns=500
    -- repro-fuzz: seed=7 index=12
    -- repro-fuzz: note=resolved bus with three drivers

``expect`` is the pinned oracle outcome (``ok``, ``rejected``, or
``sim_error`` — a corpus never *expects* a failure outcome: a fixed
divergence is pinned with the outcome it has after the fix).  The
pytest replay (``tests/gen/test_corpus.py``) runs every entry back
through :func:`repro.gen.oracle.check_source` and asserts the outcome
matches and is never ``divergence``/``crash``.
"""

import os
import re

from .oracle import check_source

HEADER_PREFIX = "-- repro-fuzz:"

#: Outcomes a corpus entry may pin.
PINNABLE = ("ok", "rejected", "sim_error")

_KV = re.compile(r"(\w+)=(\S.*?)(?=\s+\w+=|\s*$)")


class CorpusEntry:
    """One parsed corpus file."""

    __slots__ = ("name", "path", "source", "meta")

    def __init__(self, name, path, source, meta):
        self.name = name
        self.path = path
        self.source = source
        self.meta = dict(meta)

    @property
    def expect(self):
        return self.meta.get("expect", "ok")

    @property
    def top(self):
        return self.meta.get("top", "fz_top")

    @property
    def until_ns(self):
        return int(self.meta.get("until_ns", 1000))

    def check(self):
        """Replay through the oracle, with the analyzer and compiled
        legs, as the fuzz sweep runs; returns the CheckResult."""
        return check_source(self.source, self.top,
                            until_ns=self.until_ns,
                            filename=self.path or self.name,
                            analyze=True, compiled=True)

    def __repr__(self):
        return "<CorpusEntry %s expect=%s>" % (self.name, self.expect)


def render_entry(design, result, note=None):
    """The corpus file text for a checked design."""
    if result.outcome not in PINNABLE:
        raise ValueError("cannot pin outcome %r — fix the failure "
                         "first, then pin the passing design"
                         % result.outcome)
    lines = [
        "%s expect=%s top=%s until_ns=%d" % (
            HEADER_PREFIX, result.outcome, design.top,
            design.until_ns),
        "%s seed=%d index=%d" % (HEADER_PREFIX, design.seed,
                                 design.index),
    ]
    if note:
        lines.append("%s note=%s" % (HEADER_PREFIX,
                                     " ".join(note.split())))
    return "\n".join(lines) + "\n" + design.source


def save(directory, design, result, name=None, note=None):
    """Write one entry; returns its path."""
    os.makedirs(directory, exist_ok=True)
    if name is None:
        name = "seed%d_i%d" % (design.seed, design.index)
    path = os.path.join(directory, "%s.vhd" % name)
    with open(path, "w") as handle:
        handle.write(render_entry(design, result, note=note))
    return path


def parse_entry(text, name="<corpus>", path=None):
    """The entry ``text`` holds.  Its header lines stay in its source
    as empty lines, so a replay names the lines of the file."""
    meta = {}
    body = []
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped.startswith(HEADER_PREFIX):
            rest = stripped[len(HEADER_PREFIX):].strip()
            for key, value in _KV.findall(rest):
                meta[key] = value
            line = "\n"
        body.append(line)
    return CorpusEntry(name, path, "".join(body), meta)


def load_entry(path):
    with open(path) as handle:
        text = handle.read()
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_entry(text, name=name, path=path)


def iter_corpus(directory):
    """Entries of a corpus directory, sorted by name."""
    if not os.path.isdir(directory):
        return []
    return [load_entry(os.path.join(directory, fn))
            for fn in sorted(os.listdir(directory))
            if fn.endswith(".vhd")]
