"""Stable content hashes for incremental builds.

Two kinds of fingerprints:

* :func:`source_fingerprint` hashes a VHDL source text by its
  *canonical token stream* — the scanner already skips whitespace and
  comments and lower-cases identifiers, so an edit that only reflows
  layout or touches comments produces the identical fingerprint and
  the cached compile stays valid.

* :func:`interface_digest` hashes a unit's VIF payload with volatile
  fields (generated code, line numbers) stripped.  Dependent units are
  invalidated only when this digest changes, which gives the classic
  "early cutoff": recompiling a package *body* does not cascade into
  every architecture that merely ``use``\\ s the package declaration.

Both are hex SHA-256 strings, salted with a format version so a
change to the hashing scheme invalidates old manifests wholesale
instead of silently mis-hitting.
"""

import hashlib
import json

# bfp-9: an architecture stores each process factory's slot form
# (``slot_forms``); bumping rebuilds cached units that lack it.
# bfp-10: generated names follow one rule (``vhdl/names.py``); a
# cached unit named by the old rule would not link with a new one.
FINGERPRINT_VERSION = "bfp-10"

#: Payload node fields that do not affect a unit's *interface* as seen
#: by dependents: generated back-end text and the dataflow facts that
#: come with it, and source coordinates (``source_file`` included, so
#: renaming a file does not cascade).
VOLATILE_FIELDS = ("py_source", "processes", "block_signals",
                   "slot_forms", "connections", "drives", "reads", "line",
                   "source_file")

_SEP = b"\x1f"
_END = b"\x1e"


def _base_hash():
    h = hashlib.sha256()
    h.update(FINGERPRINT_VERSION.encode())
    h.update(_END)
    return h


def tokens_fingerprint(tokens):
    """Hex digest of a canonical token stream.

    Only ``(kind, value)`` pairs enter the hash — positions do not —
    so reflowing layout or editing comments leaves it unchanged, and
    the scanner's lower-casing makes identifier case irrelevant, as
    VHDL's lexical rules demand.
    """
    h = _base_hash()
    for tok in tokens:
        h.update(tok.kind.encode())
        h.update(_SEP)
        value = tok.value
        if isinstance(value, (str, int, float, bool)) or value is None:
            h.update(repr(value).encode("utf-8", "replace"))
        else:
            h.update(repr(tok.text).encode("utf-8", "replace"))
        h.update(_END)
    return h.hexdigest()


def raw_fingerprint(text):
    """Fallback digest of the raw text, under a distinct salt (used
    when the file does not even scan — it will not compile either,
    but it still deserves a stable, distinct fingerprint)."""
    h = _base_hash()
    h.update(b"raw")
    h.update(_END)
    h.update(text.encode("utf-8", "replace"))
    return h.hexdigest()


def source_fingerprint(text, scan=None):
    """Hex digest of the canonical token stream of ``text``.

    ``scan`` defaults to the VHDL scanner; it is injectable so the
    fingerprint layer stays usable for other front ends (and cheap to
    unit-test).  If scanning fails, falls back to
    :func:`raw_fingerprint`.
    """
    if scan is None:
        from ..vhdl.lexer import scan as scan  # noqa: PLW0127
    try:
        tokens = scan(text, "<fingerprint>")
    except Exception:
        return raw_fingerprint(text)
    return tokens_fingerprint(tokens)


def interface_digest(payload):
    """Hex digest of the interface-relevant part of a VIF payload.

    Strips :data:`VOLATILE_FIELDS` from every node so body-only and
    layout-only recompiles keep the digest stable, then hashes the
    canonical JSON form.  The node *table order* is part of the digest
    on purpose: foreign references address nodes by index, so a
    reordering is an interface change even if no field differs.
    """
    nodes = []
    for kind, fields in payload.get("nodes", ()):
        kept = {
            name: value
            for name, value in fields.items()
            if name not in VOLATILE_FIELDS
        }
        nodes.append([kind, kept])
    canonical = {
        "format": payload.get("format"),
        "library": payload.get("library"),
        "unit": payload.get("unit"),
        "roots": payload.get("roots", {}),
        "depends": payload.get("depends", []),
        "nodes": nodes,
    }
    h = hashlib.sha256()
    h.update(FINGERPRINT_VERSION.encode())
    h.update(_END)
    h.update(
        json.dumps(
            canonical, sort_keys=True, separators=(",", ":"), default=str
        ).encode()
    )
    return h.hexdigest()
