"""Regenerate the committed translator artifacts.

The paper's compiler was generated once -- by Linguist and by the VIF
processor -- and shipped as generated code.  This repository commits
the same artifacts so a process loads them instead of generating them:

- ``vhdl/principal.lalr.json`` and ``vhdl/expr.lalr.json``: the LALR(1)
  tables of the two VHDL attribute grammars
  (:mod:`repro.ag.lr.tablefile`);
- ``vif/_generated.py``: the VIF node module the schema AG and the
  generator emit from ``vif/schema.vif``.

Run after changing a grammar, the schema or a generator::

    python -m repro.regen

It rewrites every artifact whose text changed and prints one line per
artifact.  A stale artifact is never trusted at run time -- the
program regenerates it in memory -- but it costs that generation on
every start, and the freshness test fails until this is run.
"""

import os
import sys


def artifacts():
    """``[(path, text)]``: every committed artifact, freshly generated."""
    from .ag.lr.tablefile import table_file_text
    from .vhdl import expr_grammar, grammar
    from .vif import nodes

    out = []
    for spec in (grammar.principal_spec(), expr_grammar.expr_spec()):
        out.append((spec.tables_file, table_file_text(spec.grammar)))
    out.append((nodes.GENERATED_PATH, nodes.generated_source()))
    return out


def main():
    root = os.path.dirname(os.path.abspath(__file__))
    for path, text in artifacts():
        try:
            with open(path) as fh:
                current = fh.read()
        except FileNotFoundError:
            current = None
        status = "unchanged"
        if current != text:
            with open(path, "w") as fh:
                fh.write(text)
            status = "written"
        print("%-9s %s" % (status, os.path.relpath(path, root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
