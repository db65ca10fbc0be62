"""Code generation back ends.

The paper's compiler emits C source that the host toolchain compiles
into the simulator.  We emit one artifact per unit and derive another:

- :mod:`repro.vhdl.codegen.pymodel` — the executable Python model the
  kernel elaborates (the substitution documented in DESIGN.md §4);
- :mod:`repro.vhdl.codegen.cmodel` — illustrative C source text with
  the same structure, derived from the Python model on demand, keeping
  Figure 2's generated-code accounting meaningful.
"""

from .pymodel import compile_model, load_model

__all__ = ["compile_model", "load_model"]
