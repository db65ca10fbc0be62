"""repro.analysis — static design analysis over compiled designs.

Two analysis layers share one rule registry, one diagnostic surface,
and one baseline format:

* the *linter* sits between compilation and elaboration: it reads
  the facts the attribute-grammar front end computed and stored in
  the VIF (declaration tables, per-process dataflow records, port
  maps) and checks per-unit design rules (RPL) and attribute-grammar
  rules (RPA);
* the *dataflow analyzer* sits between elaboration and simulation:
  it flattens the elaborated design into a signal/process graph
  (:func:`build_netlist`), resolves reads and drives through
  instance port maps, and checks whole-design rules (RPE —
  combinational loops, static drive races, cross-clock transfers,
  dead cones) plus the levelization pass whose ``repro-levels/1``
  artifact is the evaluation order a compiled backend consumes.

Findings are ordinary :mod:`repro.diag` diagnostics, so rendering
(caret text, JSON lines, SARIF 2.1.0 with a populated rules
catalog), ``-Werror`` promotion, and metrics counting all come for
free.

Entry points:

* :class:`LintEngine` — the library API (``repro lint``,
  ``repro analyze`` and the build driver's ``--lint`` all call it);
* :data:`REGISTRY` / :func:`register` — the pluggable rule registry;
* :func:`extract_unit_facts` — reads a unit's rule-agnostic dataflow
  facts from its VIF tables;
* :func:`build_netlist` / :class:`DesignGraph` — the flattened
  elaborated-design graph;
* :func:`levels_artifact` / :func:`levelize` — the levelization pass;
* baselines: :func:`load_baseline` / :func:`write_baseline` /
  :func:`apply_baseline` (schema ``repro-lint-baseline/1``).
"""

from .dataflow import (
    LEVELS_SCHEMA,
    combinational_loops,
    levelize,
    levels_artifact,
    tarjan_scc,
)
from .engine import (
    BASELINE_SCHEMA,
    LintEngine,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from .facts import (
    DriveFact,
    InstanceFact,
    ObjectFact,
    ProcessFact,
    UnitFacts,
    WaitFact,
    extract_unit_facts,
)
from .netlist import DesignGraph, NetProcess, NetSignal, build_netlist
from .rules import REGISTRY, LintContext, Rule, all_rules, register

__all__ = [
    "BASELINE_SCHEMA",
    "DesignGraph",
    "DriveFact",
    "InstanceFact",
    "LEVELS_SCHEMA",
    "LintContext",
    "LintEngine",
    "NetProcess",
    "NetSignal",
    "ObjectFact",
    "ProcessFact",
    "REGISTRY",
    "Rule",
    "UnitFacts",
    "WaitFact",
    "all_rules",
    "apply_baseline",
    "build_netlist",
    "combinational_loops",
    "extract_unit_facts",
    "levelize",
    "levels_artifact",
    "load_baseline",
    "register",
    "tarjan_scc",
    "write_baseline",
]
