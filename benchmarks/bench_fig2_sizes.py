"""E1 — Figure 2: size summary of the compiler.

The paper reports hand-written source versus generated C per component:

                      source          [generated] C
    AG               16827 (37%)      67919 (62%)
    VIF description   1265 ( 3%)      14200 (13%)
    out-of-line func 20845 (45%)      20845 (19%)
    interface code    7132 (15%)       7132 ( 6%)
    total            46069            110096

We regenerate the same table for this repository: our AG sources are
the two grammar-spec modules, the VIF description is ``schema.vif``,
the out-of-line functions are the semantic helper modules, and the
interface code is drivers/library/elaboration.  "Generated" counts the
code our generators actually emit: the VIF access module, and the
Python models produced by compiling a reference workload plus the C
text derived from them.
"""

import os

import repro

from workloads import count_lines, gen_configuration, gen_design, \
    gen_structural

SRC = os.path.dirname(os.path.abspath(repro.__file__))

#: Figure 2 row -> the files playing that role here.
CATEGORIES = {
    "AG": [
        "vhdl/grammar.py",
        "vhdl/expr_grammar.py",
        "vif/schema_lang.py",
    ],
    "VIF description": [
        "vif/schema.vif",
    ],
    "out-of-line func": [
        "vhdl/expr_sem.py",
        "vhdl/semantics_decl.py",
        "vhdl/semantics_stmt.py",
        "vhdl/semantics_unit.py",
        "vhdl/lef.py",
        "vhdl/vtypes.py",
        "vhdl/symtab.py",
        "vhdl/stdpkg.py",
    ],
    "interface code": [
        "vhdl/compiler.py",
        "vhdl/compile_ctx.py",
        "vhdl/library.py",
        "vhdl/elaborate.py",
        "vhdl/lexer.py",
        "vhdl/codegen/cmodel.py",
        "vhdl/codegen/pymodel.py",
    ],
}

PAPER = {
    "AG": (16827, 37, 67919, 62),
    "VIF description": (1265, 3, 14200, 13),
    "out-of-line func": (20845, 45, 20845, 19),
    "interface code": (7132, 15, 7132, 6),
}


def _loc(rel):
    with open(os.path.join(SRC, rel)) as f:
        return count_lines(f.read())


def measure_sizes():
    from repro.ag.emit import emit_evaluator_source
    from repro.vhdl.codegen.cmodel import c_model
    from repro.vhdl.compiler import Compiler
    from repro.vhdl.expr_grammar import expr_grammar
    from repro.vhdl.grammar import principal_grammar
    from repro.vif import nodes
    from repro.vif.schema_lang import schema_processor

    source = {
        cat: sum(_loc(f) for f in files)
        for cat, files in CATEGORIES.items()
    }

    generated = dict(source)  # hand-written code "generates itself",
    # as in Figure 2's out-of-line and interface rows.
    # The AG row generates (a) the evaluators — LALR tables, rule
    # indices, visit sequences, emitted exactly as Linguist emitted its
    # C evaluator — and (b) the model code produced for a reference
    # workload.
    evaluator_lines = sum(
        count_lines(emit_evaluator_source(g))
        for g in (principal_grammar(), expr_grammar(),
                  schema_processor()[1])
    )
    compiler = Compiler()
    compiler.compile(gen_design(n_packages=2, n_units=4))
    compiler.compile(gen_structural("big", "unit0", n_instances=4))
    compiler.compile(gen_configuration(
        "cfg", "big", "struct", ["u0", "u1"], "unit0", "rtl"))
    model_lines = 0
    for _, node in compiler.library.units_of("work"):
        model_lines += count_lines(node.py_source)
        model_lines += count_lines(c_model(node))
    generated["AG"] = evaluator_lines + model_lines
    generated["VIF description"] = count_lines(nodes.generated_source())
    return source, generated


def format_table(source, generated):
    s_total = sum(source.values())
    g_total = sum(generated.values())
    rows = ["%-18s %8s %6s   %10s %6s" % (
        "", "source", "", "generated", "")]
    for cat in CATEGORIES:
        rows.append("%-18s %8d (%3d%%)   %10d (%3d%%)" % (
            cat, source[cat], round(100 * source[cat] / s_total),
            generated[cat], round(100 * generated[cat] / g_total)))
    rows.append("%-18s %8d          %10d" % ("total", s_total, g_total))
    return "\n".join(rows)


def test_fig2_size_summary(benchmark):
    source, generated = benchmark(measure_sizes)
    print()
    print("=== E1 / Figure 2: compiler size summary ===")
    print(format_table(source, generated))
    print()
    print("paper's row shares: AG 37%/62%, VIF 3%/13%, "
          "out-of-line 45%/19%, interface 15%/6%")

    s_total = sum(source.values())
    # Shape checks mirroring Figure 2: out-of-line functions are the
    # largest hand-written block; the VIF description is tiny relative
    # to the access code generated from it.
    assert source["out-of-line func"] == max(source.values())
    assert source["VIF description"] / s_total < 0.10
    assert generated["VIF description"] > 4 * source["VIF description"]
    # The AG row generates (far) more code than any other row.
    assert generated["AG"] == max(generated.values())

    benchmark.extra_info["source_total"] = s_total
    benchmark.extra_info["generated_total"] = sum(generated.values())
