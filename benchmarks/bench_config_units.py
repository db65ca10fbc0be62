"""E5 — footnote 3: configuration units compile disproportionately
slowly per source line.

"Configuration units typically consist of very few source lines that
cause large data structures built by compiling other compilation units
to be read into memory and edited ...; the bulk of the work in
processing these units is in reading and traversing these data
structures rather than analyzing the source code."

We compile (a) a behavioral unit and (b) a configuration unit for a
previously compiled structural design, both measured end-to-end with
the foreign-VIF re-read a fresh compilation session performs, and
compare per-line costs.
"""

import json
import time

from repro.vhdl.compiler import Compiler
from repro.vhdl.library import LibraryManager

from workloads import (
    count_lines,
    gen_configuration,
    gen_entity_arch,
    gen_structural,
)


def prepare_library():
    compiler = Compiler()
    compiler.compile(gen_entity_arch("leaf", n_processes=6,
                                     n_signals=8,
                                     stmts_per_process=10))
    compiler.compile(gen_structural("board", "leaf", n_instances=48))
    return compiler


def measure_pair():
    compiler = prepare_library()

    behavioral = gen_entity_arch("plain", n_processes=4,
                                 stmts_per_process=8)
    t0 = time.perf_counter()
    res_b = compiler.compile(behavioral)
    t_behavioral = time.perf_counter() - t0
    assert res_b.ok

    # "Very few source lines": one for-all binding — but compiling it
    # in a fresh session forces the whole board VIF into memory.
    config = gen_configuration(
        "cfg", "board", "struct", ["all"], "leaf", "rtl")
    # A fresh session compiles the configuration: the configured
    # design's VIF is read back from its stored (serialized) form and
    # traversed — exactly the paper's dominant cost for these units.
    stored = {
        (lib, key): json.dumps(compiler.library.payload_of(lib, key))
        for lib, key in compiler.library.compile_order
        if lib == "work"
    }
    t0 = time.perf_counter()
    fresh = LibraryManager()
    for (lib, key), text in stored.items():
        fresh._store.payloads[(lib, key)] = json.loads(text)
        fresh._libraries.add(lib)
        node = fresh.reader.read_unit(lib, key)["unit"]
        fresh._units[(lib, key)] = node
        fresh.compile_order.append((lib, key))
    t_read = time.perf_counter() - t0
    session = Compiler(library=fresh)
    res_c = session.compile(config)
    t_config = t_read + (time.perf_counter() - t0 - t_read)
    t_config = time.perf_counter() - t0
    assert res_c.ok, res_c.messages[:3]

    return {
        "behavioral_lines": count_lines(behavioral),
        "behavioral_time": t_behavioral,
        "config_lines": count_lines(config),
        "config_time": t_config,
        "config_read": t_read,
        "config_syntax": res_c.timings["scan"] + res_c.timings["parse"],
    }


def test_configuration_units_slower_per_line(benchmark):
    m = benchmark.pedantic(measure_pair, rounds=3, iterations=1)
    per_line_b = m["behavioral_time"] / m["behavioral_lines"]
    per_line_c = m["config_time"] / m["config_lines"]
    print()
    print("=== E5 / footnote 3: configuration-unit cost ===")
    print("  behavioral unit: %4d lines, %6.1f ms, %6.2f ms/line"
          % (m["behavioral_lines"], m["behavioral_time"] * 1e3,
             per_line_b * 1e3))
    print("  config unit:     %4d lines, %6.1f ms, %6.2f ms/line"
          % (m["config_lines"], m["config_time"] * 1e3,
             per_line_c * 1e3))
    print("    of which foreign-VIF read: %6.1f ms;"
          " own syntax analysis: %6.2f ms"
          % (m["config_read"] * 1e3, m["config_syntax"] * 1e3))
    print("  per-line ratio: %.1fx (paper: configs 'not as fast')"
          % (per_line_c / per_line_b))
    benchmark.extra_info["per_line_ratio"] = round(
        per_line_c / per_line_b, 2)
    benchmark.extra_info["read_vs_syntax"] = round(
        m["config_read"] / max(m["config_syntax"], 1e-9), 1)
    # The paper's precise claim: "the bulk of the work in processing
    # these units is in reading and traversing these data structures
    # rather than analyzing the source code of the configuration
    # unit."  Reading the foreign VIF dominates the config's own
    # syntax analysis by a wide margin.
    assert m["config_lines"] < m["behavioral_lines"] / 4
    assert m["config_read"] > 3 * m["config_syntax"]
