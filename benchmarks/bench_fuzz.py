"""Throughput of the generative conformance harness.

Two rates matter for sizing CI sweeps:

- pure *generation* speed (designs/sec off the decision tape) — the
  ceiling of the whole pipeline, and what the reducer pays per
  candidate before the oracle even runs;
- full *generate+check* speed (compile + lint + both-kernel
  differential simulation per design) — what a `repro fuzz` budget
  actually costs.

Results are emitted via ``benchmark.extra_info`` (``--benchmark-json
FILE`` saves them).  The committed ``BENCH_fuzz.json`` baseline is
gated by the ``fuzz`` scenario in ``scenarios.py``: the same seed with
a budget of 15 designs.
"""

from repro.gen import generate_for
from repro.gen.runner import run_sweep

from scenarios import FUZZ_SEED as SEED

GEN_BUDGET = 200
CHECK_BUDGET = 12


def test_generation_throughput(benchmark):
    """Tape-to-source rendering only — no oracle."""

    def generate():
        return [generate_for(SEED, i) for i in range(GEN_BUDGET)]

    designs = benchmark(generate)
    total_lines = sum(d.lines for d in designs)
    benchmark.extra_info["designs"] = GEN_BUDGET
    benchmark.extra_info["total_lines"] = total_lines
    benchmark.extra_info["designs_per_s"] = round(
        GEN_BUDGET / benchmark.stats.stats.mean, 1)


def test_generate_and_check_throughput(benchmark):
    """The full conformance pipeline per design."""

    def sweep():
        return run_sweep(SEED, CHECK_BUDGET, jobs=1,
                         shrink_failures=False)

    report = benchmark(sweep)
    assert report.ok, report.failures
    benchmark.extra_info["designs"] = CHECK_BUDGET
    benchmark.extra_info["outcomes"] = dict(report.counts)
    benchmark.extra_info["designs_per_s"] = round(
        CHECK_BUDGET / benchmark.stats.stats.mean, 1)
