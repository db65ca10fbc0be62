#!/usr/bin/env python3
"""Compare two sets of pipeline-benchmark runs.

    python3 benchmarks/pipeline/compare.py A/ B/

``A/`` and ``B/`` hold the saved standard output of runs of
``run.py`` (one file per run; every metric line is read, so traced and
untraced runs may share a directory, and one seed may be run several
times).  For each workload and metric the table gives each side's
median and quartiles and a verdict:

- a metric bounded in ``BENCHMARK.json`` is *unresolved* with fewer
  than ten run pairs; *improved* when B beats A in at least nine tenths
  of the pairs and the medians differ by more than A's quartile spread;
  *unresolved* when either side's spread exceeds the bound, unless
  every B run beats every A run; *worse* when B's median is worse than
  A's by more than the bound; otherwise *unchanged*;
- a timing ``run.py`` prints without a bound (README, "Bounds") is
  *improved* or *worse* when B wins or loses nine tenths of at least
  ten pairs and the medians differ by more than A's quartile spread;
  otherwise it is printed for information;
- an exact counter is *unchanged* only when every run of a seed, on
  both sides, reads the same; *changed* otherwise; *unresolved* when
  the sides share no seed;
- ``fail_ratio`` is *worse* on any rise, and then no metric of that
  workload counts as improved;
- anything else is printed for information.

Runs pair within a seed in file-name order, where both sides ran the
same seeds; else all runs pair in that order.  Exit status: 0 when
nothing is worse, changed or unresolved, else 1.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")

#: Units of counts that repeat exactly for one seed.
EXACT_UNITS = ("count", "bytes")
#: Counts over a whole run, which depend on how fast it went.
TIMING_DEPENDENT = ("serve.batches",)
#: Pairs needed before a timing gets a verdict (guide §8).
MIN_PAIRS = 10
#: Timings ``run.py`` prints without a bound, and which way is better.
UNBOUNDED = {"compile_ms_p50": "lower", "compile_ms_p90": "lower",
             "sim_ms_p50": "lower", "sim_ms_p90": "lower",
             "lines_per_s": "higher", "req_per_s": "higher"}


def load(directory):
    """``{(workload, metric): {seed: [(value, unit), ...]}}`` from the
    metric lines of every file in ``directory``, a seed's runs in
    file-name order."""
    samples = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as fh:
            for i, line in enumerate(fh):
                if not line.startswith("{"):
                    continue
                row = json.loads(line)
                if "workload" not in row:
                    continue
                seed = row.get("seed", "%s:%d" % (name, i))
                samples.setdefault((row["workload"], row["name"]), {}) \
                    .setdefault(seed, []).append((row["value"], row["unit"]))
    return samples


def flat(runs):
    """Every value of ``{seed: [value, ...]}``, seeds in order."""
    return [v for seed in sorted(runs, key=str) for v in runs[seed]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(a, b):
    common = sorted(set(a) & set(b), key=str)
    if common:
        return [pair for s in common for pair in zip(a[s], b[s])]
    return list(zip(flat(a), flat(b)))


def paired_verdict(a, b, better):
    """*improved* (or *worse*) when B wins (or loses) at least nine
    tenths of the pairs, ties counting for neither, and the medians
    differ by more than A's quartile spread; else None."""
    matched = pairs(a, b)
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(flat(a)), quartiles(flat(b))
    if abs(qb[1] - qa[1]) <= qa[2] - qa[0]:
        return None
    for verdict, side in (("improved", -1.0), ("worse", 1.0)):
        moved = sum(1 for x, y in matched if side * sign * (y - x) > 0)
        if moved >= 0.9 * len(matched) and side * sign * (qb[1] - qa[1]) > 0:
            return verdict
    return None


def bounded_verdict(a, b, better, bound):
    """Improved by the paired rule; unresolved with too few pairs or a
    spread past the bound; worse past the bound."""
    if len(pairs(a, b)) < MIN_PAIRS:
        return "unresolved"
    if paired_verdict(a, b, better) == "improved":
        return "improved"
    sign = 1.0 if better == "lower" else -1.0
    va, vb = flat(a), flat(b)
    qa, qb = quartiles(va), quartiles(vb)
    med_a, med_b = qa[1], qb[1]
    spread = max((qa[2] - qa[0]) / med_a if med_a else 0.0,
                 (qb[2] - qb[0]) / med_b if med_b else 0.0)
    all_better = all(sign * (y - x) < 0 for x in va for y in vb)
    if spread > bound and not all_better:
        return "unresolved"
    if med_a and sign * (med_b - med_a) / med_a > bound:
        return "worse"
    return "unchanged"


def exact_verdict(a, b):
    """Every run of each shared seed reads the same on both sides."""
    common = set(a) & set(b)
    if not common:
        return "unresolved"
    same = all(len(set(a[s] + b[s])) == 1 for s in common)
    return "unchanged" if same else "changed"


def compare(samples_a, samples_b, spec):
    """``[(workload, metric, unit, quartiles A, quartiles B, verdict)]``."""
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in spec.get("end_to_end", ())}
    rows = []
    failing = set()
    for key in sorted(set(samples_a) & set(samples_b)):
        workload, metric = key
        a = {s: [v for v, _ in runs] for s, runs in samples_a[key].items()}
        b = {s: [v for v, _ in runs] for s, runs in samples_b[key].items()}
        unit = next(iter(samples_a[key].values()))[0][1]
        if metric in bounds:
            verdict = bounded_verdict(a, b, *bounds[metric])
        elif metric in UNBOUNDED:
            verdict = "info"
            if len(pairs(a, b)) >= MIN_PAIRS:
                verdict = paired_verdict(a, b, UNBOUNDED[metric]) or "info"
        elif metric == "fail_ratio":
            verdict = "worse" if statistics.mean(flat(b)) > \
                statistics.mean(flat(a)) else "unchanged"
            if verdict == "worse":
                failing.add(workload)
        elif unit in EXACT_UNITS and metric not in TIMING_DEPENDENT:
            verdict = exact_verdict(a, b)
        else:
            verdict = "info"
        rows.append([workload, metric, unit, quartiles(flat(a)),
                     quartiles(flat(b)), verdict])
    for row in rows:
        if row[0] in failing and row[5] == "improved":
            row[5] = "unresolved"
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n")[2].strip(), file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    rows = compare(load(argv[0]), load(argv[1]), spec)
    print("%-20s %-30s %-8s %30s %30s  %s" % (
        "workload", "metric", "unit", "A median [q1, q3]",
        "B median [q1, q3]", "verdict"))
    for workload, metric, unit, qa, qb, verdict in rows:
        print("%-20s %-30s %-8s %12.6g [%7.4g, %7.4g] %12.6g [%7.4g, %7.4g]"
              "  %s" % (workload, metric, unit, qa[1], qa[0], qa[2],
                        qb[1], qb[0], qb[2], verdict))
    bad = [r for r in rows if r[5] in ("worse", "changed", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
