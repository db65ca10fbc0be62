"""Span analysis: per-name totals, AG totals and the ``repro trace``
CLI views.

Operates on plain event dicts — Chrome-trace JSON files (a bare list
or ``{"traceEvents": [...]}``), span JSONL (one event per line, e.g. a
dump of ``GET /trace``), or any mix — and answers the questions the
tracing system exists for: is the tree connected, where did the time
go, what was slowest.

Only complete ("X") events participate in tree building; counters and
instants pass through merging untouched.
"""

import json
from collections import Counter


# -- loading and merging -----------------------------------------------------


def load_spans(path):
    """Events from a Chrome-trace JSON or span-JSONL file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except ValueError:
        events = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            if isinstance(event, dict):
                events.append(event)
        return events
    if isinstance(data, dict):
        data = data.get("traceEvents", data.get("spans", []))
    if not isinstance(data, list):
        raise ValueError("%s: not a trace file" % path)
    return [ev for ev in data if isinstance(ev, dict)]


def merge_spans(*event_lists):
    """Concatenate event lists in stable (ts, pid, tid) order."""
    merged = []
    for events in event_lists:
        merged.extend(events)
    merged.sort(key=lambda ev: (ev.get("ts", 0), ev.get("pid", 0),
                                ev.get("tid", 0)))
    return merged


# -- tree building -----------------------------------------------------------


def _complete_spans(events, trace_id=None):
    spans = [ev for ev in events if ev.get("ph") == "X"]
    if trace_id is not None:
        spans = [ev for ev in spans if ev.get("trace_id") == trace_id]
    return spans


def build_trees(events, trace_id=None):
    """Forest of ``{"span": event, "children": [...]}`` nodes.

    A span whose ``parent_id`` is absent *or* names a span not in the
    input becomes a root (the latter happens when the parent lives in
    another file that wasn't merged in — the tree is still shown
    rather than silently dropped).  Children sort by start time.
    """
    spans = _complete_spans(events, trace_id)
    nodes = {}
    for span in spans:
        span_id = span.get("span_id")
        node = {"span": span, "children": []}
        if span_id is not None:
            # Last writer wins on duplicate ids (merged overlapping
            # files); duplicates without ids each get their own node.
            nodes[span_id] = node
        else:
            nodes[id(span)] = node
    roots = []
    for node in nodes.values():
        parent_id = node["span"].get("parent_id")
        parent = nodes.get(parent_id) if parent_id else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent["children"].append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda n: n["span"].get("ts", 0))
    roots.sort(key=lambda n: n["span"].get("ts", 0))
    return roots


def validate(events, trace_id=None):
    """Connectivity report: how tree-like is this span set?"""
    spans = _complete_spans(events, trace_id)
    ids = {ev.get("span_id") for ev in spans if ev.get("span_id")}
    roots = 0
    unresolved = 0
    for span in spans:
        parent_id = span.get("parent_id")
        if not parent_id:
            roots += 1
        elif parent_id not in ids:
            unresolved += 1
    return {
        "spans": len(spans),
        "roots": roots,
        "unresolved_parents": unresolved,
        "pids": sorted({ev.get("pid") for ev in spans
                        if ev.get("pid") is not None}),
        "trace_ids": sorted({ev.get("trace_id") for ev in spans
                             if ev.get("trace_id")}),
    }


def render_tree(events, trace_id=None, max_spans=None):
    """The forest as indented text lines, durations in ms."""
    roots = build_trees(events, trace_id)
    lines = []

    def visit(node, depth):
        if max_spans is not None and len(lines) >= max_spans:
            return
        span = node["span"]
        dur_ms = span.get("dur", 0) / 1000.0
        label = "%s%s" % ("  " * depth, span.get("name", "?"))
        extra = "pid %s" % span.get("pid", "?")
        if span.get("trace_id") and depth == 0:
            extra += "  trace %s" % span["trace_id"][:16]
        lines.append("%-48s %10.3f ms  %s" % (label, dur_ms, extra))
        for child in node["children"]:
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    if max_spans is not None and len(lines) >= max_spans:
        lines.append("... (truncated at %d spans)" % max_spans)
    return lines


# -- per-name totals ---------------------------------------------------------


def span_totals(events):
    """``{name: (seconds, count)}`` over the complete spans.

    The one aggregation behind ``CompileResult.timings``, the
    ``--profile`` tables and the ``*_phase_seconds`` metrics."""
    totals = {}
    for ev in _complete_spans(events):
        seconds, count = totals.get(ev["name"], (0.0, 0))
        totals[ev["name"]] = (seconds + ev.get("dur", 0.0) / 1e6,
                              count + 1)
    return totals


def ag_totals(events):
    """``(firings per grammar, memo hits)`` summed over the
    ``attribute_evaluation`` spans in ``events``: the AG totals of
    every compile they cover, a fork worker's included."""
    firings = Counter()
    hits = 0
    for ev in _complete_spans(events):
        if ev["name"] == "attribute_evaluation":
            args = ev.get("args") or {}
            firings.update(args.get("firings", ()))
            hits += args.get("memo_hits", 0)
    return firings, hits


def render_totals(events, title="profile"):
    """The ``--profile`` table: wall time per span name, slowest
    first."""
    totals = span_totals(events)
    pids = {ev.get("pid") for ev in events if ev.get("pid") is not None}
    lines = ["%s: %d event(s) from %d process(es)"
             % (title, len(events), len(pids))]
    for name in sorted(totals, key=totals.get, reverse=True):
        seconds, count = totals[name]
        lines.append("  %-28s %10.3f ms  x%d"
                     % (name, seconds * 1e3, count))
    return "\n".join(lines)


# -- hot-spot views ----------------------------------------------------------


def slowest_spans(events, n=10, trace_id=None):
    """The n longest complete spans, longest first."""
    spans = _complete_spans(events, trace_id)
    spans.sort(key=lambda ev: ev.get("dur", 0), reverse=True)
    return spans[:n]


def rollup(events, trace_id=None):
    """Flame-style aggregation keyed by name path ("a > b > c").

    Returns rows of ``{"path", "count", "total_us", "self_us"}``
    sorted by total time.  Self time is the span's duration minus its
    direct children's — the flame graph's "where the time actually
    went" number.  Spans that never formed a tree (no ids) still
    aggregate under their bare name.
    """
    roots = build_trees(events, trace_id)
    rows = {}

    def visit(node, prefix):
        span = node["span"]
        path = (prefix + " > " if prefix else "") + span.get("name", "?")
        dur = span.get("dur", 0)
        child_dur = sum(c["span"].get("dur", 0) for c in node["children"])
        row = rows.setdefault(path, {"path": path, "count": 0,
                                     "total_us": 0.0, "self_us": 0.0})
        row["count"] += 1
        row["total_us"] += dur
        row["self_us"] += max(0.0, dur - child_dur)
        for child in node["children"]:
            visit(child, path)

    for root in roots:
        visit(root, "")
    return sorted(rows.values(),
                  key=lambda r: r["total_us"], reverse=True)


def render_rollup(rows, limit=None):
    lines = ["%-56s %7s %12s %12s" % ("path", "count",
                                      "total ms", "self ms")]
    for row in rows[:limit]:
        lines.append("%-56s %7d %12.3f %12.3f" % (
            row["path"][:56], row["count"],
            row["total_us"] / 1000.0, row["self_us"] / 1000.0))
    return lines
