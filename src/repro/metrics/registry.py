"""A dependency-free metrics registry: counters, gauges, histograms.

The paper's headline claim is quantitative — compile and simulation
speed "not unacceptably slower" than hand-written compilers (§5) — so
the reproduction needs a uniform way to *measure* itself.  This module
is the single sink every subsystem reports into:

- :class:`Counter` — monotonically increasing totals (cycles run,
  cache hits, rule firings);
- :class:`Gauge` — point-in-time values (worker utilization, truncated
  transactions);
- :class:`Histogram` — distributions over fixed log-scale buckets
  (delta cycles per timestep, per-process execution time).

Every metric is a *family*: ``family.labels(process="clk")`` returns a
child carrying those labels, so one family covers all signals or all
processes.  The unlabeled family itself behaves as its own child for
the common no-label case.

Two hard requirements shape the design:

1. **Zero overhead when disabled.**  :data:`NULL_REGISTRY` (a
   :class:`NullRegistry`) hands out a shared no-op metric whose
   ``inc``/``set``/``observe`` bodies are empty — hot loops keep a
   child handle and pay one no-op method call, nothing else.  Code
   gates genuinely expensive measurement (``perf_counter`` pairs) on
   ``registry.enabled``.
2. **One snapshot format.**  :meth:`MetricsRegistry.snapshot` emits
   the ``repro-metrics/1`` JSON envelope shared by ``repro stats
   --json``, ``--metrics-out``, and the ``BENCH_*.json`` benchmark
   schema; :func:`repro.metrics.prometheus.render_prometheus` renders
   the same data in Prometheus text exposition format.
"""

import time

SCHEMA = "repro-metrics/1"


def envelope(kind, **fields):
    """The common ``repro-metrics/1`` JSON envelope."""
    data = {"schema": SCHEMA, "kind": kind,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    data.update(fields)
    return data


def log125_buckets(lo=1, hi=10**6):
    """The fixed log-scale 1-2-5 bucket bounds in [lo, hi]."""
    bounds = []
    decade = 1
    while decade <= hi:
        for mult in (1, 2, 5):
            b = decade * mult
            if lo <= b <= hi:
                bounds.append(b)
        decade *= 10
    return tuple(bounds)


#: Default histogram bounds: 1-2-5 series, six decades.
DEFAULT_BUCKETS = log125_buckets(1, 10**6)

#: Bounds for second-valued histograms (1 µs .. 10 s).
SECONDS_BUCKETS = tuple(b * 1e-6 for b in log125_buckets(1, 10**7))


def _label_key(labels):
    return tuple(sorted(labels.items()))


class _Family:
    """Shared family behaviour: named children keyed by label sets.

    A family with no labels acts as its own single child, so
    ``registry.counter("x").inc()`` works without ``labels()``.
    """

    kind = None

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self._children = {}

    def labels(self, **labels):
        """The child metric carrying ``labels`` (created on demand)."""
        if not labels:
            return self
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def _samples(self):
        """[(labels-dict, child)] including the unlabeled self."""
        out = []
        if self._has_data():
            out.append(({}, self))
        for key, child in sorted(self._children.items()):
            out.append((dict(key), child))
        return out

    def describe(self):
        """The snapshot entry for this family."""
        samples = []
        for labels, child in self._samples():
            sample = child._sample_dict()
            sample["labels"] = labels
            samples.append(sample)
        return {"type": self.kind, "help": self.help,
                "samples": samples}


class Counter(_Family):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name, help=""):
        _Family.__init__(self, name, help)
        self.value = 0

    def _make_child(self):
        return Counter(self.name, self.help)

    def inc(self, n=1):
        self.value += n

    def set_total(self, value):
        """Harvest-style update: adopt an externally maintained total.

        Bridges (AGObserver, build cache, per-signal counts) keep
        plain integer counters in their own hot paths and publish them
        here at snapshot time; the metric stays a counter semantically.
        """
        self.value = value

    def _has_data(self):
        return self.value != 0 or not self._children

    def _sample_dict(self):
        return {"value": self.value}


class Gauge(_Family):
    """A point-in-time value that can go up and down."""

    kind = "gauge"

    def __init__(self, name, help=""):
        _Family.__init__(self, name, help)
        self.value = 0

    def _make_child(self):
        return Gauge(self.name, self.help)

    def set(self, value):
        self.value = value

    def inc(self, n=1):
        self.value += n

    def dec(self, n=1):
        self.value -= n

    def _has_data(self):
        return self.value != 0 or not self._children

    def _sample_dict(self):
        return {"value": self.value}


class Histogram(_Family):
    """A distribution over fixed (log-scale by default) buckets."""

    kind = "histogram"

    def __init__(self, name, help="", buckets=DEFAULT_BUCKETS):
        _Family.__init__(self, name, help)
        self.bounds = tuple(sorted(buckets))
        self.counts = [0] * (len(self.bounds) + 1)  # +1: +Inf
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = None
        self.exemplar = None  # {"trace_id", "value"} of the max obs

    def _make_child(self):
        return Histogram(self.name, self.help, self.bounds)

    def set_observations(self, tally):
        """Harvest-style update: become the histogram of ``tally``
        (value -> number of observations), a plain count its owner's
        hot path kept."""
        self.__init__(self.name, self.help, self.bounds)
        for value, n in sorted(tally.items()):
            self.observe(value, n=n)

    def observe(self, value, trace_id=None, n=1):
        """Record ``n`` observations of ``value``."""
        self.count += n
        self.sum += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
            # OpenMetrics-style exemplar: the slowest observation
            # keeps the trace that caused it, so "p99 spiked" links
            # straight to a span tree in the ring / trace endpoint.
            if trace_id is not None:
                self.exemplar = {"trace_id": trace_id, "value": value}
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= value
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.counts[lo] += n

    def _has_data(self):
        return self.count != 0 or not self._children

    def _sample_dict(self):
        buckets = []
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            buckets.append([bound, running])
        running += self.counts[-1]
        buckets.append(["+Inf", running])
        sample = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,  # cumulative, Prometheus-style
        }
        if self.exemplar is not None:
            sample["exemplar"] = dict(self.exemplar)
        return sample


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """The live registry: named metric families, one snapshot."""

    enabled = True

    def __init__(self):
        self._metrics = {}  # name -> family (insertion-ordered)

    # -- registration ------------------------------------------------------

    def _get(self, name, kind, help, **kwargs):
        family = self._metrics.get(name)
        if family is not None:
            if family.kind != kind:
                raise ValueError(
                    "metric %r already registered as a %s, not a %s"
                    % (name, family.kind, kind))
            return family
        family = _KINDS[kind](name, help, **kwargs)
        self._metrics[name] = family
        return family

    def counter(self, name, help=""):
        return self._get(name, "counter", help)

    def gauge(self, name, help=""):
        return self._get(name, "gauge", help)

    def histogram(self, name, help="", buckets=DEFAULT_BUCKETS):
        return self._get(name, "histogram", help, buckets=buckets)

    def get(self, name):
        return self._metrics.get(name)

    def names(self):
        return list(self._metrics)

    # -- export ------------------------------------------------------------

    def snapshot(self, **extra):
        """The ``repro-metrics/1`` snapshot of every family."""
        metrics = {
            name: family.describe()
            for name, family in self._metrics.items()
        }
        return envelope("metrics-snapshot", metrics=metrics, **extra)

    def render_prometheus(self):
        from .prometheus import render_prometheus

        return render_prometheus(self.snapshot())

    def summary(self, title="metrics"):
        """A short human-readable table of scalar samples."""
        lines = ["%s: %d famil(ies)" % (title, len(self._metrics))]
        for name, family in self._metrics.items():
            for labels, child in family._samples():
                tag = "{%s}" % ",".join(
                    "%s=%s" % kv for kv in sorted(labels.items())
                ) if labels else ""
                if family.kind == "histogram":
                    lines.append(
                        "  %-44s count=%d sum=%s"
                        % (name + tag, child.count, _short(child.sum)))
                else:
                    lines.append("  %-44s %s"
                                 % (name + tag, _short(child.value)))
        return "\n".join(lines)


def _short(value):
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


class _NullMetric:
    """The shared do-nothing metric the null registry hands out."""

    __slots__ = ()

    def labels(self, **labels):
        return self

    def inc(self, n=1):
        pass

    def dec(self, n=1):
        pass

    def set(self, value):
        pass

    def set_total(self, value):
        pass

    def observe(self, value, trace_id=None):
        pass

    value = 0
    count = 0
    sum = 0


NULL_METRIC = _NullMetric()


class NullRegistry:
    """The disabled-path registry: every metric is the no-op metric.

    Hot loops keep child handles, so the enabled/disabled decision is
    made once at construction; afterwards the only cost of disabled
    metrics is an empty method call.
    """

    enabled = False

    def counter(self, name, help=""):
        return NULL_METRIC

    def gauge(self, name, help=""):
        return NULL_METRIC

    def histogram(self, name, help="", buckets=DEFAULT_BUCKETS):
        return NULL_METRIC

    def get(self, name):
        return None

    def names(self):
        return []

    def snapshot(self, **extra):
        return envelope("metrics-snapshot", metrics={}, **extra)

    def render_prometheus(self):
        from .prometheus import render_prometheus

        return render_prometheus(self.snapshot())

    def summary(self, title="metrics"):
        return "%s: disabled" % title


NULL_REGISTRY = NullRegistry()
