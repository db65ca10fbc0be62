"""The simulation kernel: simulation-cycle semantics and delta cycles.

One simulation cycle (IEEE 1076-1987 §12, the semantics the paper's
kernel implements):

1. advance time to the next activity (or stay put for a delta cycle);
2. update every active signal from its drivers' projected waveforms,
   determining the cycle's *events*;
3. resume every process whose wait is satisfied by those events or
   whose timeout expired;
4. execute the resumed processes until each suspends again — their
   assignments project new transactions, possibly at the current time,
   which makes the next cycle a delta cycle.

Scheduling is **activity-driven** (the §5.1 point that preemptive
signal assignment pushes the scheduling burden onto the kernel):

- an **event calendar** — a ``heapq`` of ``(time, seq, kind, payload)``
  entries fed by every signal assignment and wait timeout — replaces
  the full scan over all signals and processes that previously ran
  *twice* per cycle.  Preemption (inertial or transport) never edits
  the heap; entries are **lazily deleted**: at pop time an entry is
  live only while its signal still has a projected transaction due
  then (``Signal.next_time()``) or its process's timeout is still set
  for then (``Process.timeout_at``), so preempted transactions and
  already-satisfied waits cannot produce phantom cycles or phantom
  timesteps.
- phase 2 updates only the cycle's **pending-update set** — the
  signals whose calendar entries came due — instead of scanning every
  signal for due transactions.
- phase 3 consults the **fanout index**: each signal keeps the set of
  processes currently waiting on it (registered at suspension,
  unregistered at resumption), so only processes sensitive to this
  cycle's actual events — plus expired timeouts — are visited.

Per-cycle cost is therefore O(active · log heap), not O(design); the
reference full-scan scheduler survives as :class:`ScanKernel` for
differential testing and `benchmarks/bench_kernel_scaling.py`.
"""

import heapq
import time as _time
from collections import Counter

from ..metrics import NULL_REGISTRY
from ..trace.context import current_context
from ..trace.recorder import NULL_RECORDER
from .process import Process, WaitRequest
from .runtime import RuntimeError_, ops
from .signals import Signal
from .vhdlio import AssertionFailure, SeverityLogger

#: Calendar entry kinds (third tuple slot).  The strictly increasing
#: sequence number in slot two makes every entry unique, so heap
#: comparisons never reach the payload object.
_SIGNAL = 0
_TIMEOUT = 1


class SimulationError(Exception):
    """Kernel-level failure (unbounded delta loop, bad yield, ...)."""


class _KernelOrigin:
    """Report origin for kernel-internal notes (not a real process)."""

    name = "<kernel>"


_KERNEL_ORIGIN = _KernelOrigin()


class Kernel:
    """An event-driven simulator instance (activity-driven calendar)."""

    def __init__(self, max_deltas=10000, logger=None, metrics=None,
                 trace=NULL_RECORDER, trace_sample=1):
        self.now = 0
        self.step = 0  # simulation-cycle stamp, for 'EVENT / 'ACTIVE
        self.signals = []
        self.processes = []
        self.max_deltas = max_deltas
        self.current_process = None
        self.logger = logger or SeverityLogger()
        self.rt = RT(self)
        self._initialized = False
        self.cycles = 0  # executed simulation cycles (bench metric)
        self.delta_cycles = 0  # cycles that did not advance time
        self.truncated_transactions = 0  # abandoned by run(until=...)
        self.waveforms = []  # repro.sim.tracing.WaveformRecorder objects
        # -- the event calendar -------------------------------------
        self._calendar = []  # heap of (time, seq, kind, payload)
        self._seq = 0  # entry tie-breaker; also total pushes
        self.stale_pops = 0  # entries discarded by lazy deletion
        self.fanout_visits = 0  # waiter visits through the index
        self.calendar_peak = 0  # high-water heap size
        #: delta-run length -> timesteps that ran that many delta
        #: cycles (``run()`` only), for ``sim_deltas_per_timestep``
        self.delta_runs = Counter()
        # -- telemetry (repro.metrics).  The kernel keeps plain counts;
        # ``repro.metrics.bridge.bridge_kernel`` harvests them into a
        # registry at snapshot time.  An enabled ``metrics`` registry
        # only turns on the perf_counter pairs of per-process timing.
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._timed = bool(getattr(self.metrics, "enabled", False))
        # -- causal tracing (repro.trace).  ``trace`` is a
        # ``repro.trace.SpanRecorder``; every ``trace_sample``-th
        # timestep and process resume becomes a span, parented into
        # the ambient span context captured at initialize/run.  Gated
        # exactly like ``_timed``: with the disabled NULL_RECORDER the
        # whole feature costs one local bool test per cycle and one
        # attribute test per resume.
        self.trace = trace
        self.trace_sample = max(1, int(trace_sample or 1))
        self._traced = trace.enabled
        self._trace_ctx = None
        self._trace_resumes = 0

    # -- construction ------------------------------------------------------

    def signal(self, name, init, resolution=None, image=None):
        sig = Signal(name, init, resolution, image)
        sig.kernel = self
        sig.index = len(self.signals)  # registration order (determinism)
        self.signals.append(sig)
        return sig

    def process(self, name, generator_fn, sensitivity=None, line=None):
        """Register a process.

        ``generator_fn`` is a nullary callable returning the process
        generator.  ``sensitivity`` — the statically known sensitivity
        signals — is stored on the :class:`Process` so the metrics
        report and tracers can attribute wakeups to their sources (the
        generated code still ends its loop with the equivalent wait).
        ``line`` is the declaring source line (diagnostics).
        """
        proc = Process(name, generator_fn(), sensitivity=sensitivity,
                       decl_line=line)
        proc.kernel = self
        proc.index = len(self.processes)  # registration order
        self.processes.append(proc)
        return proc

    # -- scheduling ----------------------------------------------------------

    def _push(self, t, kind, payload):
        """Add one calendar entry (a conservative activity hint)."""
        self._seq = seq = self._seq + 1
        heap = self._calendar
        heapq.heappush(heap, (t, seq, kind, payload))
        if len(heap) > self.calendar_peak:
            self.calendar_peak = len(heap)

    def _peek_time(self):
        """Earliest pending activity time, or None when quiescent.

        Pops stale calendar entries (lazy deletion) until the top of
        the heap is live: a signal entry is live while the signal still
        has a projected transaction due at-or-before the entry's time;
        a timeout entry while the process is still waiting with that
        deadline.  Never earlier than ``now``.
        """
        heap = self._calendar
        pop = heapq.heappop
        stale = 0
        tn = None
        while heap:
            t, _seq, kind, payload = heap[0]
            if kind == _SIGNAL:
                nt = payload.next_time()
                if nt is not None and nt <= t:
                    tn = t
                    break
            else:
                if (not payload.done and payload.wait is not None
                        and payload.timeout_at is not None
                        and payload.timeout_at <= t):
                    tn = t
                    break
            pop(heap)
            stale += 1
        if stale:
            self.stale_pops += stale
        if tn is not None and tn < self.now:
            tn = self.now
        return tn

    def _pop_due(self, tn):
        """Phase 1: drain this timestep's calendar entries into the
        pending-update signal set and the expired-timeout process set,
        discarding entries stale-ified by preemption or earlier
        resumption."""
        heap = self._calendar
        pop = heapq.heappop
        pending = set()  # signals with a due transaction
        expired = set()  # processes whose timeout expired
        stale = 0
        while heap and heap[0][0] <= tn:
            _t, _seq, kind, payload = pop(heap)
            if kind == _SIGNAL:
                nt = payload.next_time()
                if nt is not None and nt <= tn:
                    pending.add(payload)
                else:
                    stale += 1
            else:
                if (not payload.done and payload.wait is not None
                        and payload.timeout_at is not None
                        and payload.timeout_at <= tn):
                    expired.add(payload)
                else:
                    stale += 1
        if stale:
            self.stale_pops += stale
        return pending, expired

    # -- execution -----------------------------------------------------------

    def initialize(self):
        """The initialization phase: run every process once."""
        if self._initialized:
            return
        self._initialized = True
        if self._traced and self._trace_ctx is None:
            self._trace_ctx = current_context()
        self.step = 0
        for proc in list(self.processes):
            self._execute(proc)

    def _trace_span(self, name, ts_us, dur_us, **args):
        """Record one kernel span under the captured run context."""
        ctx = self._trace_ctx
        self.trace.add_span(
            name, ctx.child() if ctx is not None else None, ts_us,
            dur_us, cat="sim", **args)

    def _execute(self, proc):
        """Run one process until it suspends (or finishes)."""
        self.current_process = proc
        proc.resumes += 1
        rec = False
        if self._traced:
            self._trace_resumes = n = self._trace_resumes + 1
            rec = (n - 1) % self.trace_sample == 0
        ts_us = _time.time() * 1e6 if rec else 0.0
        t0 = _time.perf_counter() if (self._timed or rec) else 0.0
        try:
            request = next(proc.generator)
        except StopIteration:
            proc.done = True
            proc.wait = None
            return
        except AssertionFailure:
            proc.done = True
            raise
        finally:
            if self._timed or rec:
                dt = _time.perf_counter() - t0
                if self._timed:
                    proc.exec_seconds += dt
                if rec:
                    self._trace_span("process_resume", ts_us, dt * 1e6,
                                     process=proc.name)
            self.current_process = None
        if not isinstance(request, WaitRequest):
            raise SimulationError(
                "process %r yielded %r instead of a wait request"
                % (proc.name, request)
            )
        proc.wait = request
        signals = request.signals
        if signals:
            # Enter the fanout index: phase 3 will find this process
            # through the signals it awaits, not by sweeping.
            for sig in signals:
                sig.waiters.add(proc)
        timeout = request.timeout
        if timeout is not None:
            t = self.now + (timeout if timeout > 0 else 0)
            proc.timeout_at = t
            self._push(t, _TIMEOUT, proc)
        else:
            proc.timeout_at = None

    def _cycle(self, tn):
        """Execute one simulation cycle at (already validated) ``tn``."""
        self.now = now = tn
        self.step = step = self.step + 1
        self.cycles += 1

        pending, expired = self._pop_due(tn)

        # Phase 2: update only the pending signals; collect the
        # processes their events reach through the fanout index.
        event_procs = set()
        if pending:
            fanout = 0
            update_candidates = event_procs.update
            for sig in sorted(pending, key=_signal_order):
                if sig.update(now, step):
                    waiters = sig.waiters
                    if waiters:
                        fanout += len(waiters)
                        update_candidates(waiters)
            if fanout:
                self.fanout_visits += fanout

        for waveform in self.waveforms:
            waveform.on_cycle(now, step)

        # Phase 3: resume expired timeouts unconditionally and event
        # receivers whose condition holds — in registration order,
        # exactly as the reference scan does.
        resumed = []
        if expired or event_procs:
            for proc in sorted(expired | event_procs, key=_process_order):
                if proc.done:
                    continue
                w = proc.wait
                if w is None:
                    continue
                if proc in expired:
                    resumed.append(proc)
                    continue
                cond = w.condition
                if cond is None or cond():
                    resumed.append(proc)
            for proc in resumed:
                # Leave the fanout index before clearing the wait.
                w = proc.wait
                if w is not None:
                    for sig in w.signals:
                        sig.waiters.discard(proc)
                proc.wait = None
                proc.timeout_at = None
            for proc in resumed:
                self._execute(proc)

    def cycle(self):
        """Execute one simulation cycle; returns False when quiescent."""
        self.initialize()
        tn = self._peek_time()
        if tn is None:
            return False
        self._cycle(tn)
        return True

    def run(self, until=None, max_cycles=None):
        """Run simulation cycles until quiescent, ``until`` fs passes,
        or ``max_cycles`` cycles execute.  Returns the final time."""
        self.initialize()
        deltas = 0
        last_time = self.now
        executed = 0
        # Hoist hot attribute lookups out of the loop.
        peek = self._peek_time
        one_cycle = self._cycle
        max_deltas = self.max_deltas
        delta_runs = self.delta_runs
        traced = self._traced
        if traced:
            sample = self.trace_sample
            if self._trace_ctx is None:
                self._trace_ctx = current_context()
            base_ctx = self._trace_ctx
        while True:
            tn = peek()
            if tn is None:
                break
            if until is not None and tn > until:
                self._note_truncation(until, tn)
                self.now = until
                break
            if traced and executed % sample == 0:
                # Record this timestep as a span; resume spans emitted
                # inside it nest under it (the swap of _trace_ctx).
                step_ctx = (base_ctx.child()
                            if base_ctx is not None else None)
                self._trace_ctx = step_ctx
                ts_us = _time.time() * 1e6
                t0 = _time.perf_counter()
                one_cycle(tn)
                dur_us = (_time.perf_counter() - t0) * 1e6
                self._trace_ctx = base_ctx
                self.trace.add_span(
                    "timestep", step_ctx, ts_us, dur_us, cat="sim",
                    t_fs=tn, step=self.step)
            else:
                one_cycle(tn)
            executed += 1
            if max_cycles is not None and executed >= max_cycles:
                break
            now = self.now
            if now == last_time:
                deltas += 1
                self.delta_cycles += 1
                if deltas > max_deltas:
                    raise SimulationError(
                        "more than %d delta cycles at %d fs — "
                        "unbounded zero-delay loop" % (max_deltas, now)
                    )
            else:
                delta_runs[deltas] += 1
                deltas = 0
                last_time = now
        if executed:
            # Flush the last timestep's delta count — but only when at
            # least one cycle actually executed: a quiescent run must
            # not record a spurious zero observation.
            delta_runs[deltas] += 1
        return self.now

    def _note_truncation(self, until, next_time):
        """``run(until=...)`` stops before the next activity: count the
        projected transactions it abandons instead of dropping them
        silently, and leave a note-severity record behind."""
        pending = sum(
            len(driver.waveform)
            for sig in self.signals
            for driver in sig.drivers.values()
        )
        pending += sum(
            1 for proc in self.processes
            if not proc.done and proc.wait is not None
            and proc.timeout_at is not None and proc.timeout_at > until
        )
        if not pending:
            return
        self.truncated_transactions += pending
        from .tracing import format_fs

        self.logger.report(
            "note",
            "simulation truncated at %s: %d pending transaction(s)/"
            "timeout(s) beyond the stop time (next activity at %s)"
            % (format_fs(until), pending, format_fs(next_time)),
            until, _KERNEL_ORIGIN, fail=False)


def _signal_order(sig):
    """Deterministic phase-2 update order: registration order."""
    return sig.index


def _process_order(proc):
    """Deterministic phase-3 resume order: registration order."""
    return proc.index


class ScanKernel(Kernel):
    """The pre-calendar reference scheduler: O(design) full scans.

    Every cycle scans *all* signals and *all* processes — once to find
    the next activity time, again to update due signals, and a third
    time (``Process.should_resume``) to pick resumptions.  Kept for

    - **differential testing**: any workload must produce identical
      cycle/delta counts, waveforms, VCD output, and ``sim_*``
      telemetry on both schedulers (``tests/sim/test_calendar.py``);
    - **benchmarking**: ``benchmarks/bench_kernel_scaling.py`` and the
      ``kernel_scaling`` bench-check scenario measure the calendar
      kernel's speedup against this baseline on sparse workloads.
    """

    def _push(self, t, kind, payload):
        """The scan scheduler derives activity times by scanning; it
        keeps no calendar (matching the original kernel's cost
        profile exactly)."""

    def _peek_time(self):
        best = None
        for sig in self.signals:
            t = sig.next_time()
            if t is not None and (best is None or t < best):
                best = t
        for proc in self.processes:
            if proc.done or proc.wait is None:
                continue
            t = proc.timeout_at
            if t is not None and (best is None or t < best):
                best = t
        if best is not None and best < self.now:
            best = self.now
        return best

    def _cycle(self, tn):
        self.now = tn
        self.step += 1
        self.cycles += 1

        for sig in self.signals:
            nxt = sig.next_time()
            if nxt is not None and nxt <= self.now:
                sig.update(self.now, self.step)

        for waveform in self.waveforms:
            waveform.on_cycle(self.now, self.step)

        resumed = [
            p for p in self.processes if p.should_resume(self.step, self.now)
        ]
        for proc in resumed:
            w = proc.wait
            if w is not None:
                # The shared ``_execute`` maintains the fanout index;
                # keep it consistent even though this scheduler never
                # reads it.
                for sig in w.signals:
                    sig.waiters.discard(proc)
            proc.wait = None
            proc.timeout_at = None
        for proc in resumed:
            self._execute(proc)


class RT:
    """The per-kernel runtime facade generated code calls.

    One instance per kernel; the executing process is tracked by the
    kernel so driver lookup is implicit, exactly as the paper's
    generated C relied on kernel state.
    """

    __slots__ = ("kernel", "ops")

    def __init__(self, kernel):
        self.kernel = kernel
        self.ops = ops

    # -- signals ----------------------------------------------------------------

    def read(self, sig):
        return sig.value

    def assign(self, sig, waveform, transport=False):
        """Signal assignment: waveform is ((value, delay_fs), ...)."""
        kernel = self.kernel
        proc = kernel.current_process
        if proc is None:
            raise SimulationError(
                "signal assignment to %r outside any process" % sig.name
            )
        driver = sig.driver_for(proc)
        times = driver.schedule(kernel.now, waveform, transport)
        if times:
            # Feed the event calendar: one entry per projected
            # transaction.  Entries made stale by later preemption are
            # dropped lazily at pop time.
            push = kernel._push
            for t in times:
                push(t, _SIGNAL, sig)

    def event(self, sig):
        return 1 if sig.had_event(self.kernel.step) else 0

    def active(self, sig):
        return 1 if sig.is_active(self.kernel.step) else 0

    def last_value(self, sig):
        return sig.last_value

    # -- waiting --------------------------------------------------------------------

    def wait(self, signals=None, condition=None, timeout=None):
        """Build the wait request a process yields."""
        return WaitRequest(signals, condition, timeout)

    # -- misc -------------------------------------------------------------------------

    @property
    def now(self):
        return self.kernel.now

    def assert_(self, condition, message, severity="error"):
        if not condition:
            self.kernel.logger.report(
                severity, message, self.kernel.now,
                self.kernel.current_process,
            )

    def check(self, value, low, high, what="value"):
        return ops.check_range(value, low, high, what)
