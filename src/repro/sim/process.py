"""Processes and wait conditions.

A VHDL process compiles to a Python generator; suspending is a
``yield`` of a :class:`WaitRequest`.  The kernel resumes a process when
one of its awaited signals has an event and the condition holds, or
when its timeout expires — the simulation-cycle synchronization the
paper lists among VHDL's hardware-specific features.
"""


class WaitRequest:
    """One ``wait [on ...] [until ...] [for ...]`` suspension."""

    __slots__ = ("signals", "condition", "timeout")

    def __init__(self, signals=None, condition=None, timeout=None):
        self.signals = list(signals) if signals else []
        self.condition = condition  # nullary callable or None
        self.timeout = timeout  # delay in fs or None

    def __repr__(self):
        parts = []
        if self.signals:
            parts.append("on %s" % ",".join(s.name for s in self.signals))
        if self.condition is not None:
            parts.append("until <cond>")
        if self.timeout is not None:
            parts.append("for %d fs" % self.timeout)
        return "<wait %s>" % " ".join(parts or ["forever"])


class Process:
    """A running process: generator plus current wait state.

    ``sensitivity`` is the statically declared sensitivity list (or
    None for wait-driven processes) — kept so telemetry and tracers
    can attribute wakeups.  ``resumes`` counts kernel resumptions and
    ``exec_seconds`` accumulates wall-clock execution time (only
    advanced when the kernel's metrics registry is enabled)."""

    __slots__ = (
        "name",
        "generator",
        "wait",
        "timeout_at",
        "done",
        "kernel",
        "sensitivity",
        "resumes",
        "exec_seconds",
        "decl_line",
        "index",
    )

    def __init__(self, name, generator, sensitivity=None,
                 decl_line=None):
        self.name = name
        self.generator = generator
        self.wait = None
        self.timeout_at = None
        self.done = False
        self.kernel = None
        self.sensitivity = (
            list(sensitivity) if sensitivity is not None else None)
        self.resumes = 0
        self.exec_seconds = 0.0
        self.decl_line = decl_line  # declaring source line or None
        #: Registration order in the owning kernel; the calendar
        #: scheduler resumes in this order (determinism), matching the
        #: reference scan's sweep order.  -1 outside any kernel.
        self.index = -1

    def should_resume(self, step, now):
        """Resume test against the current cycle's events.

        Only the :class:`~repro.sim.kernel.ScanKernel` reference
        scheduler sweeps with this predicate; the calendar kernel
        reaches waiting processes through the signal fanout index and
        the timeout calendar instead."""
        if self.done or self.wait is None:
            return False
        w = self.wait
        if self.timeout_at is not None and now >= self.timeout_at:
            return True
        if w.signals and any(s.had_event(step) for s in w.signals):
            if w.condition is None:
                return True
            return bool(w.condition())
        return False

    def __repr__(self):
        state = "done" if self.done else ("waiting" if self.wait else "ready")
        return "<Process %s [%s]>" % (self.name, state)
