"""The target virtual machine (§2.1).

"The virtual machine consists of four modules: (1) Simulation Kernel,
(2) Runtime Support, (3) VHDL I/O, (4) Name Server."

- :mod:`repro.sim.kernel` — the simulation kernel: simulation-cycle
  semantics, delta cycles, activity-driven process scheduling (event
  calendar + signal fanout index; :class:`~repro.sim.kernel.ScanKernel`
  keeps the full-scan reference scheduler for differential testing).
- :mod:`repro.sim.compiled` / :mod:`repro.sim.codegen` — the compiled
  backend: per-design specialized code (flat signal storage, direct
  process dispatch, calendar-bypassing slot updates), byte-identical
  to the event kernel.
- :mod:`repro.sim.signals` — signals, drivers, projected output
  waveforms, preemption, bus resolution.
- :mod:`repro.sim.process` — processes and wait conditions.
- :mod:`repro.sim.runtime` — runtime support: all the predefined VHDL
  operations over runtime values, plus the per-process runtime facade
  (``rt``) generated code calls.
- :mod:`repro.sim.vhdlio` — VHDL I/O (assertion reporting and a
  TEXTIO-flavored write path).
- :mod:`repro.sim.nameserver` — "the means of identifying by name each
  object in the simulated system".

The names below are re-exported lazily (PEP 562), so a process that
only compiles reads :data:`TIME_UNITS` without importing a kernel or
the code generator.
"""

from importlib import import_module

#: Re-exported name -> the submodule defining it.
_EXPORTS = {
    "CompiledKernel": ".compiled",
    "Kernel": ".kernel",
    "NameServer": ".nameserver",
    "ScanKernel": ".kernel",
    "Signal": ".signals",
    "SimulationError": ".kernel",
    "VArray": ".runtime",
    "VRecord": ".runtime",
    "ops": ".runtime",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


#: The user-facing simulation backends (``repro sim --backend`` and
#: serve ``/sim``): name -> kernel class name.  ``ScanKernel`` is not
#: one: it is the differential oracle of ``repro fuzz`` and the tests.
BACKENDS = {"event": "Kernel", "compiled": "CompiledKernel"}


def backend_kernel(name):
    """The kernel class of the backend called ``name``."""
    return __getattr__(BACKENDS[name])

#: femtoseconds per time unit, primary unit first — the runtime's
#: representation of type TIME.
TIME_UNITS = (
    ("fs", 1),
    ("ps", 10**3),
    ("ns", 10**6),
    ("us", 10**9),
    ("ms", 10**12),
    ("sec", 10**15),
    ("min", 60 * 10**15),
    ("hr", 3600 * 10**15),
)


def parse_time(text):
    """'200ns' / '1 us' / '5000' (fs) -> femtoseconds.  A negative or
    non-finite time raises :class:`ValueError`."""
    text = text.strip().lower().replace(" ", "")
    for unit, scale in sorted(TIME_UNITS, key=lambda u: -len(u[0])):
        if text.endswith(unit):
            value = float(text[: -len(unit)]) * scale
            break
    else:
        value = int(text)
    if not 0 <= value < float("inf"):
        raise ValueError("time %r is negative or not finite" % text)
    return int(value)


#: Sampling stride for kernel spans on traced runs (``repro sim
#: --profile`` and serve ``/sim``): every Nth timestep and process
#: resume is recorded, so a long run adds bounded span volume.
TRACE_SAMPLE = 100
