"""Step-level telemetry and failure forensics for the stepping stack.

The paper's argument rests on trusting long unsteady runs (1000 steps
on 400x400, Fig. 4) and on diagnosing *why* a parallel configuration
degrades.  This package is the observability layer that makes both
possible:

* :mod:`repro.obs.trace` — :class:`StepTrace`, a ring-buffer recorder
  of per-step telemetry (dt, CFL, conservation totals and drift, min
  density/pressure, per-phase seconds from the
  :class:`~repro.euler.engine.StepEngine` counters, worker count and
  barrier-wait time from :mod:`repro.par`).  Solvers accept it via
  the ``watch=`` keyword; ``watch=None`` (the default) costs one
  attribute check per step and zero allocations.
* :mod:`repro.obs.forensics` — on any
  :class:`~repro.errors.PhysicsError` that fails a run or retires an
  ensemble member, a :class:`ForensicReport`: the offending cell indices, a
  primitive-variable neighbourhood dump, the last N trace records and
  the active :class:`~repro.euler.solver.SolverConfig`.
* :mod:`repro.obs.export` — JSONL round-trip of trace records for
  offline analysis.
"""

from repro.obs.trace import StepTrace, TraceRecord
from repro.obs.forensics import (
    ForensicReport,
    attach_forensics,
    build_report,
    format_report,
)
from repro.obs.export import (
    read_diagnostics_jsonl,
    read_jsonl,
    write_diagnostics_jsonl,
    write_jsonl,
)

__all__ = [
    "StepTrace",
    "TraceRecord",
    "ForensicReport",
    "attach_forensics",
    "build_report",
    "format_report",
    "read_jsonl",
    "write_jsonl",
    "read_diagnostics_jsonl",
    "write_diagnostics_jsonl",
]
