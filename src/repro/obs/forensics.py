"""Turn a :class:`~repro.errors.PhysicsError` into a debuggable report.

When a run blows up, a bare "non-positive pressure" message forces the
user to rerun under a debugger to learn *where* and *when*.  The
validators in :mod:`repro.euler.state` already attach the offending
cell indices and a primitive-variable neighbourhood to the exception;
this module combines those with the active
:class:`~repro.euler.solver.SolverConfig`, the solver's step/time, and
the tail of the :class:`~repro.obs.trace.StepTrace` (when the run was
watched) into one :class:`ForensicReport`.

:func:`attach_forensics` is called in one place, by the member driver
every solver is a view of (`repro.euler.solver._MemberDriver`), when a
member fails mid-step — so a ``run()`` or ``step()`` that dies of a
:class:`PhysicsError`, and every member an ensemble retires, carries
``error.forensics`` for free.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import Neighbourhood, PhysicsError
from repro.euler import state
from repro.obs.trace import StepTrace, TraceRecord

__all__ = [
    "ForensicReport",
    "attach_forensics",
    "build_report",
    "format_report",
    "TRACE_TAIL",
]

#: How many trailing trace records a report keeps.
TRACE_TAIL = 16


@dataclass
class ForensicReport:
    """Everything known about a physics failure, in one place."""

    message: str
    context: Optional[str]
    cells: List[Tuple[int, ...]]
    neighbourhood: Optional[Neighbourhood]
    config: Optional[Dict[str, object]]
    step: Optional[int]
    time: Optional[float]
    trace_tail: List[TraceRecord] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)
    #: Batch member that failed (``None`` for single-problem runs);
    #: ``member`` carries the ensemble's identity dict for it (name,
    #: index, sweep params).  ``cells``/``neighbourhood`` are member-local.
    batch_index: Optional[int] = None
    member: Optional[Dict[str, object]] = None

    def to_json(self) -> Dict[str, object]:
        """JSON-serialisable form (neighbourhood values become lists)."""
        neighbourhood = None
        if self.neighbourhood is not None:
            neighbourhood = {
                "origin": list(self.neighbourhood.origin),
                "values": np.asarray(self.neighbourhood.values).tolist(),
            }
        return {
            "message": self.message,
            "context": self.context,
            "cells": [list(cell) for cell in self.cells],
            "neighbourhood": neighbourhood,
            "config": self.config,
            "step": self.step,
            "time": self.time,
            "trace_tail": [record.to_json() for record in self.trace_tail],
            "details": _jsonable(self.details),
            "batch_index": self.batch_index,
            "member": _jsonable(self.member) if self.member is not None else None,
        }


def build_report(
    error: PhysicsError,
    solver=None,
    trace: Optional[StepTrace] = None,
    tail: int = TRACE_TAIL,
) -> ForensicReport:
    """Assemble a :class:`ForensicReport` for ``error``.

    ``solver`` (optional; anything with ``config``/``steps``/``time``/
    ``u``, which is also what a trace reads) contributes the active
    config, step count and simulated time, and — when the error carries
    cell indices but no neighbourhood — a primitive window reconstructed
    from the current state.  ``trace`` contributes its last ``tail``
    records.
    """
    config = None
    step = None
    time = None
    neighbourhood = error.neighbourhood
    if solver is not None:
        solver_config = getattr(solver, "config", None)
        if solver_config is not None:
            config = dataclasses.asdict(solver_config)
        steps = getattr(solver, "steps", None)
        step = int(steps) if steps is not None else None
        t = getattr(solver, "time", None)
        time = float(t) if t is not None else None
        if neighbourhood is None and error.cells:
            try:
                neighbourhood = state.neighbourhood_of(
                    state.primitive_from_conservative(
                        solver.u, solver_config.gamma
                    ),
                    error.cells[0],
                )
            except Exception:
                # The state itself may be the thing that is broken;
                # forensics must never mask the original failure.
                neighbourhood = None
    return ForensicReport(
        message=str(error),
        context=error.context,
        cells=list(error.cells),
        neighbourhood=neighbourhood,
        config=config,
        step=step,
        time=time,
        trace_tail=trace.last(tail) if trace is not None else [],
        details=dict(error.details),
        batch_index=getattr(error, "batch_index", None),
        member=getattr(error, "member", None),
    )


def attach_forensics(
    error: PhysicsError,
    solver=None,
    trace: Optional[StepTrace] = None,
    tail: int = TRACE_TAIL,
) -> PhysicsError:
    """Set ``error.forensics`` (once) and return the error.

    Idempotent: the first report wins, so an outer driver catching the
    same exception does not overwrite it.
    """
    if getattr(error, "forensics", None) is None:
        error.forensics = build_report(error, solver=solver, trace=trace, tail=tail)
    return error


def format_report(report: ForensicReport) -> str:
    """Human-readable rendering of a report (what a CLI would print)."""
    lines = [f"PhysicsError forensics: {report.message}"]
    if report.context:
        lines.append(f"  detected in : {report.context}")
    if report.batch_index is not None:
        member = report.member or {}
        name = member.get("name")
        params = member.get("params")
        described = f"  batch member: {report.batch_index}"
        if name:
            described += f" ({name}"
            if params:
                described += f", {_jsonable(params)}"
            described += ")"
        lines.append(described)
    if report.step is not None:
        lines.append(f"  at step     : {report.step} (t = {report.time:.6e})")
    if report.cells:
        lines.append(f"  bad cells   : {', '.join(str(c) for c in report.cells)}")
    if report.neighbourhood is not None:
        values = np.asarray(report.neighbourhood.values)
        lines.append(
            f"  neighbourhood (origin {report.neighbourhood.origin},"
            f" shape {values.shape[:-1]}, fields rho/vel.../p):"
        )
        with np.printoptions(precision=4, suppress=False, linewidth=100):
            for row in str(values).splitlines():
                lines.append(f"    {row}")
    if report.details:
        lines.append(f"  details     : {_jsonable(report.details)}")
    if report.config:
        interesting = {
            k: v
            for k, v in report.config.items()
            if k in ("reconstruction", "limiter", "riemann", "rk_order", "cfl", "gamma")
        }
        lines.append(f"  config      : {interesting}")
    if report.trace_tail:
        lines.append(
            f"  last {len(report.trace_tail)} steps (step, dt,"
            " min_rho, min_p, mass_drift):"
        )
        for record in report.trace_tail:
            lines.append(
                f"    {record.step:6d}  dt={record.dt:.4e}"
                f"  min_rho={record.min_density:+.4e}"
                f"  min_p={record.min_pressure:+.4e}"
                f"  mass_drift={record.mass_drift:+.2e}"
            )
    return "\n".join(lines)


def _jsonable(details: Dict[str, object]) -> Dict[str, object]:
    """Coerce numpy scalars in a details dict to plain Python numbers."""
    out: Dict[str, object] = {}
    for key, value in details.items():
        if isinstance(value, np.generic):
            value = value.item()
        out[key] = value
    return out
