"""Unified diagnostics for every static checker in :mod:`repro.analysis`.

A :class:`Diagnostic` is one finding: a stable machine-matchable code
(``SAC-IR001``, ``F90-RACE002``, ...), a severity, a human message, and
enough location to act on it — the tool/source it came from, the
function or loop it names, a :class:`repro.sac.source.Span`, and
free-form notes.  Checkers append findings to a shared
:class:`DiagnosticEngine`, which collates, formats, serialises
(:meth:`Diagnostic.to_dict` is the JSONL schema shared with
:mod:`repro.obs.export`) and converts errors into
:class:`repro.errors.AnalysisError` on demand.

Diagnostic codes are part of the public contract — tests assert on
them, and renumbering breaks downstream tooling.  Current assignments:

========== =============================================================
code       meaning
========== =============================================================
SAC-IR001  use of a variable with no reaching definition
SAC-IR002  binder hygiene: duplicate binder or rebound module constant
SAC-IR003  type/shape inconsistency (re-check against ``sac.typecheck``)
SAC-IR004  malformed with-loop partition (no generators, empty or
           inconsistent index binders)
SAC-IR005  unsafe ``reuse_in_place`` memory-reuse annotation
SAC-IR006  call to an unknown function
SAC-WL001  generator bounds or body offset outside the result frame
SAC-WL002  overlapping with-loop generators (non-disjoint writes)
SAC-WL003  generators do not cover the frame and no default exists
SAC-WL004  note: all generator pairs proven disjoint with *symbolic*
           bounds (assuming nonnegative size symbols)
DEP001     kernel access provably outside the declared extent/ghost
           width (out-of-bounds stencil read)
DEP002     overlapping writes between strips or loop iterations
           (parallel execution would race)
DEP003     read-after-write between strips (threading would reorder)
DEP004     dependence proof unavailable — dispatcher must serialize
JIT-VEC001 a built kernel's sweep or dt loop is scalar: the compiler
           reports its vectorised loops and names neither
JIT-VEC002 warning: a kernel did not build, so nothing was observed
F90-RACE001 autopar marked a loop parallel that may race (hard error)
F90-RACE002 checker proves a loop independent that autopar serialised
========== =============================================================

``SAC-*``/``F90-*`` come from the SaC/Fortran front-end checkers;
``JIT-VEC*`` from ``repro.lint --jit`` building the kernel matrix;
``DEP*`` from the affine dependence prover (:mod:`repro.analysis.deps`)
that licenses the threaded JIT strip dispatch and upgrades
``wl-check``'s symbolic-bounds verdicts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import AnalysisError
from repro.sac.source import Span

__all__ = ["Severity", "Diagnostic", "DiagnosticEngine"]


class Severity(enum.Enum):
    """How bad a finding is; only ``ERROR`` fails a lint run."""

    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One immutable finding from one checker.

    ``source`` names the producing tool (``sac-verify``, ``wl-check``,
    ``f90-races``); ``where`` is the enclosing function or loop label;
    ``stage`` is the optimisation pass after which an IR verifier
    finding appeared (``None`` outside pipeline verification).
    """

    code: str
    severity: Severity
    message: str
    source: str
    where: str = ""
    span: Optional[Span] = None
    stage: Optional[str] = None
    notes: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        """JSONL form; ``kind`` discriminates from step-trace records."""
        return {
            "kind": "diagnostic",
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "source": self.source,
            "where": self.where,
            "line": self.span.line if self.span else 0,
            "column": self.span.column if self.span else 0,
            "stage": self.stage,
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Diagnostic":
        """Inverse of :meth:`to_dict` (tolerates the ``kind`` tag)."""
        data = dict(payload)
        data.pop("kind", None)
        line = int(data.pop("line", 0))
        column = int(data.pop("column", 0))
        span = Span(line, column) if (line or column) else None
        return cls(
            code=str(data["code"]),
            severity=Severity(data["severity"]),
            message=str(data["message"]),
            source=str(data["source"]),
            where=str(data.get("where", "")),
            span=span,
            stage=data.get("stage") or None,
            notes=tuple(data.get("notes", ())),
        )

    def format(self) -> str:
        """One-line human rendering, ``file:line`` style."""
        location = self.where or "<module>"
        if self.span and self.span.line:
            location = f"{location}:{self.span}"
        head = f"{location}: {self.severity.value}: {self.message} [{self.code}]"
        if self.stage:
            head += f" (after pass '{self.stage}')"
        for note in self.notes:
            head += f"\n    note: {note}"
        return head


class DiagnosticEngine:
    """Collects :class:`Diagnostic` findings across checkers.

    One engine per lint invocation; checkers receive it (or create a
    private one) and :meth:`emit` findings.  The engine knows how to
    count by severity, render a report, serialise for
    :mod:`repro.obs.export`, and escalate errors to
    :class:`~repro.errors.AnalysisError`.
    """

    def __init__(self) -> None:
        self.diagnostics: List[Diagnostic] = []

    # -- emission -------------------------------------------------------

    def emit(self, diagnostic: Diagnostic) -> Diagnostic:
        self.diagnostics.append(diagnostic)
        return diagnostic

    def error(self, code: str, message: str, *, source: str, **kw) -> Diagnostic:
        return self.emit(
            Diagnostic(code, Severity.ERROR, message, source, **kw)
        )

    def warning(self, code: str, message: str, *, source: str, **kw) -> Diagnostic:
        return self.emit(
            Diagnostic(code, Severity.WARNING, message, source, **kw)
        )

    def note(self, code: str, message: str, *, source: str, **kw) -> Diagnostic:
        return self.emit(
            Diagnostic(code, Severity.NOTE, message, source, **kw)
        )

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        for diagnostic in diagnostics:
            self.emit(diagnostic)

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def codes(self) -> List[str]:
        """All emitted codes, in emission order (handy in tests)."""
        return [d.code for d in self.diagnostics]

    # -- output ---------------------------------------------------------

    def format(self) -> str:
        """Multi-line report plus a severity summary line."""
        lines = [d.format() for d in self.diagnostics]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.diagnostics)} diagnostic(s) total"
        )
        return "\n".join(lines)

    def raise_if_errors(self, context: str = "static analysis") -> None:
        """Raise :class:`AnalysisError` carrying the error diagnostics."""
        errors = self.errors
        if not errors:
            return
        summary = "; ".join(d.format().splitlines()[0] for d in errors[:3])
        if len(errors) > 3:
            summary += f"; ... {len(errors) - 3} more"
        raise AnalysisError(
            f"{context} failed with {len(errors)} error(s): {summary}",
            diagnostics=self.diagnostics,
            stage=errors[0].stage,
        )
