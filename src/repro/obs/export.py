"""JSONL round-trip for trace records and lint diagnostics.

One JSON object per line — the format every log pipeline and `jq`
one-liner understands, and what CI uploads next to the ``BENCH_*.json``
records so a regression's telemetry is attached to the run that
produced it.  Step records (``"kind": "step"``) and static-analysis
diagnostics (``"kind": "diagnostic"``, from
:class:`repro.analysis.diag.DiagnosticEngine`) share the schema, so
one file can carry both and consumers dispatch on ``kind``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, List, Union

from repro.obs.trace import StepTrace, TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.diag import Diagnostic, DiagnosticEngine

__all__ = [
    "write_jsonl",
    "read_jsonl",
    "write_diagnostics_jsonl",
    "read_diagnostics_jsonl",
]


def write_jsonl(
    trace: Union[StepTrace, List[TraceRecord]], path: Union[str, Path]
) -> Path:
    """Write a trace's retained records (oldest first) as JSON lines."""
    records = trace.records() if isinstance(trace, StepTrace) else list(trace)
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_json()))
            handle.write("\n")
    return path


def read_jsonl(path: Union[str, Path]) -> List[TraceRecord]:
    """Read records written by :func:`write_jsonl` (blank lines skipped).

    Diagnostic lines in a mixed file are skipped — use
    :func:`read_diagnostics_jsonl` for those.
    """
    records: List[TraceRecord] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            if payload.get("kind", "step") != "step":
                continue
            records.append(TraceRecord.from_json(payload))
    return records


def write_diagnostics_jsonl(
    diagnostics: Union["DiagnosticEngine", Iterable["Diagnostic"]],
    path: Union[str, Path],
) -> Path:
    """Write lint diagnostics as JSON lines (same schema family as
    :func:`write_jsonl`; each line carries ``"kind": "diagnostic"``)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for diagnostic in diagnostics:
            handle.write(json.dumps(diagnostic.to_dict()))
            handle.write("\n")
    return path


def read_diagnostics_jsonl(path: Union[str, Path]) -> List["Diagnostic"]:
    """Read diagnostics written by :func:`write_diagnostics_jsonl`
    (step records in a mixed file are skipped)."""
    from repro.analysis.diag import Diagnostic

    diagnostics: List["Diagnostic"] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            if payload.get("kind", "diagnostic") != "diagnostic":
                continue
            diagnostics.append(Diagnostic.from_dict(payload))
    return diagnostics
