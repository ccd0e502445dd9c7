"""OpenMP runtime settings and their cost-model mapping.

The paper tuned the Fortran runs through environment variables and
reports the fastest combination: ``OMP_SCHEDULE=STATIC``,
``OMP_NESTED=TRUE``, ``OMP_DYNAMIC=FALSE`` — and notes the settings
"made a negligible difference".  :class:`OpenMPSettings` carries those
knobs and converts them into a :class:`ForkJoinSyncModel` for the
simulated machine: dynamic scheduling adds per-chunk dispatch cost,
nesting multiplies team-management churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.perf.machine import ForkJoinSyncModel


@dataclass(frozen=True)
class OpenMPSettings:
    schedule: str = "STATIC"   # OMP_SCHEDULE
    nested: bool = True        # OMP_NESTED
    dynamic: bool = False      # OMP_DYNAMIC

    @classmethod
    def paper_settings(cls) -> "OpenMPSettings":
        """The fastest combination found in the paper's Section 5."""
        return cls(schedule="STATIC", nested=True, dynamic=False)

    def sync_model(self) -> ForkJoinSyncModel:
        # Imported here: repro.perf imports repro.f90 (perf.scaling).
        from repro.perf.machine import ForkJoinSyncModel

        fork = 8.0e-6
        per_thread = 3.0e-6
        if self.schedule.upper() == "DYNAMIC":
            per_thread *= 1.8   # per-chunk dispatch through a shared queue
        if self.dynamic:
            fork *= 1.3         # team-size renegotiation on entry
        penalty = 1.5 if self.nested else 1.0
        return ForkJoinSyncModel(
            fork_cost=fork, per_thread_cost=per_thread, nested_penalty=penalty
        )
