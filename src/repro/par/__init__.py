"""The worker team under the Euler sweeps (measured parallelism).

``repro.perf`` *models* the paper's 16-core Opteron; this package
*executes* the 2-D Euler solver on real worker threads: one persistent
team per process with pluggable spin vs fork/join barriers
(:mod:`repro.par.pool`), and :class:`ParallelSolver2D`, the serial
solver whose engine runs each sweep's strip plan on that team.  See
DESIGN.md §3 and the measured mode of ``repro.perf.scaling``.
"""

from repro.par.pool import (
    BARRIER_KINDS,
    DEFAULT_BARRIER,
    BarrierAborted,
    CondBarrier,
    WorkerPool,
    close_team,
    make_barrier,
    shared_team,
)
from repro.par.solver import ParallelSolver2D

__all__ = [
    "BARRIER_KINDS",
    "DEFAULT_BARRIER",
    "BarrierAborted",
    "CondBarrier",
    "WorkerPool",
    "close_team",
    "make_barrier",
    "shared_team",
    "ParallelSolver2D",
]
