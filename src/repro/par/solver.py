"""The 2-D Euler solver with its sweep strips on a worker team.

:class:`ParallelSolver2D` *is* :class:`repro.euler.solver.EulerSolver2D`
— the one :class:`~repro.euler.engine.StepEngine` on the one global
state — whose engine was built with a team: ``workers`` threads
synchronised by ``barrier`` (:mod:`repro.par.pool`).  There is no second
decomposition: the strip plan every sweep already runs over is what the
team splits, the dependence proof (:mod:`repro.analysis.deps`) is why
that is safe, and shared memory is why nothing is exchanged — SaC's
runtime splitting a with-loop's index space, not message passing.  So
bit-for-bit equality is the engine's own strip contract, and errors,
forensics and telemetry are the serial solver's, in global cell indices.

Threads apply only where a compiled kernel serves the strip (NumPy
strips on two threads measured 0.5-0.8x of serial: the GIL); without one
the strips run serially and ``engine.counters()["team"]["serialized"]``
says why.  The plan is not re-cut for the team: choose ``tile_bytes`` so
that a sweep has at least ``workers`` strips.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.euler.boundary import BoundarySet2D
from repro.euler.solver import EulerSolver2D, RunResult, SolverConfig
from repro.par.pool import DEFAULT_BARRIER, BarrierAborted, close_team, make_barrier

__all__ = ["ParallelSolver2D"]


class ParallelSolver2D(EulerSolver2D):
    """:class:`EulerSolver2D` whose engine runs sweep strips on a team."""

    def __init__(
        self,
        primitive: np.ndarray,
        dx: float,
        dy: float,
        boundaries: BoundarySet2D,
        config: Optional[SolverConfig] = None,
        *,
        workers: int = 1,
        barrier: str = DEFAULT_BARRIER,
        watch=None,
    ):
        make_barrier(barrier, 1)  # an unknown kind fails here, not in the first sweep
        self._team = {"workers": workers, "barrier": barrier}
        super().__init__(primitive, dx, dy, boundaries, config, watch=watch)

    @classmethod
    def from_serial(
        cls, serial: EulerSolver2D, *, workers: int = 1, barrier: str = DEFAULT_BARRIER
    ) -> "ParallelSolver2D":
        """Wrap a serial solver's current state and configuration."""
        solver = cls(
            serial.primitive, serial.dx, serial.dy, serial.boundaries, serial.config,
            workers=workers, barrier=barrier,
        )
        # Adopt the conservative state directly: the primitive round trip
        # through the constructor is 1 ulp lossy on evolved states.
        solver.u[...] = serial.u
        solver.time = serial.time
        solver.steps = serial.steps
        return solver

    @property
    def workers(self) -> int:
        return self.engine.workers

    @property
    def barrier_wait_seconds(self) -> float:
        """Seconds this solver's sweep rounds spent in the team's barriers."""
        backend = self.engine.backend
        return backend.barrier_wait_seconds if backend is not None else 0.0

    def close(self) -> None:
        """Shut down the process's team of this size and kind (idempotent;
        the next threaded sweep of any solver starts a new one)."""
        close_team(self.engine.workers, self.engine.barrier)

    def __enter__(self) -> "ParallelSolver2D":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, t_end=None, max_steps=None, callback=None, watch=None) -> RunResult:
        """:meth:`EulerSolver2D.run`; an interrupt tears the team down.

        A :class:`KeyboardInterrupt` (or a barrier poisoned by one) must
        not leave workers waiting — with ``spin``, burning a core.  One
        *inside* a round already shuts the team down (broken round);
        this covers those that land between rounds, the team idle.
        """
        try:
            return super().run(t_end, max_steps, callback, watch)
        except (KeyboardInterrupt, BarrierAborted):
            self.close()
            raise
