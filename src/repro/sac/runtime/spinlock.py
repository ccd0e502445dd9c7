"""Spin-lock synchronisation — SaC's pthread runtime model.

The paper (Section 5): "SaC does not use system calls for its inter
thread communication but rather uses the programs shared memory and
spin locks to allow inter thread communication with very little
overhead."  Two artefacts live here:

* :class:`SpinBarrier` — a real busy-wait barrier on shared memory
  used by the threaded scheduler (it never blocks in the kernel);
* :class:`SpinSyncModel` / :class:`ForkJoinSyncModel` — the analytic
  costs the machine model charges per parallel region.  The asymmetry
  between them (nanoseconds of shared-memory spinning versus
  microseconds of kernel-assisted fork/join whose cost grows with the
  thread count) is the mechanism behind Fig. 4's divergence.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter


class BarrierAborted(RuntimeError):
    """Raised by an aborted barrier so peers unwind instead of deadlocking."""


class SpinBarrier:
    """A reusable busy-wait barrier (sense-reversing, shared-memory only).

    All waiting is done by spinning on a generation counter; no kernel
    sleep is involved, mirroring the SaC pthread backend's design.

    :meth:`abort` releases current waiters and poisons the barrier —
    every released or subsequent :meth:`wait` raises
    :class:`BarrierAborted` — *except* waits whose generation already
    completed before the abort landed: a successful release must stay
    successful even if the waiter is descheduled between the generation
    bump and its post-release check.  The worker pool uses abort so one
    failing worker cannot strand its siblings mid-step; a spin-budget
    overrun likewise aborts the barrier before raising, so siblings
    unwind immediately instead of burning their own budgets.

    ``wait_seconds`` accumulates wall-clock time spent inside
    :meth:`wait` (telemetry for :mod:`repro.obs`).
    """

    def __init__(self, parties: int, max_spins: int = 10_000_000):
        if parties < 1:
            raise ValueError("a barrier needs at least one party")
        self.parties = parties
        self.max_spins = max_spins
        self._count = parties
        self._generation = 0
        self._aborted = False
        self._abort_generation: int | None = None
        self._lock = threading.Lock()
        self.wait_seconds = 0.0

    def wait(self) -> int:
        """Spin until all parties arrive; returns the generation passed."""
        started = perf_counter()
        try:
            return self._wait()
        finally:
            elapsed = perf_counter() - started
            with self._lock:
                self.wait_seconds += elapsed

    def _wait(self) -> int:
        with self._lock:
            if self._aborted:
                raise BarrierAborted("spin barrier aborted")
            generation = self._generation
            self._count -= 1
            if self._count == 0:
                self._count = self.parties
                self._generation += 1
                return generation
        spins = 0
        while self._generation == generation:
            spins += 1
            if spins > self.max_spins:
                # Abort before raising: siblings spinning on the same
                # generation are released with BarrierAborted right now
                # instead of overrunning their own budgets one by one.
                self.abort()
                raise RuntimeError("spin barrier exceeded its spin budget")
        if self._aborted and self._abort_generation is not None \
                and self._abort_generation <= generation:
            raise BarrierAborted("spin barrier aborted")
        return generation

    def abort(self) -> None:
        """Poison the barrier and release anyone currently spinning.

        Waits of the generation being aborted (and later) raise
        :class:`BarrierAborted`; a wait whose generation was already
        completed by a normal release returns normally even if the
        abort lands before its post-release check.
        """
        with self._lock:
            if self._aborted:
                return
            self._aborted = True
            self._abort_generation = self._generation
            self._count = self.parties
            self._generation += 1


@dataclass(frozen=True)
class SpinSyncModel:
    """Analytic cost of SaC-style spin synchronisation.

    Per parallel region the runtime performs one release and one
    barrier; spinning costs grow only logarithmically with the worker
    count (tree barrier over shared cache lines).
    """

    start_cost: float = 0.4e-6     # seconds: waking workers via shared flag
    per_thread_cost: float = 0.05e-6

    def region_overhead(self, threads: int) -> float:
        if threads <= 1:
            return 0.0
        import math

        return self.start_cost + self.per_thread_cost * math.log2(threads) * 2.0

    def nested_overhead(self, threads: int, outer_iterations: int) -> float:
        """SaC runs one flat, persistent worker team: nesting is free."""
        return 0.0


@dataclass(frozen=True)
class ForkJoinSyncModel:
    """Analytic cost of OpenMP-style fork/join with kernel involvement.

    Sun Studio's auto-parallelised loops fork a team and join it through
    the kernel scheduler; the cost has a fixed syscall floor and grows
    *linearly* with the team size.  This is the overhead the paper blames
    for Fortran's degradation: "added overhead of communication between
    the threads".
    """

    fork_cost: float = 8.0e-6      # seconds: team activation via kernel
    per_thread_cost: float = 3.0e-6
    nested_penalty: float = 1.5    # OMP_NESTED=TRUE multiplies team churn
    inner_fork_cost: float = 5.0e-6     # nested team per outer iteration
    inner_per_thread_cost: float = 2.0e-6

    def region_overhead(self, threads: int) -> float:
        if threads <= 1:
            return 0.0
        return (self.fork_cost + self.per_thread_cost * threads) * self.nested_penalty

    def nested_overhead(self, threads: int, outer_iterations: int) -> float:
        """OMP_NESTED=TRUE: each outer iteration of a parallelised nest
        activates an inner team — the dominant overhead on small grids,
        where it immediately eats the gain from adding cores."""
        if threads <= 1 or self.nested_penalty <= 1.0:
            return 0.0
        return outer_iterations * (
            self.inner_fork_cost + self.inner_per_thread_cost * threads
        )
