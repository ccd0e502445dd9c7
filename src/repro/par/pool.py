"""The one worker team: a persistent pool with pluggable barriers.

The paper's Fig. 4 asymmetry is a *synchronisation* story: SaC keeps a
flat team of pthreads alive for the whole run and synchronises them by
spinning on shared memory, while the auto-parallelised Fortran pays a
kernel-assisted fork/join per parallel region.  ``repro.perf.machine``
models that difference analytically; this module makes it *executable*:
the same worker team can be driven by

* ``"forkjoin"`` (the default) — :class:`CondBarrier`,
  a condition-variable barrier that puts waiters to sleep in the kernel
  and wakes them on release, the fork/join idiom, or
* ``"spin"`` — :class:`repro.sac.runtime.spinlock.SpinBarrier` (busy-wait
  on a generation counter, no kernel sleep).  A *Python* busy-wait holds
  the GIL for its switch interval and so starves the thread doing the
  step's serial part: selectable for the F4b experiment, nobody's default.

This is the only place that creates threads for Euler steps: the
compiled stage releases the GIL, and ``JitBackend`` runs each phase of a
stage plan — its strips shared out over the workers — as one
:meth:`WorkerPool.run` round, the round's end being the phase barrier.  Like
SaC's runtime there is one team per process — :func:`shared_team`, one
pool per ``(workers, barrier kind)`` — so solvers come and go without
the thread count growing.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sac.runtime.spinlock import BarrierAborted, SpinBarrier

__all__ = [
    "BarrierAborted",
    "CondBarrier",
    "WorkerPool",
    "make_barrier",
    "shared_team",
    "close_team",
    "BARRIER_KINDS",
    "DEFAULT_BARRIER",
]

#: Spin budget for pool barriers.  Generous: a worker may legitimately
#: spin through a sibling's whole share of a sweep; 10M (the scheduler
#: default) can be exceeded on large grids or oversubscribed hosts.
POOL_MAX_SPINS = 200_000_000


class CondBarrier:
    """A reusable condition-variable barrier (kernel-assisted fork/join).

    Same interface as :class:`SpinBarrier` (``wait``/``abort``), but
    waiters sleep on a condvar — each release is a trip through the
    kernel scheduler, the cost the paper blames for Fortran's
    degradation ("added overhead of communication between the threads").
    """

    def __init__(self, parties: int):
        if parties < 1:
            raise ValueError("a barrier needs at least one party")
        self.parties = parties
        self._count = parties
        self._generation = 0
        self._aborted = False
        self._abort_generation: Optional[int] = None
        self._cond = threading.Condition()
        self.wait_seconds = 0.0

    def wait(self) -> int:
        """Sleep until all parties arrive; returns the generation passed."""
        started = perf_counter()
        try:
            return self._wait()
        finally:
            elapsed = perf_counter() - started
            with self._cond:
                self.wait_seconds += elapsed

    def _wait(self) -> int:
        with self._cond:
            if self._aborted:
                raise BarrierAborted("condvar barrier aborted")
            generation = self._generation
            self._count -= 1
            if self._count == 0:
                self._count = self.parties
                self._generation += 1
                self._cond.notify_all()
                return generation
            while self._generation == generation and not self._aborted:
                self._cond.wait()
            # Same post-release rule as SpinBarrier: an abort that lands
            # *after* this generation already completed must not turn the
            # successful wait into a spurious BarrierAborted.
            if (
                self._aborted
                and self._abort_generation is not None
                and self._abort_generation <= generation
            ):
                raise BarrierAborted("condvar barrier aborted")
            return generation

    def abort(self) -> None:
        """Poison the barrier and wake anyone currently sleeping."""
        with self._cond:
            if self._aborted:
                return
            self._aborted = True
            self._abort_generation = self._generation
            self._cond.notify_all()


#: What a team synchronises with unless told otherwise.
DEFAULT_BARRIER = "forkjoin"

#: Barrier factories by name, one name per kind: :func:`shared_team`
#: keys its teams on the name.
BARRIER_KINDS = {
    "spin": lambda parties: SpinBarrier(parties, max_spins=POOL_MAX_SPINS),
    "forkjoin": CondBarrier,
}


def make_barrier(kind: str, parties: int):
    """A fresh barrier of the named kind (``spin``/``forkjoin``)."""
    try:
        factory = BARRIER_KINDS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown barrier kind {kind!r} (have {sorted(BARRIER_KINDS)})"
        ) from None
    return factory(parties)


class WorkerPool:
    """A persistent team of workers driven round by round.

    Like the SaC pthread runtime (and this repo's with-loop scheduler),
    the *calling thread is worker 0*: :meth:`run` publishes one task — a
    callable receiving the worker index — releases the team through a
    start barrier, executes index 0 itself, and passes a completion
    barrier once every worker has finished.  Only ``workers - 1``
    threads exist.  All barriers (including the one handed out via
    :meth:`team_barrier` for use *inside* a task) are of the configured
    kind, so a round synchronises either entirely by spinning or
    entirely through the kernel.  Rounds take turns (one lock), so
    callers on different threads may share a team.

    A worker that raises aborts all registered barriers so its siblings
    unwind instead of deadlocking; the first error is re-raised from
    :meth:`run` and the pool is left unusable (``broken``, ``closed``).
    """

    def __init__(self, workers: int, barrier: str = DEFAULT_BARRIER, name: str = "par"):
        if workers < 1:
            raise ConfigurationError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.barrier_kind = barrier
        self._start = make_barrier(barrier, workers)
        self._done = make_barrier(barrier, workers)
        self._team_barriers: List[object] = [self._start, self._done]
        self._team: Optional[object] = None
        self._task: Optional[Callable[[int], None]] = None
        self._errors: List[BaseException] = []
        self._error_lock = threading.Lock()
        #: One round (or the shutdown handshake) at a time.
        self._round_lock = threading.RLock()
        self._stop = False
        self.broken = False
        self.rounds = 0
        self._threads = [
            threading.Thread(
                target=self._worker_loop, args=(index,),
                name=f"{name}-worker-{index}", daemon=True,
            )
            for index in range(1, workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    @property
    def closed(self) -> bool:
        """True once the team was shut down (a broken round does that)."""
        return self._stop

    def shutdown(self) -> None:
        """Stop and join the team (idempotent).

        Robust against an interrupt landing *inside* the shutdown
        handshake (KeyboardInterrupt while spinning in the release
        barrier): the barriers are poisoned so the workers unwind, the
        threads are joined either way, and the interrupt propagates.
        """
        with self._round_lock:
            if self._stop:
                return
            self._stop = True
            try:
                try:
                    self._start.wait()
                except BarrierAborted:
                    pass
                except BaseException:
                    self._abort_all()
                    raise
            finally:
                for thread in self._threads:
                    thread.join(timeout=10.0)
                self._threads = []

    # -- running tasks -------------------------------------------------

    def team_barrier(self):
        """The pool's worker-only barrier for synchronising *inside* a task.

        One reusable (generational) barrier is shared by every caller:
        all workers pass the same sequence of sync points per round, so
        distinct call sites can share it safely and the registry of
        abortable barriers stays bounded.  It is registered with the
        pool so a failing worker aborts it along with the start/done
        pair.
        """
        if self._team is None:
            self._team = make_barrier(self.barrier_kind, self.workers)
            self._team_barriers.append(self._team)
        return self._team

    @property
    def barrier_wait_seconds(self) -> float:
        """Wall-clock seconds spent waiting in this pool's barriers,
        summed over the start/done pair and the team barrier (telemetry
        for :mod:`repro.obs`)."""
        return sum(
            getattr(barrier, "wait_seconds", 0.0)
            for barrier in self._team_barriers
        )

    def run(self, task: Callable[[int], None]) -> None:
        """Execute ``task(worker_index)`` on every worker; block until done.

        The calling thread executes index 0 itself (SaC's master thread
        is a worker too), so a single-worker pool runs entirely inline.
        """
        with self._round_lock:
            if self.broken:
                raise ConfigurationError("worker pool is broken after a failed round")
            if self._stop:
                raise ConfigurationError("worker pool has been shut down")
            self._task = task
            self._errors = []
            try:
                self._start.wait()
                task(0)
                self._done.wait()
            except BarrierAborted:
                pass  # a sibling failed mid-round; fall through to re-raise below
            except BaseException as error:  # noqa: BLE001 - master's own share failed
                with self._error_lock:
                    self._errors.append(error)
                self._abort_all()
            self.rounds += 1
            if self._errors:
                self.broken = True
                self.shutdown()
                raise self._errors[0]

    def _abort_all(self) -> None:
        for barrier in self._team_barriers:
            barrier.abort()

    def _worker_loop(self, index: int) -> None:
        """Round loop for workers 1..N-1 (index 0 lives on the caller)."""
        while True:
            try:
                self._start.wait()
            except BarrierAborted:
                return
            if self._stop:
                return
            try:
                self._task(index)
            except BarrierAborted:
                pass  # a sibling failed first; its error is the one to report
            except BaseException as error:  # noqa: BLE001 - reported from run()
                with self._error_lock:
                    self._errors.append(error)
                self._abort_all()
                return
            try:
                self._done.wait()
            except BarrierAborted:
                return


#: The process-wide teams, one per ``(workers, barrier kind)``.
_TEAMS: Dict[Tuple[int, str], WorkerPool] = {}
_TEAMS_LOCK = threading.Lock()
# A forked child inherits the registry but none of the threads.
os.register_at_fork(after_in_child=_TEAMS.clear)


def shared_team(workers: int, barrier: str = DEFAULT_BARRIER) -> WorkerPool:
    """The process's one team of this size and barrier kind: at most
    ``workers - 1`` threads per key, however many solvers use it.  A team
    closed by :func:`close_team` or a failed round is replaced, never
    reused — so ask per round instead of holding on to the result."""
    key = (workers, barrier)
    with _TEAMS_LOCK:
        team = _TEAMS.get(key)
        if team is None or team.closed:
            team = _TEAMS[key] = WorkerPool(
                workers, barrier, name=f"euler-team-{workers}-{barrier}"
            )
        return team


def close_team(workers: int, barrier: str = DEFAULT_BARRIER) -> None:
    """Shut down and forget the team of this key, if there is one."""
    with _TEAMS_LOCK:
        team = _TEAMS.pop((workers, barrier), None)
    if team is not None:
        team.shutdown()
