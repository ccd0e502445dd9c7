"""The one worker team: a persistent pool and its one barrier.

The paper's Fig. 4 asymmetry is a *synchronisation* story: SaC keeps a
flat team of pthreads alive for the whole run and synchronises them by
spinning on shared memory, while the auto-parallelised Fortran pays a
kernel-assisted fork/join per parallel region.  ``repro.perf.machine``
models that difference analytically; this module makes it *executable*
with one :class:`Barrier` whose kind is only the length of its spin
phase (:data:`BARRIER_KINDS`): ``"forkjoin"`` (the default) sleeps on a
condition variable at once, the fork/join idiom; ``"spin"`` first polls
shared memory for :data:`SPIN_PHASE` polls, so every wait inside a round
is a busy-wait while an idle team still goes to sleep.  A *Python*
busy-wait holds the GIL for its switch interval and so starves the
thread doing the step's serial part: ``spin`` is selectable for the F4b
experiment, nobody's default.

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

__all__ = [
    "BarrierAborted",
    "Barrier",
    "WorkerPool",
    "make_barrier",
    "shared_team",
    "close_team",
    "BARRIER_KINDS",
    "DEFAULT_BARRIER",
    "SPIN_PHASE",
]


class BarrierAborted(RuntimeError):
    """Raised by an aborted barrier so peers unwind instead of deadlocking."""


class Barrier:
    """A reusable barrier that spins, then sleeps.

    A waiter that is not the last to arrive polls the generation counter
    up to ``spins`` times without the lock (SaC's shared-memory idiom),
    then sleeps on the condition variable until the last arrival bumps
    the generation and wakes everyone (kernel-assisted fork/join, the
    cost the paper blames for Fortran's degradation).  ``spins=0`` is a
    plain condvar barrier.

    :meth:`abort` releases the waiters and poisons the barrier: every
    released or later :meth:`wait` raises :class:`BarrierAborted`, except
    a wait whose generation was already released when the abort landed.
    ``wait_seconds`` sums the time spent in :meth:`wait` (telemetry for
    :mod:`repro.obs`).
    """

    def __init__(self, parties: int, spins: int = 0):
        if parties < 1:
            raise ValueError("a barrier needs at least one party")
        self.parties = parties
        self.spins = spins
        self._count = parties
        self._generation = 0
        self._abort_generation: Optional[int] = None
        self._cond = threading.Condition()
        self.wait_seconds = 0.0

    def wait(self) -> int:
        """Wait until all parties arrive; returns the generation passed."""
        started = perf_counter()
        with self._cond:
            if self._abort_generation is not None:
                raise BarrierAborted("barrier aborted")
            generation = self._generation
            self._count -= 1
            if self._count == 0:
                self._count = self.parties
                self._generation += 1
                self._cond.notify_all()
            else:
                if self.spins:
                    self._cond.release()
                    try:
                        for _ in range(self.spins):
                            if self._generation != generation:
                                break
                    finally:
                        self._cond.acquire()
                while self._generation == generation:
                    self._cond.wait()
            self.wait_seconds += perf_counter() - started
            aborted = self._abort_generation
            if aborted is not None and aborted <= generation:
                raise BarrierAborted("barrier aborted")
            return generation

    def abort(self) -> None:
        """Poison the barrier and release everyone waiting on it."""
        with self._cond:
            if self._abort_generation is None:
                self._abort_generation = self._generation
                self._count = self.parties
                self._generation += 1
                self._cond.notify_all()


#: What a team synchronises with unless told otherwise.
DEFAULT_BARRIER = "forkjoin"

#: Polls of the ``spin`` kind before it sleeps: 0.5-0.6 s on a 2-vCPU
#: Xeon, far above the longest wait inside a 400x400 team round
#: (EXPERIMENTS, F4b "one barrier"), yet short enough that an idle team soon
#: stops burning a core.
SPIN_PHASE = 1 << 23

#: Spin-phase length by barrier kind, one name per kind:
#: :func:`shared_team` keys its teams on the name.
BARRIER_KINDS = {"spin": SPIN_PHASE, "forkjoin": 0}


def make_barrier(kind: str, parties: int) -> Barrier:
    """A fresh barrier of the named kind (``spin``/``forkjoin``)."""
    try:
        spins = BARRIER_KINDS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown barrier kind {kind!r} (have {sorted(BARRIER_KINDS)})"
        ) from None
    return Barrier(parties, spins)


class WorkerPool:
    """A persistent team of workers driven round by round.

    Like the SaC pthread runtime (and this repo's with-loop scheduler),
    the *calling thread is worker 0*: :meth:`run` publishes one task — a
    callable receiving the worker index — releases the team through a
    start barrier, executes index 0 itself, and passes a completion
    barrier once every worker has finished.  Only ``workers - 1``
    threads exist.  Both barriers are of the configured kind.  Rounds
    take turns (one lock), so callers on different threads may share a
    team.

    A worker that raises aborts both barriers so its siblings unwind
    instead of deadlocking; the first error is re-raised from
    :meth:`run` and the pool is left unusable (``broken``, ``closed``).
    """

    def __init__(self, workers: int, barrier: str = DEFAULT_BARRIER, name: str = "par"):
        if workers < 1:
            raise ConfigurationError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.barrier_kind = barrier
        self._start = make_barrier(barrier, workers)
        self._done = make_barrier(barrier, workers)
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
        handshake (KeyboardInterrupt while waiting in the release
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

    @property
    def barrier_wait_seconds(self) -> float:
        """Wall-clock seconds spent waiting at the round-ending barrier
        (telemetry for :mod:`repro.obs`).  The start barrier's waits are
        the team idling through the caller's serial work between rounds,
        not synchronisation, and are not booked."""
        return self._done.wait_seconds

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
        self._start.abort()
        self._done.abort()

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
