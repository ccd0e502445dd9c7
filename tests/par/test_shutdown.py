"""The process-wide team: bounded, replaceable, torn down on interrupt.

There is one worker team per ``(workers, barrier kind)`` in a process
(:func:`repro.par.pool.shared_team`), so solvers come and go without
the thread count growing; a team broken by a failed round or closed by
a solver is replaced on the next request, never reused.  The interrupt
tests are the Ctrl-C story a long-running service must survive: no
worker left waiting in a barrier that will never release, and the
interrupt propagates.
"""

import os
import signal
import threading

import numpy as np
import pytest

import repro.jit
from repro.errors import ConfigurationError
from repro.euler import problems
from repro.euler.solver import SolverConfig
from repro.par import ParallelSolver2D
from repro.par.pool import WorkerPool, close_team, shared_team

#: One-row strips, so every sweep has work for the whole team.
STRIPS = SolverConfig(tile_bytes=1)

needs_cc = pytest.mark.skipif(not repro.jit.available(), reason="no C compiler on PATH")


def _team_threads(workers, barrier="forkjoin"):
    prefix = f"euler-team-{workers}-{barrier}-"
    return [t for t in threading.enumerate() if t.name.startswith(prefix)]


def _make_solver(workers=2, barrier="forkjoin"):
    solver, _ = problems.sod_2d(nx=24, ny=8, config=STRIPS)
    with repro.jit.backend_override("jit"):
        return ParallelSolver2D.from_serial(solver, workers=workers, barrier=barrier)


@needs_cc
@pytest.mark.parametrize("barrier", ["forkjoin", "spin"])
def test_twenty_solvers_share_one_team(barrier):
    """The bound: at most ``workers - 1`` team threads per key, however
    many solvers were built, stepped on the team and dropped."""
    workers = 3
    close_team(workers, barrier)
    try:
        for _ in range(20):
            solver = _make_solver(workers, barrier)
            solver.step()
            assert solver.engine.counters()["jit"]["strips_threaded"] > 0
            del solver
            assert len(_team_threads(workers, barrier)) == workers - 1
    finally:
        close_team(workers, barrier)
    assert _team_threads(workers, barrier) == []


def test_a_broken_or_closed_team_is_replaced_not_reused():
    close_team(2)
    team = shared_team(2)
    assert shared_team(2) is team and not team.closed

    def fail(worker):
        if worker == 1:
            raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        team.run(fail)
    assert team.broken and team.closed
    fresh = shared_team(2)
    assert fresh is not team
    fresh.run(lambda worker: None)
    close_team(2)
    assert fresh.closed and _team_threads(2) == []
    assert shared_team(2) is not fresh
    close_team(2)
    close_team(2)  # idempotent


def test_a_forked_child_starts_its_own_team():
    """A fork copies the registry but none of the threads
    (``REPRO_SVC_START_METHOD=fork`` shards): the child must not wait on
    a start barrier for workers that do not exist there."""
    shared_team(2).run(lambda worker: None)
    pid = os.fork()
    if pid == 0:
        signal.alarm(20)  # a deadlocked child dies of SIGALRM, not exit 0
        ran = []
        shared_team(2).run(ran.append)
        os._exit(0 if sorted(ran) == [0, 1] else 1)
    assert os.waitpid(pid, 0)[1] == 0
    close_team(2)


@needs_cc
def test_keyboard_interrupt_between_steps_tears_down_team():
    solver = _make_solver(workers=2)
    solver.step()
    assert len(_team_threads(2)) == 1  # caller is worker 0

    def interrupt_after_two(s):
        if s.steps >= 3:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        solver.run(max_steps=50, callback=interrupt_after_two)
    assert solver.steps == 3
    assert _team_threads(2) == []
    # Idempotent close after the interrupt-triggered teardown.
    solver.close()


def test_keyboard_interrupt_inside_a_worker_round():
    pool = WorkerPool(workers=3, name="euler-par-ki")

    def task(rank):
        if rank == 1:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        pool.run(task)
    assert pool.broken
    assert pool._threads == []
    assert all(not t.is_alive() for t in threading.enumerate()
               if t.name.startswith("euler-par-ki"))
    with pytest.raises(ConfigurationError):
        pool.run(lambda rank: None)


def test_keyboard_interrupt_on_master_share():
    pool = WorkerPool(workers=2, name="euler-par-km")

    def task(rank):
        if rank == 0:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        pool.run(task)
    assert pool.broken and pool._threads == []
    pool.shutdown()  # idempotent


@needs_cc
def test_interrupted_solver_is_reported_closed_not_leaking():
    solver = _make_solver(workers=4, barrier="spin")
    solver.step()
    assert len(_team_threads(4, "spin")) == 3

    def interrupt_first(s):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        solver.run(max_steps=10, callback=interrupt_first)
    assert _team_threads(4, "spin") == []  # the 3 extra workers died
    # The state reached before the interrupt is still readable.
    assert solver.u.shape == (24, 8, 4) and solver.steps == 2


@needs_cc
def test_clean_run_leaves_pool_reusable_then_closes():
    solver = _make_solver(workers=2)
    reference, _ = problems.sod_2d(nx=24, ny=8, config=STRIPS)
    solver.run(max_steps=3)
    team = shared_team(2)
    assert not team.broken and team.rounds > 0
    solver.run(max_steps=4)
    assert shared_team(2) is team
    solver.close()
    assert team.closed and _team_threads(2) == []
    # closing is not the end of the solver: its next sweep starts a team
    solver.run(max_steps=5)
    reference.run(max_steps=5)
    assert np.array_equal(solver.u, reference.u)
    solver.close()
