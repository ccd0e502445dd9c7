"""Worker pool and barrier flavours."""

import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.par.pool import BarrierAborted, CondBarrier, WorkerPool, make_barrier
from repro.sac.runtime.spinlock import SpinBarrier

BARRIERS = ["spin", "forkjoin"]


@pytest.mark.parametrize("kind", BARRIERS)
class TestWorkerPool:
    def test_every_worker_runs_each_round(self, kind):
        with WorkerPool(4, barrier=kind) as pool:
            hits = np.zeros(4, dtype=int)
            for _ in range(3):
                pool.run(lambda index: hits.__setitem__(index, hits[index] + 1))
            assert hits.tolist() == [3, 3, 3, 3]
            assert pool.rounds == 3

    def test_team_barrier_keeps_phases_ordered(self, kind):
        with WorkerPool(3, barrier=kind) as pool:
            team = pool.team_barrier()
            log = []
            lock = threading.Lock()

            def task(index):
                with lock:
                    log.append(("a", index))
                team.wait()
                with lock:
                    log.append(("b", index))

            pool.run(task)
        phases = [phase for phase, _ in log]
        assert phases[:3] == ["a"] * 3 and phases[3:] == ["b"] * 3

    def test_worker_error_propagates_and_breaks_pool(self, kind):
        pool = WorkerPool(3, barrier=kind)
        team = pool.team_barrier()

        def task(index):
            if index == 1:
                raise ValueError("boom")
            team.wait()  # would deadlock without abort support

        with pytest.raises(ValueError, match="boom"):
            pool.run(task)
        assert pool.broken
        with pytest.raises(ConfigurationError):
            pool.run(lambda index: None)

    def test_shutdown_is_idempotent(self, kind):
        pool = WorkerPool(2, barrier=kind)
        pool.run(lambda index: None)
        pool.shutdown()
        pool.shutdown()

    def test_team_barrier_is_reused_not_leaked(self, kind):
        """team_barrier() per round used to append a fresh barrier to
        the abort registry forever; a long run grew it without bound."""
        with WorkerPool(2, barrier=kind) as pool:
            team = pool.team_barrier()

            def task(index):
                pool.team_barrier().wait()

            for _ in range(25):
                pool.run(task)
                assert pool.team_barrier() is team
            # registry stays bounded: start + done + the one team barrier
            assert len(pool._team_barriers) == 3

    def test_barrier_wait_seconds_property(self, kind):
        with WorkerPool(2, barrier=kind) as pool:
            team = pool.team_barrier()
            pool.run(lambda index: team.wait())
            assert pool.barrier_wait_seconds > 0.0


class TestBarriers:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_barrier("mutex", 2)

    def test_condvar_alias(self):
        assert isinstance(make_barrier("condvar", 2), CondBarrier)

    @pytest.mark.parametrize("cls", [SpinBarrier, CondBarrier])
    def test_abort_releases_a_waiter(self, cls):
        barrier = cls(2)
        failures = []

        def waiter():
            try:
                barrier.wait()
            except BarrierAborted:
                failures.append("aborted")

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        barrier.abort()
        thread.join(timeout=10.0)
        assert failures == ["aborted"]
        with pytest.raises(BarrierAborted):
            barrier.wait()

    @pytest.mark.parametrize("kind", BARRIERS)
    def test_barrier_is_reusable_across_generations(self, kind):
        barrier = make_barrier(kind, 2)
        generations = []

        def partner():
            for _ in range(3):
                generations.append(barrier.wait())

        thread = threading.Thread(target=partner, daemon=True)
        thread.start()
        for _ in range(3):
            barrier.wait()
        thread.join(timeout=10.0)
        assert sorted(generations) == [0, 1, 2]

    @pytest.mark.parametrize("kind", BARRIERS)
    def test_wait_seconds_telemetry_accumulates(self, kind):
        barrier = make_barrier(kind, 1)
        assert barrier.wait_seconds == 0.0
        barrier.wait()
        assert barrier.wait_seconds > 0.0

    def test_spin_budget_overrun_aborts_the_barrier(self):
        """A budget overrun must poison the barrier, not just raise.

        On the seed code the overrunning waiter left its arrival count
        behind; a sibling arriving later was counted as the missing
        party and its wait returned "successfully" against a barrier
        that had already failed.
        """
        barrier = SpinBarrier(2, max_spins=10_000)
        with pytest.raises(RuntimeError, match="spin budget"):
            barrier.wait()
        with pytest.raises(BarrierAborted):
            barrier.wait()

    def test_abort_after_release_does_not_poison_completed_wait(self):
        """The post-release race: an abort landing between the
        generation bump and a released waiter's aborted-check must not
        turn that already-successful wait into a BarrierAborted."""

        class RacySpinBarrier(SpinBarrier):
            """Injects abort() at the exact moment a spinning waiter
            first observes the generation bump."""

            def __init__(self, parties):
                self._gen_value = 0
                self._raced = True  # disarmed while __init__ runs
                super().__init__(parties)
                self._raced = False

            @property
            def _generation(self):
                value = self._gen_value
                if value > 0 and not self._raced:
                    self._raced = True
                    self.abort()
                return value

            @_generation.setter
            def _generation(self, value):
                self._gen_value = value

        barrier = RacySpinBarrier(2)
        outcome = []

        def spinner():
            try:
                outcome.append(("ok", barrier.wait()))
            except BarrierAborted:
                outcome.append(("aborted", None))

        thread = threading.Thread(target=spinner, daemon=True)
        thread.start()
        while barrier._count == 2:  # until the spinner has arrived
            pass
        barrier.wait()  # last arrival releases generation 0
        thread.join(timeout=10.0)
        assert outcome == [("ok", 0)]
        # the injected abort still poisons *later* waits
        with pytest.raises(BarrierAborted):
            barrier.wait()
