"""Worker pool and the one barrier, on both kinds."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.par.pool import (
    BARRIER_KINDS,
    Barrier,
    BarrierAborted,
    WorkerPool,
    make_barrier,
)

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

    def test_worker_error_propagates_and_breaks_pool(self, kind):
        pool = WorkerPool(3, barrier=kind)

        def task(index):
            if index == 1:
                raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            pool.run(task)
        assert pool.broken and pool.closed
        with pytest.raises(ConfigurationError):
            pool.run(lambda index: None)

    def test_shutdown_is_idempotent(self, kind):
        pool = WorkerPool(2, barrier=kind)
        pool.run(lambda index: None)
        pool.shutdown()
        pool.shutdown()

    def test_barrier_wait_seconds_property(self, kind):
        with WorkerPool(2, barrier=kind) as pool:
            pool.run(lambda index: time.sleep(0.01 * index))
            assert pool.barrier_wait_seconds > 0.0

    def test_idle_time_between_rounds_is_not_barrier_wait(self, kind):
        """The workers' wait at the start barrier is the caller's serial
        work between rounds; booking it made one empty round after 1 s
        of serial work read ~1 s of synchronisation."""
        with WorkerPool(2, barrier=kind) as pool:
            pool.run(lambda index: None)
            time.sleep(1.0)  # the master's serial work
            waited = pool.barrier_wait_seconds
            pool.run(lambda index: None)
            pool.run(lambda index: None)  # the first round's worker bookings land
            assert pool.barrier_wait_seconds - waited < 0.5


def _drive(pool, task, rounds):
    """``rounds`` rounds of ``task`` from a driver thread, bounded in
    time: a lost wake-up hangs a round instead of failing it."""
    driver = threading.Thread(
        target=lambda: [pool.run(task) for _ in range(rounds)], daemon=True
    )
    driver.start()
    driver.join(timeout=30.0)
    if driver.is_alive():
        pool._abort_all()  # unwind the hung round so the pool can shut down
        pytest.fail("a round never finished")


def test_an_idle_spin_team_still_runs_every_worker(monkeypatch):
    """A ``spin`` team left idle past its spin phase sleeps and wakes for
    the next round.  With a spin budget instead, the idle worker raised
    from the start barrier, died, and every later round returned without
    running anyone but the caller."""
    monkeypatch.setitem(BARRIER_KINDS, "spin", 10_000)
    with WorkerPool(2, barrier="spin") as pool:
        hits = [0, 0]

        def task(index):
            hits[index] += 1

        _drive(pool, task, 1)
        time.sleep(0.5)  # far past 10 000 polls
        _drive(pool, task, 1)
        assert hits == [2, 2]
        assert not pool.broken


def test_spin_to_sleep_handover_loses_no_round(monkeypatch):
    """A spin phase short enough that waits keep crossing from polling
    into the condvar sleep, on more workers than cores and a short
    switch interval: a wake-up lost in that handover deadlocks a round
    (bounded in time by ``_drive``) or skips a worker's share."""
    monkeypatch.setitem(BARRIER_KINDS, "spin", 50)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with WorkerPool(4, barrier="spin") as pool:
            hits = np.zeros(4, dtype=int)
            _drive(pool, lambda index: hits.__setitem__(index, hits[index] + 1), 1000)
            assert hits.tolist() == [1000] * 4
    finally:
        sys.setswitchinterval(switch)


class TestBarriers:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_barrier("mutex", 2)

    def test_condvar_is_not_a_second_name(self):
        """One name per kind: ``shared_team`` keys on the name, so an
        alias would build a second team of the same kind."""
        with pytest.raises(ConfigurationError, match="forkjoin.*spin"):
            make_barrier("condvar", 2)

    @pytest.mark.parametrize("kind", BARRIERS)
    def test_abort_releases_a_waiter(self, kind):
        barrier = make_barrier(kind, 2)
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

    @pytest.mark.parametrize("kind", BARRIERS)
    def test_abort_after_release_does_not_poison_completed_wait(self, kind):
        """The post-release race: an abort landing between the
        generation bump and a released waiter's aborted-check must not
        turn that already-successful wait into a BarrierAborted."""

        class RacyBarrier(Barrier):
            """Injects abort() at the exact moment a waiter first
            observes the generation bump (polling it in the spin phase,
            or re-checking it on waking from the condvar)."""

            def __init__(self, parties, spins):
                self._gen_value = 0
                self._raced = True  # disarmed while __init__ runs
                super().__init__(parties, spins)
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

        barrier = RacyBarrier(2, BARRIER_KINDS[kind])
        outcome = []

        def waiter():
            try:
                outcome.append(("ok", barrier.wait()))
            except BarrierAborted:
                outcome.append(("aborted", None))

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        while barrier._count == 2:  # until the waiter has arrived
            pass
        barrier.wait()  # last arrival releases generation 0
        thread.join(timeout=10.0)
        assert outcome == [("ok", 0)]
        # the injected abort still poisons *later* waits
        with pytest.raises(BarrierAborted):
            barrier.wait()
