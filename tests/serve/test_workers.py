"""ShardPool: job execution in worker processes, forensics, teardown.

There is one way in — ``send(shard, [jobs])`` — and every test here
sends a dispatch of one through it; ``test_batching.py`` sends the same
jobs with mates.  One spawn-context pool is shared by the whole module
(spawning a Python worker costs ~a second); tests drive it
synchronously via ``next_event`` without binding an event loop.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import tempfile

import numpy as np
import pytest

from repro.euler.problems import RIEMANN_PROBLEMS, riemann_problem_solver
from repro.euler.solver import SolverConfig
from repro.serve.jobs import JobSpec
from repro.serve.workers import ShardPool, state_digest


@pytest.fixture(scope="module")
def pool():
    pool = ShardPool(shards=1)
    pool.start()
    yield pool
    pool.shutdown()
    assert mp.active_children() == []


def run_job(pool, spec, job_id="t1", timeout=120.0):
    """Send one job and read events until its terminal event."""
    pool.send(0, [(job_id, spec)])
    events = []
    while True:
        event = pool.next_event(0, timeout=timeout)
        events.append(event)
        if event.get("kind") == "job" and event.get("event") in (
            "done", "failed", "cancelled",
        ):
            return events


def test_done_payload_matches_in_process_run(pool):
    spec = JobSpec(problem="sod", problem_args={"n_cells": 64}, t_end=0.05)
    events = run_job(pool, spec, job_id="match")
    terminal = events[-1]
    assert terminal["event"] == "done"
    payload = terminal["result"]

    solver, _ = riemann_problem_solver(
        RIEMANN_PROBLEMS["sod"], n_cells=64, config=spec.config
    )
    reference = solver.run(t_end=0.05)
    assert payload["steps"] == reference.steps
    assert payload["time"] == pytest.approx(reference.time)
    # Bitwise agreement with the in-process solver, via the digest...
    assert payload["state_sha256"] == state_digest(solver.u)
    # ...and via the JSON round-tripped state itself (repr floats are exact).
    assert np.array_equal(np.asarray(payload["state"]), solver.primitive)
    assert payload["shape"] == list(solver.u.shape)
    assert payload["wall_seconds"] > 0.0


def test_steps_messages_carry_step_records(pool):
    spec = JobSpec(
        problem="lax", problem_args={"n_cells": 64}, max_steps=6, trace_every=2
    )
    *messages, terminal = run_job(pool, spec, job_id="streamed")
    assert terminal["event"] == "done"
    assert {message["kind"] for message in messages} == {"steps"}
    records = [pair for message in messages for pair in message["records"]]
    assert {job_id for job_id, _ in records} == {"streamed"}
    steps = [record for _, record in records]
    assert [record["step"] for record in steps] == [2, 4, 6]
    assert {record["kind"] for record in steps} == {"step"}
    # a job alone streams full trace records
    assert {"min_density", "mass_drift", "phase_seconds"} <= set(steps[0])


def test_physics_blowup_reports_forensics_and_shard_survives(pool):
    spec = JobSpec(
        problem="sod",
        problem_args={"n_cells": 32},
        max_steps=50,
        config=SolverConfig(cfl=10.0),  # unconditionally unstable
    )
    events = run_job(pool, spec, job_id="boom")
    terminal = events[-1]
    assert terminal["event"] == "failed"
    assert set(terminal) == {"kind", "job_id", "shard", "event", "error"}
    error = terminal["error"]
    assert error["type"] == "PhysicsError"
    forensics = error["forensics"]
    assert forensics is not None
    assert forensics["cells"], "forensic report should name offending cells"
    # The process boundary contained the failure: same shard runs on.
    assert pool.alive() == [True]
    follow_up = run_job(
        pool, JobSpec(problem="sod", problem_args={"n_cells": 32}, max_steps=2),
        job_id="after-boom",
    )
    assert follow_up[-1]["event"] == "done"


def test_unknown_problem_arg_fails_non_retryable(pool):
    spec = JobSpec(
        problem="sod", problem_args={"n_cellz": 64}, max_steps=2
    )
    terminal = run_job(pool, spec, job_id="typo")[-1]
    assert terminal["event"] == "failed"
    assert "retryable" not in terminal  # nothing is: a job gets one attempt
    assert terminal["error"]["type"] == "ConfigurationError"
    assert "n_cellz" in terminal["error"]["message"]


def test_cancel_flag_stops_running_job(pool):
    spec = JobSpec(
        problem="sod",
        problem_args={"n_cells": 400},
        max_steps=200_000,
        trace_every=1000,
    )
    pool.send(0, [("slow", spec)])
    pool.cancel(0)
    event = pool.next_event(0, timeout=120.0)
    assert event["event"] == "cancelled"
    assert event["reason"] == "cancelled"


def test_worker_side_deadline_cancels(pool):
    spec = JobSpec(
        problem="sod",
        problem_args={"n_cells": 400},
        max_steps=200_000,
        deadline_s=0.2,
        trace_every=1000,
    )
    terminal = run_job(pool, spec, job_id="deadline")[-1]
    assert terminal["event"] == "cancelled"
    assert terminal["reason"] == "deadline"


def test_exact_job_completes_through_the_same_entry_point(pool):
    from repro.euler.exact_riemann import solve

    spec = JobSpec(problem="exact", problem_args={"t": 0.25, "base": "toro123"})
    first = run_job(pool, spec, job_id="exact1")[-1]["result"]
    second = run_job(pool, spec, job_id="exact2")[-1]["result"]
    assert second["state_sha256"] == first["state_sha256"]
    assert second["state"] == first["state"]
    problem = RIEMANN_PROBLEMS["toro123"]
    profile = solve(
        problem.left, problem.right, np.linspace(0.0, 1.0, 201), t=0.25,
        x_diaphragm=problem.x_diaphragm, gamma=spec.config.gamma,
    )
    assert first["state_sha256"] == state_digest(profile)
    assert first["steps"] == 0 and first["time"] == 0.25


def test_intra_job_parallel_solver_matches_serial(pool):
    """A ``workers=2`` job is its ``workers=1`` twin run on a fork/join
    team (the default once was ``spin``: ~0.3x serial for every such
    job); one-row strips give the team something to split."""
    from repro.serve.workers import _build_solver

    base_args = {"nx": 32, "ny": 16}
    config = SolverConfig(tile_bytes=1)
    serial = run_job(
        pool,
        JobSpec(problem="sod_2d", problem_args=base_args, config=config, max_steps=5),
        job_id="p1",
    )[-1]["result"]
    spec = JobSpec(
        problem="sod_2d", problem_args={**base_args, "workers": 2}, config=config,
        max_steps=5,
    )
    parallel = run_job(pool, spec, job_id="p2")[-1]["result"]
    assert parallel["state_sha256"] == serial["state_sha256"]
    solver, close = _build_solver(spec)
    team = solver.engine.counters()["team"]
    assert (team["workers"], team["barrier"]) == (2, "forkjoin")
    close()
    # the same payload, key for key: which stepper ran is not visible
    assert set(parallel) == set(serial)
    for key in set(serial) - {"wall_seconds"}:
        assert parallel[key] == serial[key], key
    assert serial["batched"] == 1


def test_shutdown_leaves_no_children_and_no_files():
    """The event queue is the only channel: a pool's whole life creates
    no directory and no file."""
    before = sorted(os.listdir(tempfile.gettempdir()))
    pool = ShardPool(shards=1)
    pool.start()
    own_processes = list(pool._processes)
    run_job(pool, JobSpec(problem="sod", problem_args={"n_cells": 32}, max_steps=2))
    pool.shutdown()
    pool.shutdown()  # idempotent
    assert all(not process.is_alive() for process in own_processes)
    assert not set(own_processes) & set(mp.active_children())
    assert sorted(os.listdir(tempfile.gettempdir())) == before
