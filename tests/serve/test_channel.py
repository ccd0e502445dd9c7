"""The one worker -> supervisor channel: ordering and cadence.

Step records ride the shard's event queue in ``steps`` messages, ahead
of their job's terminal.  The ordering tests read the raw queue of an
unbound :class:`ShardPool`; the spacing of messages is a property of
the sender, so it is read off :func:`_run_jobs` run in this process
against a queue that stamps every ``put``.
"""

from __future__ import annotations

import threading
from time import monotonic

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.euler.solver import SolverConfig
from repro.serve.jobs import JobSpec
from repro.serve.workers import STREAM_INTERVAL_S, ShardPool, _run_jobs

TERMINALS = ("done", "failed", "cancelled")


@pytest.fixture(scope="module")
def pool():
    pool = ShardPool(shards=1)
    pool.start()
    yield pool
    pool.shutdown()


def two_channel_spec(mach, **overrides):
    payload = dict(
        problem="two_channel",
        problem_args={"n_cells": 24, "h": 12.0, "mach": mach},
        max_steps=8,
    )
    payload.update(overrides)
    return JobSpec(**payload)


def slow_spec(**overrides):
    payload = dict(
        problem="sod", problem_args={"n_cells": 400},
        max_steps=200_000, trace_every=25,
    )
    payload.update(overrides)
    return JobSpec(**payload)


def dispatch(pool, specs, on_steps=None):
    """Send ``specs`` as one dispatch; every event up to the last terminal."""
    jobs = [(f"c{index}", spec) for index, spec in enumerate(specs)]
    pool.send(0, jobs)
    events, waiting = [], {job_id for job_id, _ in jobs}
    while waiting:
        event = pool.next_event(0, timeout=180.0)
        events.append(event)
        if event["kind"] == "steps" and on_steps is not None:
            on_steps()
        if event["kind"] == "job" and event["event"] in TERMINALS:
            waiting.discard(event["job_id"])
    return events


def check_protocol(events, specs):
    """Every record of a job precedes that job's terminal, step numbers
    strictly increase, and only steps divisible by ``trace_every`` are
    delivered — all of them, for a job that ran to the end.  Returns the
    terminals by job index."""
    every = {f"c{index}": spec.trace_every for index, spec in enumerate(specs)}
    steps = {job_id: [] for job_id in every}
    terminals = {}
    for event in events:
        assert event["shard"] == 0
        if event["kind"] == "steps":
            assert event["records"], "an empty steps message was sent"
            for job_id, record in event["records"]:
                assert job_id not in terminals, f"{job_id}: a record after its terminal"
                assert record["kind"] == "step"
                assert record["step"] > (steps[job_id] or [0])[-1]
                assert record["step"] % every[job_id] == 0
                steps[job_id].append(record["step"])
        else:
            assert event["kind"] == "job" and event["event"] in TERMINALS
            assert event["job_id"] not in terminals
            terminals[event["job_id"]] = event
    assert set(terminals) == set(every)
    for job_id, terminal in terminals.items():
        if terminal["event"] == "done":
            total = terminal["result"]["steps"]
            k = every[job_id]
            assert steps[job_id] == list(range(k, total + 1, k))
    return [terminals[f"c{index}"] for index in range(len(specs))]


@settings(max_examples=10, deadline=None)
@given(
    members=st.integers(1, 3),
    max_steps=st.integers(1, 12),
    trace_every=st.lists(st.integers(1, 4), min_size=3, max_size=3),
)
def test_steps_precede_their_terminal_solo_and_batched(
    pool, members, max_steps, trace_every
):
    specs = [
        two_channel_spec(mach, max_steps=max_steps, trace_every=k)
        for mach, k in zip((1.5, 2.2, 3.0)[:members], trace_every)
    ]
    terminals = check_protocol(dispatch(pool, specs), specs)
    assert [t["event"] for t in terminals] == ["done"] * members
    assert {t["result"]["batched"] for t in terminals} == {members}


def test_client_cancel_keeps_the_order(pool):
    specs = [slow_spec()]
    events = dispatch(pool, specs, on_steps=lambda: pool.cancel(0))
    (terminal,) = check_protocol(events, specs)
    assert (terminal["event"], terminal["reason"]) == ("cancelled", "cancelled")
    assert events[0]["kind"] == "steps"  # the cancel landed mid-stream


def test_worker_side_deadline_keeps_the_order(pool):
    specs = [slow_spec(deadline_s=0.2)]
    (terminal,) = check_protocol(dispatch(pool, specs), specs)
    assert (terminal["event"], terminal["reason"]) == ("cancelled", "deadline")


def test_retired_member_reports_after_its_mates_stepped_on(pool):
    """At cfl = 1 the Mach-3 inflow blows up in its first step and is
    retired; the Mach-1.2 mate steps on, and streams, to the end."""
    marginal = SolverConfig(cfl=1.0)
    specs = [
        two_channel_spec(mach, config=marginal, max_steps=12, trace_every=k)
        for mach, k in ((1.2, 1), (3.0, 2))
    ]
    events = dispatch(pool, specs)
    survivor, retired = check_protocol(events, specs)
    assert survivor["event"] == "done" and survivor["result"]["steps"] == 12
    assert retired["event"] == "failed"
    assert retired["error"]["type"] == "PhysicsError"
    assert retired["error"]["batch_index"] == 1
    assert retired["error"]["forensics"]["cells"]


def test_a_short_job_is_one_message_a_long_one_several(pool):
    short = JobSpec(problem="sod", problem_args={"n_cells": 32}, max_steps=5)
    for _ in range(5):  # the first run loads the kernel; a later one is quick
        events = dispatch(pool, [short])
        if events[-1]["result"]["wall_seconds"] < STREAM_INTERVAL_S:
            break
    else:
        pytest.fail("no 5-step run finished inside one stream interval")
    assert [event["kind"] for event in events] == ["steps", "job"]
    assert [record["step"] for _, record in events[0]["records"]] == [1, 2, 3, 4, 5]

    long = slow_spec(max_steps=800, trace_every=1)
    events = dispatch(pool, [long])
    wall = events[-1]["result"]["wall_seconds"]
    messages = [event for event in events if event["kind"] == "steps"]
    assert wall >= 0.2, "the long job was meant to outlast ten intervals"
    assert 2 <= len(messages) <= 1 + wall / STREAM_INTERVAL_S


class StampedQueue:
    """Stands in for the event queue: every ``put`` with its time."""

    def __init__(self):
        self.puts = []

    def put(self, event):
        self.puts.append((monotonic(), event))


def test_paced_messages_are_an_interval_apart():
    queue = StampedQueue()
    spec = slow_spec(max_steps=400, trace_every=1)
    _run_jobs(
        [{"job_id": "c0", "spec": spec.to_dict()}], queue, 0, threading.Event()
    )
    check_protocol([event for _, event in queue.puts], [spec])
    sent = [at for at, event in queue.puts if event["kind"] == "steps"]
    assert len(sent) >= 3
    # The last message is the flush ahead of the terminal; every one
    # before it waited out the interval.
    gaps = [later - sooner for sooner, later in zip(sent[:-2], sent[1:-1])]
    assert gaps and min(gaps) >= STREAM_INTERVAL_S
