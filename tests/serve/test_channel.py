"""The one worker -> supervisor channel: ordering, cadence and the wire.

Step records ride the shard's event pipe in ``steps`` messages, ahead
of their job's terminal.  The ordering tests read the raw pipe of an
unbound :class:`ShardPool` (and, once, a 2-shard service whose loop
reads it); the spacing of messages is a property of the sender, so it is
read off :func:`_run_jobs` run in this process against a sink that
stamps every message.  The wire tests hold what the pipes replaced: no
queue and no pump thread exists, a worker's death — inside a message
included — is end of file and a ``died`` event at once, and nothing is
left behind.
"""

from __future__ import annotations

import array
import asyncio
import fcntl
import gc
import multiprocessing as mp
import multiprocessing.queues
import os
import pickle
import signal
import termios
import threading
from time import monotonic

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.euler.solver import SolverConfig
from repro.serve import workers
from repro.serve.jobs import JobSpec, JobState
from repro.serve.server import SimulationService, start_in_thread
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

    long = slow_spec(max_steps=2000, trace_every=1)
    events = dispatch(pool, [long])
    wall = events[-1]["result"]["wall_seconds"]
    messages = [event for event in events if event["kind"] == "steps"]
    assert wall >= 0.2, "the long job was meant to outlast ten intervals"
    assert 2 <= len(messages) <= 1 + wall / STREAM_INTERVAL_S


class StampedQueue:
    """Stands in for the event pipe: every ``put`` with its time."""

    def __init__(self):
        self.puts = []

    def put(self, event):
        self.puts.append((monotonic(), event))


def test_paced_messages_are_an_interval_apart():
    queue = StampedQueue()
    spec = slow_spec(max_steps=400, trace_every=1)
    _run_jobs(
        [{"job_id": "c0", "spec": spec.to_dict()}], queue.put, 0, threading.Event()
    )
    check_protocol([event for _, event in queue.puts], [spec])
    sent = [at for at, event in queue.puts if event["kind"] == "steps"]
    assert len(sent) >= 3
    # The last message is the flush ahead of the terminal; every one
    # before it waited out the interval.
    gaps = [later - sooner for sooner, later in zip(sent[:-2], sent[1:-1])]
    assert gaps and min(gaps) >= STREAM_INTERVAL_S


# -- the wire: pipes read by the loop -------------------------------------


def check_stream(events, steps):
    """A job's published events: steps 1..``steps`` in order, all ahead of
    its one terminal, which is last."""
    numbers = [event["step"] for event in events if event["kind"] == "step"]
    assert numbers == list(range(1, steps + 1))
    terminals = [i for i, e in enumerate(events) if e.get("event") in TERMINALS]
    assert terminals == [len(events) - 1]


def test_steps_precede_their_terminal_on_a_two_shard_batched_service():
    """The loop reads both shards' pipes: eight batch-compatible jobs
    become one 4-member dispatch per shard, and every job's published
    stream still has each step record once, in order, before its
    terminal."""

    async def scenario():
        service = SimulationService(shards=2, batch_max=4)
        await service.start()
        try:
            records = [
                service.submit(two_channel_spec(1.5 + 0.1 * i, max_steps=6, trace_every=1))
                for i in range(8)
            ]
            for record in records:
                await asyncio.wait_for(service.wait(record.job_id), timeout=180.0)
            assert {record.shard for record in records} == {0, 1}
            assert service.batches_formed == 2
            for record in records:
                assert record.state is JobState.DONE
                check_stream(record.events, 6)
            with pytest.raises(ServiceError, match="bound"):
                service.pool.next_event(0)  # a bound pool's loop reads the pipe
        finally:
            await service.close()

    asyncio.run(scenario())


def test_no_queue_and_no_pump_thread(monkeypatch):
    """A pool's life creates no ``multiprocessing`` queue, and a running
    service has no pump thread and no queue feeder thread."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("the shard wire created a multiprocessing queue")

    monkeypatch.setattr(multiprocessing.queues.Queue, "__init__", refuse)
    monkeypatch.setattr(multiprocessing.queues.SimpleQueue, "__init__", refuse)
    handle = start_in_thread(shards=2)
    try:
        names = [thread.name for thread in threading.enumerate()]
        assert not [n for n in names if n.startswith("repro-serve-pump")], names
        assert "QueueFeederThread" not in names
    finally:
        handle.stop()


def open_fds():
    gc.collect()  # a Process object holds its sentinel pipe until collected
    return set(os.listdir("/proc/self/fd"))


def test_shutdown_and_respawn_leave_no_process_and_no_pipe():
    """Bound and unbound, a pool's pipes and processes — the respawned
    ones included — are gone after shutdown.  (A first pool starts what
    multiprocessing keeps for the process: its resource tracker, and the
    fork server under that start method.)"""
    with ShardPool(shards=1) as first:
        first.start()
    del first
    before = open_fds()
    pool = ShardPool(shards=2)
    pool.start()
    pids = [process.pid for process in pool._processes]
    os.kill(pids[0], signal.SIGKILL)
    assert pool.next_event(0, timeout=30.0)["event"] == "died"
    pool.respawn(0)
    pids.append(pool._processes[0].pid)
    pool.shutdown()
    del pool
    assert not [p for p in mp.active_children() if p.pid in pids]
    assert open_fds() == before

    async def bound():
        service = SimulationService(shards=2)
        await service.start()
        try:
            pids[:] = [process.pid for process in service.pool._processes]
            os.kill(pids[1], signal.SIGKILL)
            records = [
                service.submit(JobSpec(problem="sod", problem_args={"n_cells": 32 + n}, max_steps=2))
                for n in range(2)
            ]  # one per shard: the dead one's fails ShardDied and respawns it
            for record in records:
                await asyncio.wait_for(service.wait(record.job_id), timeout=120.0)
            deadline = monotonic() + 120.0
            while service.pool.respawns < 1:
                assert monotonic() < deadline, "the dead shard was not respawned"
                await asyncio.sleep(0.01)
            pids.append(service.pool._processes[1].pid)
        finally:
            await service.close()

    asyncio.run(bound())
    assert len(pids) == 3
    assert not [p for p in mp.active_children() if p.pid in pids]
    assert open_fds() == before


def torn_worker(shard, down, up, cancel_flag):
    """A shard that dies inside a message: it reports ready, then answers
    its first dispatch with a terminal's frame header and half the body
    the header announces, and exits."""
    workers._send(up.fileno(), {"kind": "shard", "event": "ready", "shard": shard, "pid": os.getpid()})
    (job,) = workers._receive(down.fileno())
    body = pickle.dumps({
        "kind": "job", "job_id": job["job_id"], "shard": shard,
        "event": "done", "result": {"state": [0.5] * 4096},
    })
    os.write(up.fileno(), workers.FRAME.pack(len(body)) + body[: len(body) // 2])
    os._exit(3)


def test_a_torn_message_is_a_shard_death_and_a_respawn(monkeypatch):
    """End of file inside a message is the worker's death, never a
    message: the job fails ``ShardDied`` with the worker's exit code and
    the shard respawns (ROADMAP item 7's SIGKILL-mid-message hole)."""
    monkeypatch.setattr(workers, "_worker_main", torn_worker)

    async def scenario():
        service = SimulationService(shards=1)
        await service.start()
        try:
            record = service.submit(JobSpec(problem="sod", problem_args={"n_cells": 32}, max_steps=2))
            await asyncio.wait_for(service.wait(record.job_id), timeout=120.0)
            assert record.state is JobState.FAILED
            assert record.error["type"] == "ShardDied"
            assert "exitcode 3" in record.error["message"]
            assert [e["event"] for e in record.events] == ["queued", "started", "failed"]
            for _ in range(1000):
                if service.pool.respawns:
                    break
                await asyncio.sleep(0.01)
            assert service.pool.respawns == 1 and service.pool.alive() == [True]
        finally:
            await service.close()

    asyncio.run(scenario())


def pipe_fill(fd):
    """Bytes waiting in the pipe ``fd``."""
    count = array.array("i", [0])
    fcntl.ioctl(fd, termios.FIONREAD, count)
    return count[0]


def test_sigkill_inside_a_multi_write_message_is_a_death():
    """The real worker, killed while it writes a terminal larger than the
    pipe holds (600 KB of state into 64 KB nobody reads yet): the loop
    reader delivers the whole messages before it, then ``died`` with the
    signal's exit code — no terminal — and the respawned shard serves."""
    pool = ShardPool(shards=1)
    pool.start()
    try:
        fd = pool._up[0]
        capacity = fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ)
        big = JobSpec(problem="sod", problem_args={"n_cells": 20_000}, max_steps=1, return_state=True)
        pool.send(0, [("big", big)])
        # Ahead of the terminal only a small steps message is sent, so a
        # pipe more than half full holds the head of the terminal, whose
        # body alone is bigger than the pipe: the worker is mid-message.
        deadline = monotonic() + 120.0
        while pipe_fill(fd) <= capacity // 2:
            assert monotonic() < deadline, "the terminal never reached the pipe"
        os.kill(pool._processes[0].pid, signal.SIGKILL)

        async def read():
            loop = asyncio.get_running_loop()
            pool.bind(loop)
            events = []
            while not events or events[-1]["kind"] != "shard":
                events.append(await asyncio.wait_for(pool.events(0).get(), 30.0))
            await loop.run_in_executor(None, pool.respawn, 0)
            pool.send(0, [("after", JobSpec(problem="sod", problem_args={"n_cells": 32}, max_steps=2))])
            while events[-1].get("event") not in TERMINALS:
                events.append(await asyncio.wait_for(pool.events(0).get(), 120.0))
            return events

        events = asyncio.run(read())
        died = next(i for i, e in enumerate(events) if e.get("event") == "died")
        assert events[died]["exitcode"] == -signal.SIGKILL
        assert {e["kind"] for e in events[:died]} == {"steps"}  # no torn terminal
        assert (events[-1]["job_id"], events[-1]["event"]) == ("after", "done")
    finally:
        pool.shutdown()


#: How soon a SIGKILL'd idle shard must be reported.  End of file reaches
#: the loop within milliseconds; the pump thread it replaced needed two
#: consecutive empty 0.2 s polls of a dead process, i.e. more than 0.2 s.
DEATH_REPORT_S = 0.2


def test_an_idle_shard_killed_is_reported_at_once():
    pool = ShardPool(shards=1)
    pool.start()
    try:

        async def watch():
            pool.bind(asyncio.get_running_loop())
            await asyncio.sleep(0.05)  # the reader is parked on the pipe
            killed = monotonic()
            os.kill(pool._processes[0].pid, signal.SIGKILL)
            event = await asyncio.wait_for(pool.events(0).get(), 30.0)
            return event, monotonic() - killed

        event, waited = asyncio.run(watch())
        assert (event["event"], event["exitcode"]) == ("died", -signal.SIGKILL)
        assert waited < DEATH_REPORT_S, f"death reported after {waited:.3f} s"
    finally:
        pool.shutdown()
