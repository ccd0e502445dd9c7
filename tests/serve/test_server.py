"""End-to-end service tests over the TCP/JSON-lines protocol.

One real service (2 spawn shards + asyncio server in a daemon thread)
serves the whole module; each test talks to it with the blocking
client, exactly like an external user.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import time

import pytest

from repro.errors import ServiceError
from repro.serve import (
    JobSpec,
    QueueFull,
    ServiceClient,
    SimulationService,
)
from repro.serve import server as server_module
from repro.serve.jobs import JobState
from repro.serve.server import start_in_thread


@pytest.fixture(scope="module")
def handle():
    handle = start_in_thread(shards=2, queue_depth=8)
    yield handle
    handle.stop()


@pytest.fixture()
def client(handle):
    with ServiceClient(port=handle.port) as client:
        yield client


def sod_spec(**overrides):
    payload = dict(problem="sod", problem_args={"n_cells": 64}, t_end=0.05)
    payload.update(overrides)
    return JobSpec(**payload)


def slow_spec(**overrides):
    payload = dict(
        problem="sod",
        problem_args={"n_cells": 400},
        max_steps=200_000,
        trace_every=1000,
    )
    payload.update(overrides)
    return JobSpec(**payload)


def test_ping(client):
    assert client.ping()


def test_submit_wait_returns_result(client):
    response = client.run(sod_spec())
    assert response["status"]["state"] == "done"
    result = response["result"]
    assert result["steps"] > 0
    assert len(result["state_sha256"]) == 64
    assert result["shape"] == [64, 3]


def test_cached_resubmit_is_identical(client):
    spec = sod_spec(problem_args={"n_cells": 48})
    cold = client.run(spec)
    assert cold["status"]["cached"] is False
    warm = client.run(spec)
    assert warm["status"]["cached"] is True
    # Verbatim payload: same digest, same state, bit for bit.
    assert warm["result"] == cold["result"]
    # Scheduling-only differences still hit the same entry.
    rescheduled = client.run(sod_spec(problem_args={"n_cells": 48}, priority=7))
    assert rescheduled["status"]["cached"] is True


def test_status_endpoint(client):
    job_id = client.run(sod_spec())["job_id"]
    status = client.status(job_id)
    assert status["state"] == "done"
    assert status["job_id"] == job_id
    assert status["finished"] >= status["created"]


def test_stream_replays_and_follows(client):
    spec = JobSpec(
        problem="lax", problem_args={"n_cells": 64}, max_steps=8, trace_every=2
    )
    job_id = client.submit(spec)["job_id"]
    events = list(client.stream(job_id))
    kinds = [(event.get("kind"), event.get("event")) for event in events]
    assert kinds[0] == ("job", "queued")
    assert ("job", "started") in kinds
    started = events[kinds.index(("job", "started"))]
    assert started["batched"] == 1 and "attempt" not in started
    step_records = [event for event in events if event.get("kind") == "step"]
    assert [record["step"] for record in step_records] == [2, 4, 6, 8]
    assert kinds[-1] == ("job", "done")
    # Streaming a finished job replays the full history again.
    replay = list(client.stream(job_id))
    assert [(e.get("kind"), e.get("event")) for e in replay] == kinds


def test_cancel_running_job(client):
    job_id = client.submit(slow_spec())["job_id"]
    deadline = time.monotonic() + 30.0
    while client.status(job_id)["state"] == "queued":
        assert time.monotonic() < deadline, "job never started"
        time.sleep(0.01)
    client.cancel(job_id, reason="operator")
    events = list(client.stream(job_id))  # follows until terminal
    assert events[-1] == {
        "kind": "job", "event": "cancelled",
        "job_id": job_id, "reason": "operator",
    }
    assert client.status(job_id)["state"] == "cancelled"


def test_deadline_cancels_on_server_side(client):
    response = client.run(slow_spec(deadline_s=0.3))
    assert response["status"]["state"] == "cancelled"
    assert response["status"]["cancel_reason"] == "deadline"


def test_physics_blowup_fails_once_and_ships_forensics(client):
    spec = JobSpec.from_dict({
        "problem": "sod",
        "problem_args": {"n_cells": 32},
        "max_steps": 50,
        "config": {"cfl": 10.0},
    })
    dispatched = sum(client.stats()["shards"]["dispatched"])
    response = client.run(spec)
    status = response["status"]
    assert status["state"] == "failed"
    error = status["error"]
    assert error["type"] == "PhysicsError"
    assert error["forensics"]["cells"]
    assert response["result"] is None
    # One attempt: a second run could only reproduce the first.
    events = [e for e in client.stream(response["job_id"]) if e["kind"] == "job"]
    assert [event["event"] for event in events] == ["queued", "started", "failed"]
    assert events[-1] == {
        "kind": "job", "event": "failed",
        "job_id": response["job_id"], "error": error,
    }
    stats = client.stats()
    assert sum(stats["shards"]["dispatched"]) == dispatched + 1
    assert "retries" not in stats
    # Containment: the service keeps serving after the blow-up.
    assert client.run(sod_spec())["status"]["state"] == "done"
    assert all(client.stats()["shards"]["alive"])


def test_stats_shape(client):
    client.run(sod_spec())
    stats = client.stats()
    assert stats["kind"] == "stats"
    assert stats["submitted"] >= 1
    assert stats["jobs"].get("done", 0) >= 1
    assert stats["queue"]["maxsize"] == 8
    assert stats["result_cache"]["cache"] == "result"
    assert stats["shards"]["count"] == 2
    assert stats["uptime_s"] > 0.0


def test_bad_requests_get_error_responses(client):
    response = client.request("frobnicate")
    assert response["ok"] is False and "unknown op" in response["error"]
    response = client.request("status", job_id="no-such-job")
    assert response["ok"] is False
    assert response["error_type"] == "ServiceError"
    response = client.request("submit", spec={"problem": "warp-drive"})
    assert response["ok"] is False
    assert response["error_type"] == "ConfigurationError"
    with pytest.raises(ServiceError, match="unknown job"):
        client.status("nope")
    assert client.ping()  # the connection survived all of it


def test_wrong_typed_spec_fields_get_error_response(client):
    """A submit with garbage-typed scheduling fields is the client's
    error — it must not enqueue, and repeated offences must not leak
    shard slots (the service keeps serving afterwards)."""
    bad = {
        "problem": "sod", "problem_args": {"n_cells": 32},
        "max_steps": 5, "priority": "high",
    }
    for _ in range(3):  # more bad submits than shards: a leak would brick
        response = client.request("submit", spec=bad)
        assert response["ok"] is False
        assert response["error_type"] == "ConfigurationError"
        assert "priority" in response["error"]
    assert client.run(sod_spec())["status"]["state"] == "done"
    assert all(client.stats()["shards"]["alive"])


def test_nan_t_end_is_refused_and_leaves_the_shards_free(client):
    """``NaN`` is valid on the wire (json.loads admits it); admitted, the
    job would never reach its stop rule and hold a shard for good."""
    bad = {"problem": "sod", "problem_args": {"n_cells": 32}, "t_end": float("nan")}
    for _ in range(3):  # more bad submits than shards
        response = client.request("submit", spec=bad)
        assert response["ok"] is False
        assert response["error_type"] == "ConfigurationError"
    assert client.ping()
    assert client.run(sod_spec())["status"]["state"] == "done"
    assert all(client.stats()["shards"]["alive"])


def test_nan_t_exact_job_is_refused_and_never_cached(client):
    """An ``exact`` job with ``t: NaN`` used to come back ``done`` — every
    sample one constant state, ``"time": NaN`` — and to be cached."""
    cache = client.stats()["result_cache"]
    bad = {"problem": "exact", "problem_args": {"base": "sod", "t": float("nan")}}
    response = client.request("submit", spec=bad)
    assert response["ok"] is False
    assert response["error_type"] == "ConfigurationError"
    assert client.ping()
    after = client.stats()["result_cache"]
    assert (after["entries"], after["misses"]) == (cache["entries"], cache["misses"])


def test_non_object_request_line_gets_error_response(handle):
    with socket.create_connection(("127.0.0.1", handle.port), timeout=30.0) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b"5\n")
        response = json.loads(reader.readline())
        assert response == {"ok": False, "error": "request must be a JSON object"}
        sock.sendall(b'"stats"\n')
        assert json.loads(reader.readline())["ok"] is False
        sock.sendall(b'{"op": "ping"}\n')  # the connection survived
        assert json.loads(reader.readline())["ok"] is True


def test_cancel_queued_job_while_all_shards_busy(client):
    """With every shard busy, a queued job must stay in the queue so a
    cancel still lands (not sit popped-but-undispatched where the cancel
    silently no-ops and the job runs anyway)."""
    busy = [client.submit(slow_spec())["job_id"] for _ in range(2)]
    deadline = time.monotonic() + 60.0
    while any(client.status(job_id)["state"] == "queued" for job_id in busy):
        assert time.monotonic() < deadline, "busy jobs never started"
        time.sleep(0.01)
    queued = client.submit(slow_spec(priority=5))["job_id"]
    assert client.status(queued)["state"] == "queued"
    status = client.cancel(queued, reason="changed my mind")
    assert status["state"] == "cancelled"
    assert status["cancel_reason"] == "changed my mind"
    for job_id in busy:
        client.cancel(job_id)
        assert list(client.stream(job_id))[-1]["event"] == "cancelled"
    assert client.status(queued)["shard"] is None  # never reached a shard


def test_shard_death_fails_job_and_respawns():
    """SIGKILL mid-job: the supervisor synthesizes a terminal failure
    instead of waiting for ever, the records delivered before the death
    stay in the job's replay, and the shard respawns."""

    async def scenario():
        service = SimulationService(shards=1, queue_depth=4)
        await service.start()
        try:
            record = service.submit(slow_spec(trace_every=10))
            _, live = service.subscribe(record.job_id)
            seen = 0
            while seen < 3:  # the job is streaming
                seen += (await asyncio.wait_for(live.get(), 60.0))["kind"] == "step"
            os.kill(service.pool._processes[0].pid, signal.SIGKILL)
            await asyncio.wait_for(service.wait(record.job_id), timeout=120.0)
            assert record.state is JobState.FAILED
            assert record.error["type"] == "ShardDied"
            steps = [e["step"] for e in record.events if e["kind"] == "step"]
            assert len(steps) >= seen and steps == sorted(set(steps))
            assert record.events[-1]["event"] == "failed"
            # The shard respawned: the service keeps serving on the slot.
            follow = service.submit(sod_spec())
            await asyncio.wait_for(service.wait(follow.job_id), timeout=120.0)
            assert follow.state is JobState.DONE
            assert service.pool.alive() == [True]
            assert service.stats()["shards"]["respawns"] == 1
        finally:
            await service.close()

    asyncio.run(scenario())


def test_shard_death_fails_every_job_of_a_dispatch():
    """One supervisor, N records: the worker dying mid-dispatch fails
    all of them and the shard respawns once."""

    def long_2d(mach):
        return JobSpec(
            problem="two_channel",
            problem_args={"n_cells": 24, "h": 12.0, "mach": mach},
            max_steps=200_000, trace_every=1000,
        )

    async def scenario():
        service = SimulationService(shards=1, queue_depth=4, batch_max=2)
        await service.start()
        try:
            records = [service.submit(long_2d(mach)) for mach in (1.5, 3.0)]
            deadline = time.monotonic() + 60.0
            while any(r.state is not JobState.RUNNING for r in records):
                assert time.monotonic() < deadline, "jobs never started"
                await asyncio.sleep(0.01)
            assert service.batches_formed == 1
            service.pool._processes[0].terminate()
            for record in records:
                await asyncio.wait_for(service.wait(record.job_id), timeout=120.0)
                assert record.state is JobState.FAILED
                assert record.error["type"] == "ShardDied"
            assert service.pool.jobs_dispatched == [2]
            follow = service.submit(sod_spec())
            await asyncio.wait_for(service.wait(follow.job_id), timeout=120.0)
            assert follow.state is JobState.DONE
            assert service.stats()["shards"]["respawns"] == 1
        finally:
            await service.close()

    asyncio.run(scenario())


def test_queue_full_rejection_without_pool():
    """Admission control is pure queue logic — no shards needed."""

    async def scenario():
        service = SimulationService(shards=1, queue_depth=2)
        specs = [sod_spec(max_steps=step) for step in (11, 12, 13)]
        service.submit(specs[0])
        service.submit(specs[1])
        with pytest.raises(QueueFull):
            service.submit(specs[2])
        assert service.queue.stats()["rejected"] == 1

    asyncio.run(scenario())


def test_cancel_queued_job_via_tombstone():
    """A job cancelled while queued never reaches a shard."""

    async def scenario():
        service = SimulationService(shards=1, queue_depth=8)
        record = service.submit(sod_spec(max_steps=21))
        status = service.cancel(record.job_id, reason="changed my mind")
        assert status["state"] == "cancelled"
        assert status["cancel_reason"] == "changed my mind"
        assert service.queue.stats()["cancelled"] == 1
        assert [event["event"] for event in record.events] == [
            "queued", "cancelled",
        ]

    asyncio.run(scenario())


def test_job_table_is_bounded(monkeypatch):
    """Only the newest RETAINED_JOBS terminal records are kept; counts
    go on counting the forgotten ones."""
    monkeypatch.setattr(server_module, "RETAINED_JOBS", 3)

    async def scenario():
        service = SimulationService(shards=1, queue_depth=4)
        await service.start()
        try:
            records = []
            for steps in range(1, 11):
                record = await service.submit_wait(sod_spec(t_end=None, max_steps=steps))
                records.append(record)
                assert len(service.jobs) <= 3 + 1  # the bound + in flight
                await service.wait(record.job_id)
            assert [r.state for r in records] == [JobState.DONE] * 10
            assert list(service.jobs) == [r.job_id for r in records[-3:]]
            assert not service._completion and not service._subscribers
            for call in (service.status, service.subscribe, service.cancel):
                with pytest.raises(ServiceError, match="unknown job 'j1'"):
                    call("j1")
            assert service.status("j10")["state"] == "done"
            cached = service.submit(sod_spec(t_end=None, max_steps=1))
            assert cached.cached  # the result outlived its job record
            failed = service.submit(sod_spec(problem_args={"n_cellz": 64}))
            await service.wait(failed.job_id)
            stats = service.stats()
            assert stats["submitted"] == 12
            assert stats["jobs"] == {"done": 11, "failed": 1}

            # Forgotten the moment it finishes: whoever holds the record
            # (a waiter, a stream) still has all of it.
            monkeypatch.setattr(server_module, "RETAINED_JOBS", 0)
            record = service.submit(sod_spec(t_end=None, max_steps=11))
            _, live = service.subscribe(record.job_id)
            waited = await asyncio.wait_for(service.wait(record.job_id), 120.0)
            assert waited is record and record.state is JobState.DONE
            assert record.result["steps"] == 11
            assert record.job_id not in service.jobs
            events = []
            while (event := await live.get()) is not None:
                events.append(event)
            assert events == record.events[1:]  # subscribed after "queued"
            assert service.stats()["jobs"] == {"done": 12, "failed": 1}
        finally:
            await service.close()

    asyncio.run(scenario())
