"""End-to-end service tests over the TCP/JSON-lines protocol.

One real service (2 spawn shards + asyncio server in a daemon thread)
serves the whole module; each test talks to it with the blocking
client, exactly like an external user.
"""

from __future__ import annotations

import asyncio
import json
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
    assert started["batched"] == 1 and started["attempt"] == 1
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


def test_physics_blowup_retries_once_and_ships_forensics(client):
    spec = JobSpec.from_dict({
        "problem": "sod",
        "problem_args": {"n_cells": 32},
        "max_steps": 50,
        "config": {"cfl": 10.0},
    })
    response = client.run(spec)
    status = response["status"]
    assert status["state"] == "failed"
    assert status["attempts"] == 2  # retry-once-on-PhysicsError
    error = status["error"]
    assert error["type"] == "PhysicsError"
    assert error["forensics"]["cells"]
    assert response["result"] is None
    # Containment: the service keeps serving after the blow-up.
    assert client.run(sod_spec())["status"]["state"] == "done"
    stats = client.stats()
    assert stats["retries"] >= 1
    assert all(stats["shards"]["alive"])


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
    assert client.status(queued)["attempts"] == 0  # never reached a shard


def test_shard_death_fails_job_respawns_and_cleans_spool():
    """Killing a worker mid-job synthesizes a terminal failure instead of
    leaving the job RUNNING forever, the shard respawns, and drained
    spool files are reclaimed."""

    async def scenario():
        service = SimulationService(shards=1, queue_depth=4)
        await service.start()
        try:
            record = service.submit(slow_spec())
            deadline = time.monotonic() + 60.0
            while record.state is not JobState.RUNNING:
                assert time.monotonic() < deadline, "job never started"
                await asyncio.sleep(0.01)
            service.pool._processes[0].terminate()
            await asyncio.wait_for(service.wait(record.job_id), timeout=120.0)
            assert record.state is JobState.FAILED
            assert record.error["type"] == "ShardDied"
            # The shard respawned: the service keeps serving on the slot.
            follow = service.submit(sod_spec())
            await asyncio.wait_for(service.wait(follow.job_id), timeout=120.0)
            assert follow.state is JobState.DONE
            assert service.pool.alive() == [True]
            assert service.stats()["shards"]["respawns"] == 1
            assert not service.pool.spool_path(follow.job_id, 1).exists()
            assert not service.pool.spool_path(record.job_id, 1).exists()
        finally:
            await service.close()

    asyncio.run(scenario())


def test_shard_death_fails_every_job_of_a_dispatch():
    """One supervisor, N records: the worker dying mid-dispatch fails
    all of them non-retryably (no retry edge taken) and the shard
    respawns once."""

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
                assert record.attempts == 1
                assert not service.pool.spool_path(record.job_id, 1).exists()
            assert service.retries == 0
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
