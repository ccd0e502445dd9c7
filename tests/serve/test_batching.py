"""Batched dispatch through the service stack (ISSUE 7).

Four layers, tested bottom-up:

* :meth:`JobSpec.batch_key` — which jobs may share a batched engine;
* :meth:`PriorityJobQueue.drain` — pulling a batch's mates out of the
  queue in priority order;
* :class:`ShardPool` dispatch — a job sent with mates must produce
  the payload of the same job sent alone, bit for bit and key for key;
* the async :class:`SimulationService` — batch formation in the
  dispatcher, a builder-failure costing only its own job, and the
  disk-spilled result cache surviving a service restart bitwise intact.

One real spawn shard serves the whole module (spawn startup is the
expensive part); the async tests start their own single-shard services
because batch formation needs direct event-loop control.
"""

from __future__ import annotations

import asyncio
import tempfile

import pytest

from repro.serve.jobs import JobSpec, JobState
from repro.serve.queue import PriorityJobQueue
from repro.serve.server import SimulationService
from repro.serve.workers import ShardPool

N_CELLS = 24
H = 12.0
MAX_STEPS = 8


def two_channel_spec(mach, **overrides):
    payload = dict(
        problem="two_channel",
        problem_args={"n_cells": N_CELLS, "h": H, "mach": mach},
        max_steps=MAX_STEPS,
    )
    payload.update(overrides)
    return JobSpec(**payload)


# -- batch_key --------------------------------------------------------------


def test_batch_key_groups_shape_compatible_jobs():
    keys = {two_channel_spec(mach).batch_key() for mach in (1.5, 2.2, 3.0)}
    assert len(keys) == 1
    assert keys.pop() is not None


def test_batch_key_scheduling_fields_do_not_split_batches():
    base = two_channel_spec(2.0)
    assert base.batch_key() == two_channel_spec(2.0, priority=7).batch_key()
    assert base.batch_key() == two_channel_spec(2.0, trace_every=5).batch_key()


def test_batch_key_splits_on_result_affecting_fields():
    base = two_channel_spec(2.0)
    different_shape = JobSpec(
        problem="two_channel",
        problem_args={"n_cells": 32, "h": 16.0, "mach": 2.0},
        max_steps=MAX_STEPS,
    )
    assert base.batch_key() != different_shape.batch_key()
    assert base.batch_key() != two_channel_spec(2.0, max_steps=9).batch_key()
    from repro.euler.solver import SolverConfig

    roe = two_channel_spec(2.0, config=SolverConfig(riemann="roe"))
    assert base.batch_key() != roe.batch_key()


def test_batch_key_none_for_unbatchable_jobs():
    # 1-D and exact problems never batch
    assert JobSpec(problem="sod", t_end=0.1).batch_key() is None
    assert JobSpec(problem="exact", problem_args={"t": 0.2}).batch_key() is None
    # deadlines don't batch: the cancel flag is batch-granular
    assert two_channel_spec(2.0, deadline_s=30.0).batch_key() is None
    # parallel-solver jobs own their worker processes
    spec = JobSpec(
        problem="two_channel",
        problem_args={"n_cells": N_CELLS, "h": H, "mach": 2.0, "workers": 2},
        max_steps=MAX_STEPS,
    )
    assert spec.batch_key() is None


# -- queue.drain ------------------------------------------------------------


def test_drain_pulls_matches_in_priority_order():
    async def scenario():
        queue = PriorityJobQueue(maxsize=8)
        queue.put_nowait("even-2", priority=5)
        queue.put_nowait("odd-1", priority=1)
        queue.put_nowait("even-0", priority=0)
        queue.put_nowait("even-4", priority=3)
        drained = queue.drain(lambda item: item.startswith("even"))
        return drained, len(queue), await queue.get()

    drained, depth, remaining = asyncio.run(scenario())
    assert drained == ["even-0", "even-4", "even-2"]  # priority, then FIFO
    assert depth == 1
    assert remaining == "odd-1"


def test_drain_respects_limit_and_counts_as_dequeued():
    async def scenario():
        queue = PriorityJobQueue(maxsize=8)
        for index in range(4):
            queue.put_nowait(f"job-{index}")
        before = queue.stats()
        drained = queue.drain(lambda item: True, limit=2)
        after = queue.stats()
        return drained, before, after

    drained, before, after = asyncio.run(scenario())
    assert drained == ["job-0", "job-1"]
    assert after["dequeued"] - before["dequeued"] == 2
    assert after["cancelled"] == before["cancelled"]
    assert after["depth"] == 2


# -- ShardPool batched dispatch --------------------------------------------


@pytest.fixture(scope="module")
def pool():
    pool = ShardPool(shards=1)
    pool.start()
    yield pool
    pool.shutdown()


def _await_terminal(pool, want):
    """Collect terminal job events until all ``want`` job_ids reported."""
    results = {}
    while set(results) < set(want):
        event = pool.next_event(0, timeout=180)
        if event.get("kind") == "job" and event.get("event") in (
            "done", "failed", "cancelled"
        ):
            results[event["job_id"]] = event
    return results


def test_send_batch_matches_send_job_bitwise(pool):
    """One ``send``: a job sent alone == the same job sent with mates,
    per-job payload equal on every key but ``wall_seconds`` and
    ``batched`` (the member count, 1 included), same key set."""
    machs = (1.5, 2.2, 3.0)
    specs = [two_channel_spec(mach) for mach in machs]

    solo = {}
    for index, spec in enumerate(specs):
        pool.send(0, [(f"solo-{index}", spec)])
        solo.update(_await_terminal(pool, [f"solo-{index}"]))

    pool.send(0, [(f"batch-{i}", s) for i, s in enumerate(specs)])
    batched = _await_terminal(pool, [f"batch-{i}" for i in range(len(specs))])

    for index in range(len(specs)):
        batch_event = batched[f"batch-{index}"]
        solo_event = solo[f"solo-{index}"]
        assert batch_event["event"] == solo_event["event"] == "done"
        result = batch_event["result"]
        reference = solo_event["result"]
        assert set(result) == set(reference)
        assert result["batched"] == len(specs)
        assert reference["batched"] == 1
        for key in set(reference) - {"wall_seconds", "batched"}:
            assert result[key] == reference[key], key  # state: bit-for-bit via repr


def test_stream_record_follows_the_member_count(pool):
    """The one kept difference: alone, a job streams full trace records;
    with mates, the reduced ``{step, time, dt, batched}`` record."""
    specs = [two_channel_spec(mach, max_steps=2) for mach in (1.5, 3.0)]
    pool.send(0, [("full", specs[0])])
    pool.send(0, [("reduced-0", specs[0]), ("reduced-1", specs[1])])
    streamed = {"full": [], "reduced-0": [], "reduced-1": []}
    terminals = set()
    while terminals < set(streamed):
        event = pool.next_event(0, timeout=180)
        if event["kind"] == "steps":
            for job_id, record in event["records"]:
                streamed[job_id].append(record)
        else:
            terminals.add(event["job_id"])
    full, reduced = streamed["full"], streamed["reduced-0"]
    assert [r["step"] for r in full] == [r["step"] for r in reduced] == [1, 2]
    assert set(reduced[0]) == {"kind", "step", "time", "dt", "batched"}
    assert reduced[0]["batched"] == 2
    assert {"min_density", "mass_drift"} <= set(full[0])
    for one, other in zip(full, reduced):  # the same trajectory either way
        assert (one["time"], one["dt"]) == (other["time"], other["dt"])


def test_batch_builder_failure_costs_only_its_job(pool):
    """mach <= 1 fails in the problem builder; its batch mates run, and
    the failed event has the shape it has when the job is sent alone."""
    specs = [two_channel_spec(1.5), two_channel_spec(0.5), two_channel_spec(3.0)]
    pool.send(0, [(f"mix-{i}", s) for i, s in enumerate(specs)])
    events = _await_terminal(pool, [f"mix-{i}" for i in range(3)])
    assert events["mix-0"]["event"] == "done"
    assert events["mix-2"]["event"] == "done"
    failed = events["mix-1"]
    assert failed["event"] == "failed"
    assert failed["error"]["type"] == "ConfigurationError"

    pool.send(0, [("alone", specs[1])])
    alone = _await_terminal(pool, ["alone"])["alone"]
    assert set(alone) == set(failed)
    assert set(alone["error"]) == set(failed["error"])
    assert alone["event"] == failed["event"]
    for key in ("type", "message"):
        assert alone["error"][key] == failed["error"][key]


def test_member_blowup_has_the_solo_failure_shape(pool):
    """A PhysicsError fails its job with forensics, alone (it
    propagates, ``batch_index`` None) or with a mate (it is retired,
    ``batch_index`` its slot) — one event shape; the mate completes."""
    from repro.euler.solver import SolverConfig

    unstable = SolverConfig(cfl=10.0)
    boom = two_channel_spec(2.2, config=unstable, max_steps=50)
    mate = two_channel_spec(1.5, config=unstable, max_steps=1)
    pool.send(0, [("boom-alone", boom)])
    alone = _await_terminal(pool, ["boom-alone"])["boom-alone"]
    pool.send(0, [("mate", mate), ("boom-mated", boom)])
    events = _await_terminal(pool, ["mate", "boom-mated"])
    mated = events["boom-mated"]
    for failed in (alone, mated):
        assert failed["event"] == "failed"
        assert failed["error"]["type"] == "PhysicsError"
        assert failed["error"]["forensics"]["cells"]
    assert set(alone["error"]) == set(mated["error"])
    assert alone["error"]["batch_index"] is None
    assert mated["error"]["batch_index"] == 1
    assert alone["error"]["message"] == mated["error"]["message"]


def test_cancel_stops_every_job_of_a_dispatch(pool):
    specs = [two_channel_spec(mach, max_steps=200_000, trace_every=1000)
             for mach in (1.5, 3.0)]
    pool.send(0, [(f"long-{i}", s) for i, s in enumerate(specs)])
    pool.cancel(0)
    events = _await_terminal(pool, ["long-0", "long-1"])
    assert {e["event"] for e in events.values()} == {"cancelled"}


# -- async service: batch formation ----------------------------------------


def test_service_forms_batches_and_isolates_bad_members():
    async def scenario():
        service = SimulationService(shards=1, queue_depth=16, batch_max=4)
        await service.start()
        try:
            machs = (1.5, 2.0, 2.5, 3.0)
            records = [service.submit(two_channel_spec(m)) for m in machs]
            done = [await service.wait(r.job_id) for r in records]
            assert [r.state for r in done] == [JobState.DONE] * 4
            assert service.batches_formed == 1
            assert service.batched_jobs == 4
            for record in done:  # the started event carries the member count
                started = [e for e in record.events if e.get("event") == "started"]
                assert [e["batched"] for e in started] == [4]
            reference = {m: r.result for m, r in zip(machs, done)}

            # second round: the bad member's builder failure is its own
            mixed = [
                service.submit(two_channel_spec(m, max_steps=9))
                for m in (1.5, 0.5, 3.0)
            ]
            states = [await service.wait(r.job_id) for r in mixed]
            assert states[0].state == JobState.DONE
            assert states[1].state == JobState.FAILED
            assert states[1].error["type"] == "ConfigurationError"
            assert states[2].state == JobState.DONE

            stats = service.stats()
            assert stats["batching"]["batch_max"] == 4
            assert stats["batching"]["batches_formed"] >= 2
            return reference, [r.result for r in (states[0], states[2])]
        finally:
            await service.close()

    reference, survivors = asyncio.run(scenario())
    # survivors took one more step than round one but share the first
    # 8 steps' trajectory; sanity-check the payloads are real results
    assert all(r["steps"] == 9 for r in survivors)
    assert all(len(r["state_sha256"]) == 64 for r in reference.values())


def test_batched_service_results_match_unbatched_service():
    async def scenario(batch_max):
        service = SimulationService(shards=1, queue_depth=16, batch_max=batch_max)
        await service.start()
        try:
            records = [
                service.submit(two_channel_spec(m)) for m in (1.6, 2.4, 3.2)
            ]
            done = [await service.wait(r.job_id) for r in records]
            assert [r.state for r in done] == [JobState.DONE] * 3
            if batch_max == 1:
                # dispatches of one are not batches: the stats stay
                # comparable with what they counted before
                assert service.stats()["batching"]["batches_formed"] == 0
                assert service.stats()["batching"]["batched_jobs"] == 0
                assert all(
                    e["batched"] == 1
                    for r in done for e in r.events if e.get("event") == "started"
                )
            return [
                {k: v for k, v in r.result.items() if k not in ("wall_seconds", "batched")}
                for r in done
            ]
        finally:
            await service.close()

    batched = asyncio.run(scenario(4))
    solo = asyncio.run(scenario(1))
    assert batched == solo  # bitwise: sha256 + full state lists compared


# -- disk-spilled result cache across a restart -----------------------------


def test_result_cache_survives_service_restart():
    async def first_run(cache_dir):
        service = SimulationService(shards=1, queue_depth=8, cache_dir=cache_dir)
        await service.start()
        try:
            record = service.submit(two_channel_spec(2.2))
            record = await service.wait(record.job_id)
            assert record.state == JobState.DONE
            assert record.cached is False
            assert service.result_cache.stats()["disk_writes"] == 1
            return record.result
        finally:
            await service.close()

    async def restarted_run(cache_dir, reference):
        service = SimulationService(shards=1, queue_depth=8, cache_dir=cache_dir)
        await service.start()
        try:
            record = service.submit(two_channel_spec(2.2))
            assert record.cached is True  # answered at submit, no shard work
            assert record.state == JobState.DONE
            assert record.result == reference  # bitwise-identical payload
            stats = service.result_cache.stats()
            assert stats["disk_hits"] == 1
            assert stats["hits"] == 1
            assert stats["disk_errors"] == 0
        finally:
            await service.close()

    with tempfile.TemporaryDirectory(prefix="repro-cache-") as cache_dir:
        reference = asyncio.run(first_run(cache_dir))
        asyncio.run(restarted_run(cache_dir, reference))
