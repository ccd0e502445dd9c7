"""The asyncio simulation service and its TCP/JSON-lines front end.

:class:`SimulationService` ties the pieces together on one event loop:
submits land in the :class:`~repro.serve.queue.PriorityJobQueue`
(unless the :class:`~repro.serve.cache.ResultCache` answers first), a
dispatcher pairs queued jobs — one, or up to ``batch_max``
shape-compatible ones — with free shards of the
:class:`~repro.serve.workers.ShardPool`, and one supervisor coroutine
per dispatch reads the shard's event queue — the only channel a worker
has — publishing ``steps`` records as progress events, enforcing the
deadline, and applying each terminal: cache a ``done`` result, ship a
failure's forensic report to the client.  A job is dispatched once:
every path is deterministic, so a second run could only reproduce the
first.  The newest :data:`RETAINED_JOBS` finished jobs stay queryable;
older ones are forgotten (their results live on in the result cache).

:class:`ServiceServer` speaks newline-delimited JSON over TCP.  One
request per line, one (or, for ``stream``, many) response lines back::

    {"op": "submit", "spec": {...}, "wait": false}
    {"op": "status", "job_id": "j3"}
    {"op": "stream", "job_id": "j3"}      # replays + follows events
    {"op": "cancel", "job_id": "j3"}
    {"op": "stats"} | {"op": "ping"} | {"op": "shutdown"}

Everything is stdlib: asyncio, sockets, json, multiprocessing.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import traceback
from collections import Counter, deque
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError, ServiceError
from repro.serve.cache import ResultCache
from repro.serve.jobs import JobRecord, JobSpec, JobState
from repro.serve.queue import PriorityJobQueue, QueueFull

__all__ = ["SimulationService", "ServiceServer", "ServiceHandle", "start_in_thread"]

#: How many *terminal* job records (event history and result payload
#: included) the service keeps for ``status``/``stream``; an older id is
#: answered like an unknown one.
RETAINED_JOBS = 1024

#: Sentinel queued to a subscriber when its stream is over.
_STREAM_END = None


class SimulationService:
    """The in-process service: queue + shard pool + caches + policy."""

    def __init__(
        self,
        shards: int = 2,
        queue_depth: int = 64,
        result_cache_entries: int = 256,
        start_method: Optional[str] = None,
        batch_max: int = 1,
        cache_dir: Optional[str] = None,
    ):
        if batch_max < 1:
            raise ServiceError(f"batch_max must be >= 1, got {batch_max}")
        self.pool = None  # a ShardPool once start() has run
        self._pool_kwargs = dict(shards=shards, start_method=start_method)
        #: With ``batch_max > 1`` the dispatcher drains up to this many
        #: shape-compatible queued jobs (same ``JobSpec.batch_key()``)
        #: into one batched-engine dispatch per shard.
        self.batch_max = batch_max
        self.queue = PriorityJobQueue(maxsize=queue_depth)
        #: ``cache_dir`` spills result payloads to disk so cache entries
        #: survive a service restart (see :class:`ResultCache`).
        self.result_cache = ResultCache(
            max_entries=result_cache_entries, spill_dir=cache_dir
        )
        #: Every live job plus the newest RETAINED_JOBS terminal ones.
        self.jobs: Dict[str, JobRecord] = {}
        self.submitted = 0
        self._retained: deque = deque()  # terminal job ids, oldest first
        self._forgotten: Counter = Counter()  # final states of dropped records
        self._completion: Dict[str, asyncio.Event] = {}  # live jobs only
        self._subscribers: Dict[str, List[asyncio.Queue]] = {}
        self._free_shards: Optional[asyncio.Queue] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._supervisors: set = set()
        self.started_at: Optional[float] = None
        self.cache_hits_served = 0
        self.batches_formed = 0
        self.batched_jobs = 0
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Spawn the shards (in an executor — spawn blocks) and start
        the dispatcher."""
        from repro.serve.workers import ShardPool

        loop = asyncio.get_running_loop()
        self.pool = ShardPool(**self._pool_kwargs)
        await loop.run_in_executor(None, self.pool.start)
        self.pool.bind(loop)
        self._free_shards = asyncio.Queue()
        for shard in range(self.pool.shards):
            self._free_shards.put_nowait(shard)
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-serve-dispatcher"
        )
        self.started_at = time.time()

    async def close(self) -> None:
        """Stop accepting work, cancel in-flight supervision, end all
        streams, and tear the shard pool down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.queue.close()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            await asyncio.gather(self._dispatcher, return_exceptions=True)
        for task in list(self._supervisors):
            task.cancel()
        await asyncio.gather(*self._supervisors, return_exceptions=True)
        for record in list(self.jobs.values()):
            if not record.terminal:
                record.cancel_reason = record.cancel_reason or "shutdown"
                record.transition(JobState.CANCELLED)
                self._publish(record, {
                    "kind": "job", "event": "cancelled",
                    "job_id": record.job_id, "reason": record.cancel_reason,
                })
                self._finish(record)
        if self.pool is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.pool.shutdown)

    # -- submission -----------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit a job: answered from the result cache, or queued.

        Raises :class:`~repro.serve.queue.QueueFull` when the queue is
        at depth — the caller decides whether that is an error response
        (TCP path) or a reason to wait (:meth:`submit_wait`).
        """
        record = self._admit(spec)
        if not record.cached:
            self.queue.put_nowait(record, priority=spec.priority)
            self._publish_queued(record)
        return record

    async def submit_wait(self, spec: JobSpec) -> JobRecord:
        """Like :meth:`submit` but parks on a full queue (backpressure)."""
        record = self._admit(spec)
        if not record.cached:
            await self.queue.put(record, priority=spec.priority)
            self._publish_queued(record)
        return record

    def _admit(self, spec: JobSpec) -> JobRecord:
        """A record for ``spec``, already DONE if the result cache holds
        its answer; otherwise the caller queues it."""
        if self._closed:
            raise ServiceError("service is shut down")
        key = spec.cache_key()
        cached = self.result_cache.get(key)
        self.submitted += 1
        record = JobRecord(job_id=f"j{self.submitted}", spec=spec)
        self.jobs[record.job_id] = record
        self._completion[record.job_id] = asyncio.Event()
        if cached is not None:
            self._resolve_from_cache(record, key, cached)
        return record

    def _publish_queued(self, record: JobRecord) -> None:
        self._publish(record, {
            "kind": "job", "event": "queued",
            "job_id": record.job_id, "priority": record.spec.priority,
        })

    def _resolve_from_cache(self, record, key, payload) -> None:
        """A cache hit never enters the state machine: the record is
        born DONE, carrying the stored payload verbatim."""
        record.cached = True
        record.state = JobState.DONE
        record.started = record.finished = time.time()
        record.result = payload
        self.cache_hits_served += 1
        self._publish(record, {
            "kind": "job", "event": "cache_hit",
            "job_id": record.job_id, "key": key,
        })
        self._publish(record, {
            "kind": "job", "event": "done",
            "job_id": record.job_id, "cached": True, "result": payload,
        })
        self._finish(record)

    # -- dispatch and supervision --------------------------------------

    async def _dispatch_loop(self) -> None:
        from repro.serve.queue import QueueClosed

        while True:
            # Acquire the shard BEFORE popping: while every shard is busy
            # a queued job stays in the queue, so cancel() can still
            # tombstone it.  From get() to transition(RUNNING) there is
            # no await, so no cancel can land in between.
            shard = await self._free_shards.get()
            try:
                record = await self.queue.get()
            except QueueClosed:
                return
            batch = [record]
            if self.batch_max > 1:
                # Drain shape-compatible siblings of this job into one
                # batched dispatch — same batch key means same grid
                # shape/spacing, config and stopping criterion, which is
                # exactly what one StepEngine step can advance together.
                key = record.spec.batch_key()
                if key is not None:
                    batch += self.queue.drain(
                        lambda item: item.spec.batch_key() == key,
                        limit=self.batch_max - 1,
                    )
            for item in batch:
                item.transition(JobState.RUNNING)
                item.shard = shard
            if len(batch) > 1:  # stats count batches, not dispatches of one
                self.batches_formed += 1
                self.batched_jobs += len(batch)
            task = asyncio.create_task(
                self._supervise(batch, shard),
                name=f"repro-serve-supervise-{record.job_id}",
            )
            self._supervisors.add(task)
            task.add_done_callback(self._supervisors.discard)

    async def _supervise(self, records: List[JobRecord], shard: int) -> None:
        """Shepherd one dispatch — N >= 1 jobs on one shard — until every
        job has its terminal event.

        Everything the worker says arrives on the shard's one queue, in
        the order it was said: ``steps`` messages are published record
        by record, a terminal ends its job.  Both are matched against
        ``pending``, so a message naming a job that is already settled
        reaches nobody.  Each job keeps its own deadline timer and
        terminal; only the *execution* is shared.  (A dispatch of
        several carries no deadlines — ``batch_key`` refuses them: the
        shard's cancel flag is dispatch-granular, so one job's deadline
        would cancel its mates; an explicit client cancel of any member
        does stop the whole dispatch, the documented trade for amortized
        stepping.)

        Whatever happens in here — worker death, a bug in terminal
        handling, an exception mid-send — the shard slot is released (or
        the shard respawned first) and no record sticks in RUNNING:
        unexpected exceptions fail the jobs instead of leaking.
        """
        pending = {record.job_id: record for record in records}
        timers = []
        shard_died = False
        try:
            self.pool.send(
                shard, [(record.job_id, record.spec) for record in records]
            )
            loop = asyncio.get_running_loop()
            for record in records:
                self._publish(record, {
                    "kind": "job", "event": "started", "job_id": record.job_id,
                    "shard": shard, "batched": len(records),
                })
                if record.spec.deadline_s is not None:
                    timers.append(loop.call_later(
                        record.spec.deadline_s, self._deadline_fire, record, shard
                    ))
            events = self.pool.events(shard)
            while pending:
                event = await events.get()
                kind = event.get("kind")
                if kind == "steps":
                    for job_id, step in event["records"]:
                        if job_id in pending:
                            self._publish(pending[job_id], step)
                elif kind == "shard" and event.get("event") == "died":
                    # The worker process is gone (OOM kill, segfault):
                    # no terminal will ever arrive — synthesize them.
                    shard_died = True
                    for job_id, record in pending.items():
                        self._apply_terminal(record, {
                            "event": "failed",
                            "error": {
                                "type": "ShardDied",
                                "message": (
                                    f"shard {shard} died"
                                    f" (exitcode {event.get('exitcode')})"
                                    f" while running {job_id}"
                                ),
                            },
                        })
                    pending.clear()
                elif (
                    kind == "job"
                    and event.get("job_id") in pending
                    and event.get("event") in ("done", "failed", "cancelled")
                ):
                    self._apply_terminal(pending.pop(event["job_id"]), event)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - supervisor must not leak
            for record in records:
                self._fail_on_supervision_error(record, error)
        finally:
            for timer in timers:
                timer.cancel()
            usable = True
            if shard_died:
                usable = await self._respawn_shard(shard)
            if usable:
                # Free the shard only after every terminal is fully
                # processed, so a stale deadline/cancel flag can never
                # leak onto the next dispatch.  (A dead shard that could
                # not be respawned is NOT freed — its slot is retired.)
                self._free_shards.put_nowait(shard)

    def _fail_on_supervision_error(self, record: JobRecord, error: Exception) -> None:
        """Terminal-ize a record whose supervision blew up unexpectedly."""
        if record.terminal:
            return
        record.error = {
            "type": type(error).__name__,
            "message": str(error),
            "traceback": traceback.format_exc(),
        }
        record.transition(JobState.FAILED)
        self._publish(record, {
            "kind": "job", "event": "failed",
            "job_id": record.job_id, "error": record.error,
        })
        self._finish(record)

    async def _respawn_shard(self, shard: int) -> bool:
        """Replace a dead shard's process; True if a fresh worker is up."""
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, self.pool.respawn, shard)
        except Exception:  # noqa: BLE001 - a lost slot must not kill the task
            return False  # still dead: keep the slot out of the free pool
        return True

    def _apply_terminal(self, record: JobRecord, event: Dict[str, object]) -> None:
        kind = event["event"]
        if kind == "done":
            payload = event["result"]
            record.result = payload
            record.transition(JobState.DONE)
            self.result_cache.put(record.spec.cache_key(), payload)
            self._publish(record, {
                "kind": "job", "event": "done",
                "job_id": record.job_id, "cached": False, "result": payload,
            })
            self._finish(record)
        elif kind == "failed":
            record.error = event.get("error")
            record.transition(JobState.FAILED)
            self._publish(record, {
                "kind": "job", "event": "failed",
                "job_id": record.job_id, "error": record.error,
            })
            self._finish(record)
        elif kind == "cancelled":
            record.cancel_reason = (
                record.cancel_reason or event.get("reason") or "cancelled"
            )
            record.transition(JobState.CANCELLED)
            self._publish(record, {
                "kind": "job", "event": "cancelled",
                "job_id": record.job_id, "reason": record.cancel_reason,
            })
            self._finish(record)
        else:  # pragma: no cover - worker emits only the three above
            raise ServiceError(f"unexpected terminal event {event!r}")

    def _deadline_fire(self, record: JobRecord, shard: int) -> None:
        if record.state is JobState.RUNNING:
            record.cancel_reason = "deadline"
            self.pool.cancel(shard)

    # -- cancellation ---------------------------------------------------

    def cancel(self, job_id: str, reason: str = "client") -> Dict[str, object]:
        record = self._get(job_id)
        if record.state is JobState.QUEUED:
            removed = self.queue.remove(lambda item: item is record)
            if removed:
                record.cancel_reason = reason
                record.transition(JobState.CANCELLED)
                self._publish(record, {
                    "kind": "job", "event": "cancelled",
                    "job_id": job_id, "reason": reason,
                })
                self._finish(record)
        elif record.state is JobState.RUNNING:
            record.cancel_reason = reason
            self.pool.cancel(record.shard)
        return record.status()

    # -- introspection --------------------------------------------------

    def _get(self, job_id: str) -> JobRecord:
        record = self.jobs.get(job_id)
        if record is None:  # never submitted, or finished and forgotten
            raise ServiceError(f"unknown job {job_id!r}")
        return record

    def status(self, job_id: str) -> Dict[str, object]:
        return self._get(job_id).status()

    async def wait(self, job_id: str) -> JobRecord:
        """Block until the job reaches a terminal state."""
        record = self._get(job_id)
        completion = self._completion.get(job_id)  # gone once terminal
        if completion is not None:
            await completion.wait()
        return record

    def subscribe(self, job_id: str) -> Tuple[List[dict], Optional[asyncio.Queue]]:
        """Replay of past events plus a live queue (None if already over)."""
        record = self._get(job_id)
        replay = list(record.events)
        if record.terminal:
            return replay, None
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.setdefault(job_id, []).append(queue)
        return replay, queue

    def stats(self) -> Dict[str, object]:
        by_state = self._forgotten + Counter(
            record.state.value for record in self.jobs.values()
        )
        return {
            "kind": "stats",
            "uptime_s": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
            "jobs": dict(by_state),
            "submitted": self.submitted,
            "cache_hits_served": self.cache_hits_served,
            "batching": {
                "batch_max": self.batch_max,
                "batches_formed": self.batches_formed,
                "batched_jobs": self.batched_jobs,
            },
            "queue": self.queue.stats(),
            "result_cache": self.result_cache.stats(),
            "shards": {
                "count": self.pool.shards if self.pool else 0,
                "alive": self.pool.alive() if self.pool else [],
                "dispatched": list(self.pool.jobs_dispatched) if self.pool else [],
                "respawns": self.pool.respawns if self.pool else 0,
            },
        }

    # -- event fan-out --------------------------------------------------

    def _publish(self, record: JobRecord, event: Dict[str, object]) -> None:
        record.events.append(event)
        for queue in self._subscribers.get(record.job_id, ()):
            queue.put_nowait(event)

    def _finish(self, record: JobRecord) -> None:
        """Mark the job terminal for waiters, end its streams, and forget
        the oldest terminal record beyond :data:`RETAINED_JOBS` (waiters
        and streams hold the record itself, not its id)."""
        self._completion.pop(record.job_id).set()
        for queue in self._subscribers.pop(record.job_id, ()):
            queue.put_nowait(_STREAM_END)
        self._retained.append(record.job_id)
        while len(self._retained) > RETAINED_JOBS:
            forgotten = self.jobs.pop(self._retained.popleft())
            self._forgotten[forgotten.state.value] += 1


class ServiceServer:
    """Newline-delimited-JSON TCP front end over a SimulationService."""

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: Set by the ``shutdown`` op; the serve loop watches it.
        self.shutdown_requested = asyncio.Event()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=2**20
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                except ValueError:
                    await self._send(writer, {"ok": False, "error": "bad JSON"})
                    continue
                if not isinstance(request, dict):
                    await self._send(writer, {
                        "ok": False,
                        "error": "request must be a JSON object",
                    })
                    continue
                try:
                    await self._dispatch(request, writer)
                except (ConnectionResetError, BrokenPipeError):
                    break
                except ReproError as error:
                    await self._send(writer, {
                        "ok": False,
                        "error": str(error),
                        "error_type": type(error).__name__,
                    })
                except Exception as error:  # noqa: BLE001 - keep serving
                    # A malformed-but-parseable request (wrong-typed
                    # fields and the like) is the client's error, not a
                    # reason to drop the connection.
                    await self._send(writer, {
                        "ok": False,
                        "error": f"{type(error).__name__}: {error}",
                        "error_type": type(error).__name__,
                    })
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: Dict[str, object], writer) -> None:
        op = request.get("op")
        service = self.service
        if op == "ping":
            await self._send(writer, {"ok": True, "pong": True})
        elif op == "submit":
            spec_payload = request.get("spec")
            if not isinstance(spec_payload, dict):
                raise ServiceError("submit needs a 'spec' object")
            spec = JobSpec.from_dict(spec_payload)
            if request.get("block"):
                record = await service.submit_wait(spec)
            else:
                try:
                    record = service.submit(spec)
                except QueueFull as error:
                    await self._send(writer, {
                        "ok": False, "error": str(error),
                        "error_type": "QueueFull",
                    })
                    return
            if request.get("wait"):
                record = await service.wait(record.job_id)
                await self._send(writer, {
                    "ok": True, "status": record.status(),
                    "job_id": record.job_id, "result": record.result,
                })
            else:
                await self._send(writer, {
                    "ok": True, "job_id": record.job_id,
                    "state": record.state.value, "cached": record.cached,
                })
        elif op == "status":
            await self._send(writer, {
                "ok": True, "status": service.status(self._job_id(request)),
            })
        elif op == "cancel":
            status = service.cancel(
                self._job_id(request), str(request.get("reason", "client"))
            )
            await self._send(writer, {"ok": True, "status": status})
        elif op == "stream":
            await self._stream(writer, self._job_id(request))
        elif op == "stats":
            await self._send(writer, {"ok": True, "stats": service.stats()})
        elif op == "shutdown":
            await self._send(writer, {"ok": True, "shutting_down": True})
            self.shutdown_requested.set()
        else:
            raise ServiceError(f"unknown op {op!r}")

    async def _stream(self, writer, job_id: str) -> None:
        """Replay the job's events, then follow until terminal.

        Each event goes out as ``{"ok": true, "event": ...}``; the
        stream ends with ``{"ok": true, "end": true, "state": ...}``
        after which the connection is back in request/response mode.
        """
        service = self.service
        record = service._get(job_id)
        replay, live = service.subscribe(job_id)
        for event in replay:
            await self._send(writer, {"ok": True, "event": event})
        if live is not None:
            while True:
                event = await live.get()
                if event is _STREAM_END:
                    break
                await self._send(writer, {"ok": True, "event": event})
        await self._send(writer, {
            "ok": True, "end": True, "state": record.state.value,
        })

    @staticmethod
    def _job_id(request: Dict[str, object]) -> str:
        job_id = request.get("job_id")
        if not isinstance(job_id, str):
            raise ServiceError("request needs a 'job_id' string")
        return job_id

    @staticmethod
    async def _send(writer, payload: Dict[str, object]) -> None:
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()


async def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Optional[threading.Event] = None,
    handle: Optional["ServiceHandle"] = None,
    **service_kwargs,
) -> None:
    """Run service + TCP server until shutdown is requested.

    ``handle``/``ready`` are the thread-embedding hooks used by
    :func:`start_in_thread`; the CLI calls this directly and stops on
    KeyboardInterrupt.
    """
    service = SimulationService(**service_kwargs)
    server = ServiceServer(service, host=host, port=port)
    await service.start()
    try:
        await server.start()
        if handle is not None:
            handle.port = server.port
            handle._loop = asyncio.get_running_loop()
            handle._server = server
        if ready is not None:
            ready.set()
        await server.shutdown_requested.wait()
    finally:
        await server.close()
        await service.close()


class ServiceHandle:
    """A service running in a daemon thread (tests, benchmarks, demos)."""

    def __init__(self):
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[ServiceServer] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._server is not None:
            try:
                self._loop.call_soon_threadsafe(self._server.shutdown_requested.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                raise ServiceError("service thread did not stop in time")

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(
    host: str = "127.0.0.1", timeout: float = 180.0, **service_kwargs
) -> ServiceHandle:
    """Start a full service + TCP server in a daemon thread and return
    once it is accepting connections (``handle.port`` is set)."""
    handle = ServiceHandle()
    ready = threading.Event()

    def _main():
        try:
            asyncio.run(serve(host=host, ready=ready, handle=handle, **service_kwargs))
        except BaseException as error:  # pragma: no cover - surfaced via handle
            handle._error = error
            ready.set()

    handle._thread = threading.Thread(
        target=_main, name="repro-serve-server", daemon=True
    )
    handle._thread.start()
    if not ready.wait(timeout=timeout):
        raise ServiceError(f"service did not start within {timeout}s")
    if handle._error is not None:
        raise ServiceError(f"service failed to start: {handle._error!r}")
    return handle
