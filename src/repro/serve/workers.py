"""Shard pool: worker processes that execute jobs on the solver stack.

Each *shard* is one long-lived worker process (``multiprocessing``
spawn context — immune to the parent's event loop and thread state)
with one pipe each way.  The parent sends *dispatches* — always a list
of one or more job wire dicts — down one; the worker runs each through
the existing :class:`~repro.euler.engine.StepEngine`-backed solvers (or
:class:`~repro.par.solver.ParallelSolver2D` when the job asks for
intra-job workers) and reports everything up the other: ``shard``
events (``ready``/``stopped``; ``died`` is the parent's), ``steps``
messages (``records``: ``[[job_id, record], ...]``, at most one per
:data:`STREAM_INTERVAL_S`) and one ``job`` terminal
(``done``/``failed``/``cancelled``) per job.

A message is one length-prefixed pickle (:data:`FRAME`), written whole
and synchronously; the parent's event loop reads it.  A FIFO byte stream
and a flush of unsent records ahead of every terminal make "a job's
steps precede its terminal" hold by construction.  The parent closes
its copies of the child's ends once the child runs, so a worker's death
— inside a message too — is end of file on its event pipe: ``died``.

Failure containment is the point of the process boundary: a job that
blows up with a :class:`~repro.errors.PhysicsError` returns its
forensic report as a ``failed`` event and the shard moves on to the
next job; nothing about the server or its siblings dies with it.

Workers ignore SIGINT: on Ctrl-C the *parent* coordinates teardown
(sentinel, join, terminate-if-stuck) instead of every process racing
its own KeyboardInterrupt.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import multiprocessing as mp
import os
import pickle
import select
import signal
import struct
import traceback
from contextlib import ExitStack, suppress
from multiprocessing.connection import Connection
from time import monotonic, perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, PhysicsError, ServiceError
from repro.serve.jobs import JobSpec

__all__ = ["ShardPool", "state_digest"]

#: How long ``start(wait_ready=True)`` waits for each spawned worker.
READY_TIMEOUT_S = 120.0

#: A worker sends at most one ``steps`` message per this many seconds
#: (plus the flush ahead of a terminal): the supervisor, the TCP stream
#: and the client wake per message, not per step.
STREAM_INTERVAL_S = 0.02

#: The length prefix of one message on a shard's pipes: the byte count of
#: the pickle that follows it.
FRAME = struct.Struct("<Q")


def state_digest(array: np.ndarray) -> str:
    """sha256 of an array's C-contiguous float64 bytes.

    The bitwise identity used to compare cached and recomputed results:
    two runs agree iff their digests do.
    """
    return hashlib.sha256(
        np.ascontiguousarray(array, dtype=np.float64).tobytes()
    ).hexdigest()


def _send(fd: int, message) -> None:
    """One message down the pipe ``fd``, whole (blocking)."""
    body = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    data = memoryview(FRAME.pack(len(body)) + body)
    while data:
        data = data[os.write(fd, data):]


def _read(fd: int, size: int) -> bytearray:
    """``size`` bytes from the pipe ``fd``; EOFError at end of file."""
    data = bytearray()
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _receive(fd: int):
    """One message from the pipe ``fd`` (blocking)."""
    (size,) = FRAME.unpack(_read(fd, FRAME.size))
    return pickle.loads(_read(fd, size))


class _JobCancelled(Exception):
    """Internal: the running job saw its cancel flag (or deadline)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Worker-process side
# ---------------------------------------------------------------------------


def _worker_main(shard, down: Connection, up: Connection, cancel_flag):
    """Entry point of one shard process (top level: spawn-picklable);
    ``down``/``up`` are its ends of the dispatch and event pipes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    put = functools.partial(_send, up.fileno())
    try:
        put({"kind": "shard", "event": "ready", "shard": shard, "pid": os.getpid()})
        while True:
            # The cancel flag is NOT cleared here: the parent clears it in
            # send() *before* writing, so a cancel that lands right after
            # the send is never lost to a worker-side clear racing it.
            jobs = _receive(down.fileno())
            if jobs is None:
                break
            _run_jobs(jobs, put, shard, cancel_flag)
        put({"kind": "shard", "event": "stopped", "shard": shard})
    except (EOFError, BrokenPipeError):
        pass  # the parent is gone


def _failed_event(error: BaseException) -> Dict[str, object]:
    """An exception as a ``failed`` event: a PhysicsError ships its
    forensic report, anything else its traceback."""
    if isinstance(error, PhysicsError):
        forensics = getattr(error, "forensics", None)
        info = {
            "type": "PhysicsError",
            "message": str(error),
            "context": error.context,
            "batch_index": error.batch_index,
            "forensics": forensics.to_json() if forensics else None,
        }
    else:
        info = {
            "type": type(error).__name__,
            "message": str(error),
            "traceback": "".join(
                traceback.format_exception(type(error), error, error.__traceback__)
            ),
        }
    return {"event": "failed", "error": info}


def _run_jobs(jobs, put, shard, cancel_flag) -> None:
    """Run one dispatch (a list of N >= 1 jobs), sending its events with
    ``put``; guarantees a terminal event for every job, behind every
    step record of that job.

    Step records leave in ``steps`` messages paced to one per
    :data:`STREAM_INTERVAL_S`, counted from the oldest record not yet
    sent; ``emit`` flushes what is left before it puts a terminal, so
    on the one FIFO pipe no record can trail its job's terminal.

    Anything escaping :func:`_execute` — the shared cancel flag, the
    PhysicsError of a job running alone, a bug — terminal-izes every job
    that has not already reported, so the supervisor never hangs on a
    silent shard.
    """
    done = set()
    unsent = []  # [job_id, record] pairs, oldest first
    oldest = 0.0  # when the first of ``unsent`` was collected

    def flush() -> None:
        nonlocal unsent
        if unsent:
            put({"kind": "steps", "shard": shard, "records": unsent})
            unsent = []

    def stream(records) -> None:
        """Take one driver step's records; send once the oldest is due."""
        nonlocal oldest
        now = monotonic()
        if not unsent:
            oldest = now
        unsent.extend(records)
        if now - oldest >= STREAM_INTERVAL_S:
            flush()

    def emit(job_id: str, event: Dict[str, object]) -> None:
        flush()
        done.add(job_id)
        put({"kind": "job", "job_id": job_id, "shard": shard, **event})

    try:
        with ExitStack() as cleanup:  # intra-job worker teams
            _execute(jobs, emit, stream, cancel_flag, cleanup)
        return
    except _JobCancelled as stop:
        # The cancel flag is dispatch-granular: every still-running job
        # of the dispatch stops together.
        terminal = {"event": "cancelled", "reason": stop.reason}
    except BaseException as error:  # noqa: BLE001 - shard must survive any job
        terminal = _failed_event(error)
    for job in jobs:
        if job["job_id"] not in done:
            emit(job["job_id"], terminal)


def _execute(jobs, emit, stream, cancel_flag, cleanup) -> None:
    """Advance a dispatch of N >= 1 jobs through one driver.

    Each stepping job's solver comes from the unmodified builder.  A
    job alone is run by that solver itself — every solver is a member
    driver of one, so no second engine is built, and 1-D and
    ``workers > 1`` jobs need no other code.  N > 1 jobs (which the
    batch key only forms of shape-compatible 2-D jobs sharing one
    stopping criterion and no deadline) are stacked via
    :meth:`EulerEnsemble2D.from_solvers` — conservative states stacked
    directly, so each member starts from exactly its solo bits.

    Per-job outcomes are independent: a job whose builder rejects its
    arguments fails alone before the driver forms; a member that blows
    up mid-run is retired by the ensemble and reports its forensics
    while its mates step on (alone, its error propagates to
    :func:`_run_jobs`); survivors return payloads equal to their solo
    runs on every key but ``wall_seconds`` and ``batched``, the member
    count.  ``exact`` is its own branch: it does no stepping.

    One difference is kept, selected by the member count: a job alone
    streams full :class:`~repro.obs.trace.TraceRecord`s, a member of
    N > 1 the reduced ``{step, time, dt, batched}`` record — recording
    and serialising the full one costs ~30 us per 24x24 member against
    ~3 us, a tenth more on a 16-member step.
    """
    from repro.euler.solver import EulerEnsemble2D
    from repro.obs.trace import StepTrace

    started = perf_counter()
    members = []  # (job id, spec, solver) of the jobs to step
    for job in jobs:
        job_id = job["job_id"]
        try:
            spec = JobSpec.from_dict(job["spec"])
            if spec.problem == "exact":
                payload = _execute_exact(spec)
                payload["wall_seconds"] = perf_counter() - started
                emit(job_id, {"event": "done", "result": payload})
                continue
            solver, closer = _build_solver(spec)
            if closer is not None:
                cleanup.callback(closer)
                if len(jobs) > 1:
                    raise ConfigurationError("parallel-solver jobs are not batchable")
        except Exception as error:  # noqa: BLE001 - fail this job only
            emit(job_id, _failed_event(error))
            continue
        members.append((job_id, spec, solver))
    if not members:
        return
    job_ids, specs, solvers = zip(*members)
    if len(members) == 1:
        driver = solvers[0]
        trace = StepTrace()
    else:
        driver = EulerEnsemble2D.from_solvers(
            solvers, names=job_ids, params=[{"job_id": job_id} for job_id in job_ids]
        )
        trace = None
    lead = specs[0]  # the batch key pins the stopping criterion of a dispatch
    deadline_at = (
        monotonic() + lead.deadline_s if lead.deadline_s is not None else None
    )

    def progress(driver):
        if cancel_flag.is_set():
            raise _JobCancelled("cancelled")
        if deadline_at is not None and monotonic() > deadline_at:
            raise _JobCancelled("deadline")
        records = []
        for index, spec in enumerate(specs):
            step = driver.step_counts[index]
            if not driver.live(index) or step % spec.trace_every != 0:
                continue
            if trace is not None:
                record = trace.last(1)[0].to_json()
            else:
                record = {
                    "kind": "step",
                    "step": step,
                    "time": driver.times[index],
                    "dt": driver.dt_history[index][-1],
                    "batched": driver.batch,
                }
            records.append([job_ids[index], record])
        stream(records)

    driver.run(
        t_end=lead.t_end, max_steps=lead.max_steps,
        callback=progress, watch=trace,
    )
    wall = perf_counter() - started
    for index, (job_id, spec) in enumerate(zip(job_ids, specs)):
        error = driver.errors.get(index)
        if error is not None:
            emit(job_id, _failed_event(error))
            continue
        u = driver.member_u(index)
        emit(job_id, {
            "event": "done",
            "result": {
                "problem": spec.problem,
                "steps": int(driver.step_counts[index]),
                "time": float(driver.times[index]),
                "shape": list(u.shape),
                "state_sha256": state_digest(u),
                "mass": float(u[..., 0].sum()),
                "energy": float(u[..., -1].sum()),
                "state": (
                    driver.member_primitive(index).tolist()
                    if spec.return_state
                    else None
                ),
                "batched": len(members),
                "wall_seconds": wall,
            },
        })


def _execute_exact(spec) -> Dict[str, object]:
    """An exact-Riemann profile request — a Newton solve + sampling."""
    from repro.euler.exact_riemann import solve
    from repro.euler.problems import RIEMANN_PROBLEMS

    args = dict(spec.problem_args)
    base = args.pop("base", "sod")
    if base not in RIEMANN_PROBLEMS:
        raise ConfigurationError(
            f"exact base problem {base!r} not in {sorted(RIEMANN_PROBLEMS)}"
        )
    t = float(args.pop("t"))
    n_points = int(args.pop("n_points", 201))
    _reject_unknown_args(spec.problem, args)
    problem = RIEMANN_PROBLEMS[base]
    x = np.linspace(0.0, 1.0, n_points)
    profile = solve(
        problem.left, problem.right, x, t=t,
        x_diaphragm=problem.x_diaphragm, gamma=spec.config.gamma,
    )
    return {
        "problem": "exact",
        "base": base,
        "t": t,
        "n_points": n_points,
        "shape": list(profile.shape),
        "state_sha256": state_digest(profile),
        "state": profile.tolist() if spec.return_state else None,
        "steps": 0,
        "time": t,
    }


def _build_solver(spec: JobSpec):
    """Problem registry: spec -> (solver, closer-or-None).

    Unknown ``problem_args`` are rejected loudly — a typo'd argument
    silently falling back to a default would be cached under a key that
    claims otherwise.
    """
    from repro.euler import problems

    args = dict(spec.problem_args)
    workers = int(args.pop("workers", 1))
    if spec.problem in ("sod", "lax", "toro123"):
        if workers != 1:
            raise ConfigurationError("1-D problems run on a single worker")
        solver, _ = problems.riemann_problem_solver(
            problems.RIEMANN_PROBLEMS[spec.problem],
            n_cells=int(args.pop("n_cells", 400)),
            config=spec.config,
        )
        _reject_unknown_args(spec.problem, args)
        return solver, None
    if spec.problem == "sod_2d":
        solver, _ = problems.sod_2d(
            nx=int(args.pop("nx", 64)),
            ny=int(args.pop("ny", 16)),
            config=spec.config,
        )
    elif spec.problem == "two_channel":
        n_cells = int(args.pop("n_cells", 64))
        solver, _ = problems.two_channel(
            n_cells=n_cells,
            h=float(args.pop("h", n_cells / 2.0)),
            mach=float(args.pop("mach", 2.2)),
            config=spec.config,
        )
    else:  # pragma: no cover - JobSpec validation keeps us exhaustive
        raise ConfigurationError(f"unhandled problem {spec.problem!r}")
    _reject_unknown_args(spec.problem, args)
    if workers > 1:
        from repro.par.solver import ParallelSolver2D

        parallel = ParallelSolver2D.from_serial(solver, workers=workers)
        return parallel, parallel.close
    return solver, None


def _reject_unknown_args(problem: str, leftover: Dict[str, object]) -> None:
    if leftover:
        raise ConfigurationError(
            f"problem {problem!r} got unknown problem_args {sorted(leftover)}"
        )


# ---------------------------------------------------------------------------
# Parent (server) side
# ---------------------------------------------------------------------------


class ShardPool:
    """The parent-side handle on the worker processes.

    Lifecycle: ``start()`` (spawn + wait ready, blocking — call before
    or via an executor from the event loop), ``bind(loop)`` (from then on
    the loop reads each shard's event pipe into an :class:`asyncio.Queue`;
    unbound, :meth:`next_event` reads it), then ``send``/``cancel``/
    ``events``; ``shutdown()`` is idempotent and leaves no child process
    and no pipe behind — sentinel first, ``terminate()`` for stragglers,
    ``kill()`` as the last resort.
    """

    def __init__(self, shards: int = 2, start_method: Optional[str] = None):
        if shards < 1:
            raise ConfigurationError(f"need at least one shard, got {shards}")
        self.shards = shards
        self._ctx = mp.get_context(
            start_method or os.environ.get("REPRO_SVC_START_METHOD", "spawn")
        )
        self._processes: List[mp.process.BaseProcess] = []
        #: Per shard: the parent's end of the dispatch pipe and of the event
        #: pipe (None once a loop reader took it), and the cancel flag.
        self._down: List[Optional[int]] = []
        self._up: List[Optional[int]] = []
        self._cancel_flags = []
        self._aqueues: List[asyncio.Queue] = []
        self._readers: Dict[int, asyncio.Task] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = False
        self.jobs_dispatched = [0] * shards
        self.respawns = 0

    # -- lifecycle ------------------------------------------------------

    def _spawn(self, shard: int):
        """A started worker for ``shard``, our ends of its pipes, its flag."""
        down_read, down_write = os.pipe()
        up_read, up_write = os.pipe()
        ends = (Connection(down_read, writable=False), Connection(up_write, readable=False))
        cancel_flag = self._ctx.Event()
        process = self._ctx.Process(
            target=_worker_main,
            args=(shard, *ends, cancel_flag),
            name=f"repro-serve-shard-{shard}",
            daemon=True,
        )
        try:
            process.start()
        finally:
            for end in ends:  # the child's now; its death is our end of file
                end.close()
        return process, down_write, up_read, cancel_flag

    def _death_notice(self, shard: int) -> Dict[str, object]:
        """The ``died`` event of a shard whose event pipe ended."""
        process = self._processes[shard]
        process.join(timeout=5.0)  # it is exiting: the exit code is near
        return {"kind": "shard", "event": "died", "shard": shard, "exitcode": process.exitcode}

    def _receive(self, shard: int, timeout: float) -> Dict[str, object]:
        """An unbound shard's next event (a message comes whole: only its
        start is waited for)."""
        fd = self._up[shard]
        if not select.select([fd], [], [], timeout)[0]:
            raise ServiceError(f"no event from shard {shard} within {timeout}s")
        try:
            return _receive(fd)
        except EOFError:
            return self._death_notice(shard)

    def _await_ready(self, shard: int, timeout: float) -> None:
        event = self._receive(shard, timeout)
        if event.get("event") != "ready":
            raise ServiceError(f"shard {shard} sent {event!r} before ready")

    def start(self, wait_ready: bool = True, timeout: float = READY_TIMEOUT_S) -> None:
        """Spawn the shard processes (blocking; spawn re-imports numpy)."""
        if self._processes:
            raise ServiceError("shard pool already started")
        spawned = zip(*(self._spawn(shard) for shard in range(self.shards)))
        self._processes, self._down, self._up, self._cancel_flags = map(list, spawned)
        if wait_ready:
            for shard in range(self.shards):
                self._await_ready(shard, timeout)

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Read every shard's events into :meth:`events` on ``loop``, from it."""
        if self._loop is not None:
            raise ServiceError("shard pool already bound to a loop")
        self._loop = loop
        self._aqueues = [asyncio.Queue() for _ in range(self.shards)]
        for shard in range(self.shards):
            self._start_reader(shard)

    def _start_reader(self, shard: int) -> None:
        self._readers[shard] = self._loop.create_task(
            self._read_events(shard), name=f"repro-serve-events-{shard}"
        )

    async def _read_events(self, shard: int) -> None:
        """Each message of one shard's event pipe into its queue until end
        of file — the worker's death, unless the pool is shutting down."""
        if self._up[shard] is None:
            return  # shut down before the loop came to it
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        pipe, self._up[shard] = open(self._up[shard], "rb", buffering=0), None
        transport, _ = await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), pipe
        )
        queue = self._aqueues[shard]
        try:
            while True:
                (size,) = FRAME.unpack(await reader.readexactly(FRAME.size))
                queue.put_nowait(pickle.loads(await reader.readexactly(size)))
        except asyncio.IncompleteReadError:
            pass  # end of file, inside a message or not
        finally:
            transport.close()
        if not self._stopping:
            queue.put_nowait(await loop.run_in_executor(None, self._death_notice, shard))

    # -- job traffic ----------------------------------------------------

    def events(self, shard: int) -> asyncio.Queue:
        """The shard's event queue on the bound loop."""
        return self._aqueues[shard]

    def next_event(self, shard: int, timeout: float = 60.0) -> Dict[str, object]:
        """Blocking event read for *unbound* pools (tests, sync drivers)."""
        if self._loop is not None:
            raise ServiceError("a bound pool's events are read by its loop")
        return self._receive(shard, timeout)

    def send(self, shard: int, jobs) -> None:
        """Dispatch ``jobs`` — a list of one or more ``(job_id, spec)``
        — as one wire message, always a list.

        The worker advances them through one driver (a job alone by its
        own solver, several in lockstep through one
        :class:`~repro.euler.engine.StepEngine`) and emits an
        independent terminal event per job.  The cancel flag is
        dispatch-granular: :meth:`cancel` stops every job of the dispatch.
        """
        self._cancel_flags[shard].clear()
        with suppress(BrokenPipeError):  # a dead worker: its event pipe says so
            _send(self._down[shard], [
                {"job_id": job_id, "spec": spec.to_dict()} for job_id, spec in jobs
            ])
        self.jobs_dispatched[shard] += len(jobs)

    def cancel(self, shard: int) -> None:
        """Ask the shard's *current* dispatch to stop at its next step
        (every job of it stops)."""
        self._cancel_flags[shard].set()

    def alive(self) -> List[bool]:
        return [process.is_alive() for process in self._processes]

    def respawn(self, shard: int, timeout: float = READY_TIMEOUT_S) -> None:
        """Replace a dead shard's process, pipes and cancel flag (blocking);
        a bound pool's loop reads the new pipe into the same queue."""
        old = self._processes[shard]
        if old.is_alive():
            raise ServiceError(f"shard {shard} is still alive; not respawning")
        old.join(timeout=1.0)
        self._close_pipes(shard)
        (
            self._processes[shard], self._down[shard], self._up[shard],
            self._cancel_flags[shard],
        ) = self._spawn(shard)
        self.respawns += 1
        self._await_ready(shard, timeout)
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._start_reader, shard)

    # -- teardown -------------------------------------------------------

    def _close_pipes(self, shard: int) -> None:
        """Close our ends of a shard's pipes (not one a loop reader took)."""
        for fd in (self._down[shard], self._up[shard]):
            if fd is not None:
                os.close(fd)
        self._down[shard] = self._up[shard] = None

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every shard without leaking processes or pipes (idempotent)."""
        if self._stopping:
            return
        self._stopping = True
        for shard, fd in enumerate(self._down):
            with suppress(OSError):  # a dead worker reads nothing
                _send(fd, None)
            # With no reader left, a worker blocked on a full pipe exits.
            self._close_pipes(shard)
        for process in self._processes:
            process.join(timeout=timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=2.0)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
