"""Simulation-as-a-service over the repro solver stack.

Stdlib-only (asyncio + sockets + multiprocessing): an async priority
job queue with backpressure, a pool of worker-process shards running
jobs on the existing solvers, a result cache keyed on canonical job
identity, and a TCP JSON-lines protocol (submit / status / stream /
cancel / stats) with a blocking client and a ``python -m repro.serve``
CLI.

Import surface::

    from repro.serve import (
        JobSpec, JobRecord, JobState,          # job model
        PriorityJobQueue, QueueFull,           # admission control
        ResultCache,                           # the result cache
        ShardPool,                             # worker processes
        SimulationService, ServiceServer,      # the service
        ServiceClient, start_in_thread,        # talking to it
    )
"""

from repro.serve.cache import ResultCache
from repro.serve.client import ServiceClient
from repro.serve.jobs import (
    PROBLEM_NAMES,
    JobRecord,
    JobSpec,
    JobState,
)
from repro.serve.queue import PriorityJobQueue, QueueClosed, QueueFull
from repro.serve.server import (
    ServiceHandle,
    ServiceServer,
    SimulationService,
    serve,
    start_in_thread,
)
from repro.serve.workers import ShardPool, state_digest

__all__ = [
    "PROBLEM_NAMES",
    "JobRecord",
    "JobSpec",
    "JobState",
    "PriorityJobQueue",
    "QueueClosed",
    "QueueFull",
    "ResultCache",
    "ServiceClient",
    "ServiceHandle",
    "ServiceServer",
    "ShardPool",
    "SimulationService",
    "serve",
    "start_in_thread",
    "state_digest",
]
