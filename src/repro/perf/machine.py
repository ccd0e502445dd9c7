"""Simulated shared-memory multicore — the stand-in for the paper's
"4xQuad-Core (16 core) AMD Opteron 8356 with 16GB of RAM".

A :class:`MachineModel` replays an :class:`ExecutionTrace` for a given
worker count under a :class:`LanguageRuntime` that captures how each
compiler's generated code behaves on the machine:

* ``op_time`` — seconds per abstract operation on one core (native
  Fortran code is fast; SaC's runtime-managed arrays cost more per
  operation — the paper: "SaC was much slower than Fortran when run on
  just one core");
* ``sync``   — per-region synchronisation cost: spin barriers for SaC,
  kernel-assisted fork/join for OpenMP (the mechanism the paper blames:
  "added overhead of communication between the threads" vs "spin locks
  ... with very little overhead");
* ``locality_factor`` — how quickly effective memory bandwidth decays
  as threads spread across the four sockets.  SaC's persistent,
  affinity-pinned worker team keeps this low; OpenMP's per-loop team
  churn on a 2009 NUMA Opteron does not.

Per parallel region the model charges

    max(work * op_time / threads, bytes * (1 + locality*(threads-1)) / BW)
        + sync.region_overhead(threads)

and serial regions run on one core.  The constants are calibrated to
reproduce the *shape* of the paper's Fig. 4 (who wins where, the
crossover, Fortran's degradation), not 2009 wall-clock seconds —
EXPERIMENTS.md discusses the calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Protocol

from repro.errors import ConfigurationError
from repro.sac.runtime.profiler import ExecutionTrace


class SyncModel(Protocol):
    def region_overhead(self, threads: int) -> float: ...

    def nested_overhead(self, threads: int, outer_iterations: int) -> float: ...


@dataclass(frozen=True)
class SpinSyncModel:
    """Analytic cost of SaC-style spin synchronisation.

    Per parallel region the runtime performs one release and one
    barrier; spinning costs grow only logarithmically with the worker
    count (tree barrier over shared cache lines).
    """

    start_cost: float = 0.4e-6     # seconds: waking workers via shared flag
    per_thread_cost: float = 0.05e-6

    def region_overhead(self, threads: int) -> float:
        if threads <= 1:
            return 0.0
        return self.start_cost + self.per_thread_cost * math.log2(threads) * 2.0

    def nested_overhead(self, threads: int, outer_iterations: int) -> float:
        """SaC runs one flat, persistent worker team: nesting is free."""
        return 0.0


@dataclass(frozen=True)
class ForkJoinSyncModel:
    """Analytic cost of OpenMP-style fork/join with kernel involvement.

    Sun Studio's auto-parallelised loops fork a team and join it through
    the kernel scheduler; the cost has a fixed syscall floor and grows
    *linearly* with the team size.  This is the overhead the paper blames
    for Fortran's degradation: "added overhead of communication between
    the threads".
    """

    fork_cost: float = 8.0e-6      # seconds: team activation via kernel
    per_thread_cost: float = 3.0e-6
    nested_penalty: float = 1.5    # OMP_NESTED=TRUE multiplies team churn
    inner_fork_cost: float = 5.0e-6     # nested team per outer iteration
    inner_per_thread_cost: float = 2.0e-6

    def region_overhead(self, threads: int) -> float:
        if threads <= 1:
            return 0.0
        return (self.fork_cost + self.per_thread_cost * threads) * self.nested_penalty

    def nested_overhead(self, threads: int, outer_iterations: int) -> float:
        """OMP_NESTED=TRUE: each outer iteration of a parallelised nest
        activates an inner team — the dominant overhead on small grids,
        where it immediately eats the gain from adding cores."""
        if threads <= 1 or self.nested_penalty <= 1.0:
            return 0.0
        return outer_iterations * (
            self.inner_fork_cost + self.inner_per_thread_cost * threads
        )


@dataclass(frozen=True)
class LanguageRuntime:
    """How one compiler's output behaves on the simulated machine."""

    name: str
    op_time: float
    sync: SyncModel
    locality_factor: float


def sac_runtime() -> LanguageRuntime:
    """SaC: slower scalar code, spin-lock sync, persistent pinned team."""
    return LanguageRuntime(
        name="SaC (pthread backend)",
        op_time=4.0e-9,
        sync=SpinSyncModel(),
        locality_factor=0.0,
    )


def fortran_runtime(sync: Optional[ForkJoinSyncModel] = None) -> LanguageRuntime:
    """Sun f90 -autopar: fast native loops, fork/join sync, team churn."""
    return LanguageRuntime(
        name="Fortran-90 (-autopar, OpenMP)",
        op_time=1.5e-9,
        sync=sync or ForkJoinSyncModel(),
        locality_factor=0.35,
    )


@dataclass(frozen=True)
class TimeBreakdown:
    """Where the simulated seconds went."""

    compute: float = 0.0
    memory: float = 0.0
    sync: float = 0.0
    serial: float = 0.0

    @property
    def total(self) -> float:
        return self.compute + self.memory + self.sync + self.serial

    def __add__(self, other: "TimeBreakdown") -> "TimeBreakdown":
        return TimeBreakdown(
            self.compute + other.compute,
            self.memory + other.memory,
            self.sync + other.sync,
            self.serial + other.serial,
        )


@dataclass(frozen=True)
class MachineModel:
    """The simulated multicore."""

    name: str = "4x Quad-Core AMD Opteron 8356 (simulated)"
    cores: int = 16
    memory_bandwidth: float = 40.0e9  # bytes/second aggregate over 4 sockets

    def run_trace(
        self,
        trace: ExecutionTrace,
        runtime: LanguageRuntime,
        threads: int,
    ) -> TimeBreakdown:
        """Simulated execution time of a trace on ``threads`` workers."""
        if not 1 <= threads <= self.cores:
            raise ConfigurationError(
                f"threads must be in 1..{self.cores}, got {threads}"
            )
        total = TimeBreakdown()
        for region in trace:
            if region.is_parallel and threads >= 1:
                compute = region.work * runtime.op_time / threads
                contention = 1.0 + runtime.locality_factor * (threads - 1)
                memory = region.bytes_touched * contention / self.memory_bandwidth
                sync = runtime.sync.region_overhead(threads)
                if region.outer_iterations:
                    # a parallelised loop *nest*: under OMP_NESTED=TRUE each
                    # outer iteration activates an inner team (free for SaC)
                    sync += runtime.sync.nested_overhead(
                        threads, region.outer_iterations
                    )
                if memory > compute:
                    # memory-bound: the bus is the bottleneck
                    total = total + TimeBreakdown(memory=memory, sync=sync)
                else:
                    total = total + TimeBreakdown(compute=compute, sync=sync)
            else:
                total = total + TimeBreakdown(
                    serial=region.work * runtime.op_time
                )
        return total

    def speedup_curve(self, trace, runtime, max_threads: Optional[int] = None):
        """(threads, seconds) samples across the machine's cores."""
        limit = max_threads or self.cores
        return [
            (threads, self.run_trace(trace, runtime, threads).total)
            for threads in range(1, limit + 1)
        ]
