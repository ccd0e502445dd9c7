"""Runtime support: profiling traces."""

from repro.sac.runtime.profiler import ExecutionTrace, Region

__all__ = [
    "ExecutionTrace",
    "Region",
]
