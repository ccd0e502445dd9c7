"""Execution profiling: the bridge between executors and the machine model.

Both language pipelines emit an :class:`ExecutionTrace` — a sequence of
*regions*, each either parallelisable (a with-loop / array operation /
parallel DO loop) or serial.  The simulated multicore of
``repro.perf.machine`` replays a trace for any core count and
synchronisation model, which is how the paper's Fig. 4 is regenerated
without a 16-core Opteron: the *structure* of the computation is
measured, the hardware is modelled.

Region accounting:

* ``elements``         — size of the data-parallel index space
* ``ops_per_element``  — scalar operations per element (an operation
  count of the loop body, the proxy for per-element work)
* ``bytes_touched``    — memory traffic (reads of operands + the write
  of the result), used by the bandwidth ceiling in the machine model
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

#: Region kinds; everything except "serial" may be run in parallel.
PARALLEL_KINDS = ("with_loop", "elementwise", "reduction", "parallel_do")


@dataclass(frozen=True)
class Region:
    """One unit of work in an execution trace."""

    kind: str  # with_loop | elementwise | reduction | parallel_do | serial
    elements: int
    ops_per_element: float = 1.0
    bytes_touched: int = 0
    label: str = ""
    #: outer-loop trip count of a parallelised loop *nest* (0 when the
    #: region is flat); scales with the linear grid size, not the cell
    #: count, and drives the nested-team churn of the OpenMP model
    outer_iterations: int = 0

    @property
    def is_parallel(self) -> bool:
        return self.kind in PARALLEL_KINDS

    @property
    def work(self) -> float:
        """Total scalar operations represented by this region."""
        return self.elements * self.ops_per_element


@dataclass
class ExecutionTrace:
    """An append-only sequence of regions with summary helpers."""

    regions: List[Region] = field(default_factory=list)
    enabled: bool = True

    def record(
        self,
        kind: str,
        elements: int,
        ops_per_element: float = 1.0,
        bytes_touched: int = 0,
        label: str = "",
        outer_iterations: int = 0,
    ) -> None:
        if self.enabled and elements > 0:
            self.regions.append(
                Region(
                    kind,
                    int(elements),
                    float(ops_per_element),
                    int(bytes_touched),
                    label,
                    int(outer_iterations),
                )
            )

    def clear(self) -> None:
        self.regions.clear()

    def __iter__(self) -> Iterator[Region]:
        return iter(self.regions)

    def __len__(self) -> int:
        return len(self.regions)

    # -- summaries ----------------------------------------------------------

    @property
    def parallel_region_count(self) -> int:
        return sum(1 for region in self.regions if region.is_parallel)

    @property
    def serial_region_count(self) -> int:
        return sum(1 for region in self.regions if not region.is_parallel)

    @property
    def total_work(self) -> float:
        return sum(region.work for region in self.regions)

    @property
    def total_bytes(self) -> int:
        return sum(region.bytes_touched for region in self.regions)

    def scaled(
        self,
        element_factor: float,
        repetitions: int = 1,
        outer_factor: Optional[float] = None,
    ) -> "ExecutionTrace":
        """A trace with every region's size scaled — used to extrapolate a
        few measured steps on a small grid to the paper's full runs.

        ``element_factor`` scales cell counts (quadratic in the linear
        grid ratio for 2-D); ``outer_factor`` scales the outer trip
        counts of loop nests (linear), defaulting to the square root of
        ``element_factor``.
        """
        if outer_factor is None:
            outer_factor = element_factor ** 0.5
        scaled_regions = [
            Region(
                region.kind,
                max(1, int(round(region.elements * element_factor)))
                if region.is_parallel
                else region.elements,
                region.ops_per_element,
                int(region.bytes_touched * element_factor)
                if region.is_parallel
                else region.bytes_touched,
                region.label,
                int(round(region.outer_iterations * outer_factor)),
            )
            for region in self.regions
        ]
        trace = ExecutionTrace(regions=scaled_regions * repetitions)
        return trace

    def summary(self) -> str:
        return (
            f"{len(self.regions)} regions"
            f" ({self.parallel_region_count} parallel,"
            f" {self.serial_region_count} serial),"
            f" work {self.total_work:.3g} ops,"
            f" traffic {self.total_bytes / 1e6:.3g} MB"
        )
