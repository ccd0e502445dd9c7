"""Multithreaded with-loop scheduler.

Splits a with-loop's index space along its outermost axis into one
chunk per worker (static scheduling, like the SaC pthread backend) and
executes the chunks as one round of the process's persistent worker
team (:func:`repro.par.pool.shared_team`) — the team the Euler strips
run on, so no thread is created per with-loop.  NumPy kernels release
the GIL, so large chunks do overlap; small loops are executed inline
because parallelising them costs more than they are worth — the
scheduler applies a minimum elements-per-thread threshold, again
mirroring the real runtime.  The team is flat: a with-loop met while a
round is in flight (a nested one, inside a chunk) runs inline.

Fold with-loops are only parallelised when ``parallel_folds`` is
enabled; the paper's benchmark passes ``-nofoldparallel``, so the
default here is serial folds (which also keeps floating-point results
bit-identical to the reference interpreter).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import SacRuntimeError

#: Below this many elements per worker a loop runs inline.
MIN_ELEMENTS_PER_THREAD = 1024

Bounds = Tuple[Tuple[int, ...], Tuple[int, ...]]


@dataclass
class SchedulerOptions:
    threads: int = 1
    parallel_folds: bool = False  # the paper passes -nofoldparallel
    min_elements_per_thread: int = MIN_ELEMENTS_PER_THREAD


#: One contiguous half-open interval [lo, hi) of a partitioned extent.
Interval = Tuple[int, int]


def split_extent(lower: int, upper: int, parts: int, min_size: int = 1) -> List[Interval]:
    """Static partition of the interval ``[lower, upper)`` into chunks.

    The chunking of the with-loop scheduler (axis-0 chunks, one per
    worker).  At most ``parts`` contiguous chunks are produced, sizes
    differing by at most one (the remainder goes to the leading chunks,
    like the SaC static scheduler); no chunk is smaller than
    ``min_size``.  A zero or negative extent yields no chunks.
    """
    extent = upper - lower
    if extent <= 0:
        return []
    min_size = max(1, min_size)
    parts = max(1, min(parts, extent // min_size if extent >= min_size else 1))
    base = extent // parts
    remainder = extent % parts
    chunks: List[Interval] = []
    start = lower
    for part in range(parts):
        size = base + (1 if part < remainder else 0)
        chunks.append((start, start + size))
        start += size
    return chunks


def split_bounds(lower: Sequence[int], upper: Sequence[int], parts: int) -> List[Bounds]:
    """Static partition of a box along axis 0 into up to ``parts`` chunks."""
    if not lower:
        return [(tuple(lower), tuple(upper))]
    return [
        ((lo,) + tuple(lower[1:]), (hi,) + tuple(upper[1:]))
        for lo, hi in split_extent(lower[0], upper[0], parts)
    ]


def box_elements(lower: Sequence[int], upper: Sequence[int]) -> int:
    total = 1
    for low, high in zip(lower, upper):
        total *= max(0, high - low)
    return total


class WithLoopScheduler:
    """Runs chunk evaluators across a worker team."""

    def __init__(self, options: Optional[SchedulerOptions] = None):
        self.options = options or SchedulerOptions()
        self._round = threading.Lock()  # held while a team round runs

    def run(
        self,
        lower: Tuple[int, ...],
        upper: Tuple[int, ...],
        evaluate_chunk: Callable[[Tuple[int, ...], Tuple[int, ...]], None],
        is_fold: bool = False,
    ) -> int:
        """Execute ``evaluate_chunk`` over a partition of [lower, upper).

        Returns the number of workers actually used.  ``evaluate_chunk``
        must write its results into pre-allocated shared storage (the
        chunks are disjoint, so no locking is needed — single
        assignment at work).
        """
        threads = self.options.threads
        elements = box_elements(lower, upper)
        if (
            threads <= 1
            or (is_fold and not self.options.parallel_folds)
            or elements < self.options.min_elements_per_thread * 2
        ):
            evaluate_chunk(lower, upper)
            return 1

        max_workers = max(
            1, min(threads, elements // self.options.min_elements_per_thread)
        )
        chunks = split_bounds(lower, upper, max_workers)
        # One flat team: a with-loop nested in a running round is inline.
        if len(chunks) <= 1 or not self._round.acquire(blocking=False):
            evaluate_chunk(lower, upper)
            return 1
        # Imported here: importing repro.par pulls in the Euler solver stack.
        from repro.par.pool import shared_team

        try:
            shared_team(len(chunks)).run(
                lambda worker: evaluate_chunk(*chunks[worker])
            )
        except SacRuntimeError:
            raise
        except Exception as error:
            raise SacRuntimeError(f"worker failed: {error}") from error
        finally:
            self._round.release()
        return len(chunks)
