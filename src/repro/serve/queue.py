"""Bounded async priority queue with backpressure.

The admission-control point of the service: depth is bounded, so a
traffic burst turns into either *waiting* (``put``, which parks the
submitting coroutine until a slot frees — backpressure) or an explicit
*rejection* (``put_nowait``, which raises :class:`QueueFull` — what the
TCP submit path translates into a ``queue full`` error response rather
than letting memory grow without bound).

Ordering is (priority, submission sequence): lower priority numbers run
sooner, ties run FIFO.  Cancellation of a queued item is lazy — the
entry is tombstoned in place and skipped at pop time, so cancel is O(1)
and the heap invariant is untouched.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from typing import Callable, List, Optional

from repro.errors import ConfigurationError, ServiceError

__all__ = ["PriorityJobQueue", "QueueFull", "QueueClosed"]


class QueueFull(ServiceError):
    """Bounded depth reached and the caller declined to wait."""


class QueueClosed(ServiceError):
    """The queue was closed while (or before) waiting on it."""


class PriorityJobQueue:
    """An asyncio priority queue with a hard depth bound.

    Not thread-safe — it lives on the server's event loop.  Counters
    (``enqueued``/``dequeued``/``rejected``/``cancelled`` and the depth
    ``high_watermark``) feed the service's stats endpoint.
    """

    _TOMBSTONE = object()

    def __init__(self, maxsize: int = 64):
        if maxsize < 1:
            raise ConfigurationError(f"queue maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._heap: List[List[object]] = []  # [priority, seq, item-or-tombstone]
        self._size = 0  # live (non-tombstoned) entries
        self._seq = itertools.count()
        self._not_full_waiters: List[asyncio.Future] = []
        self._not_empty_waiters: List[asyncio.Future] = []
        self._closed = False
        self.enqueued = 0
        self.dequeued = 0
        self.rejected = 0
        self.cancelled = 0
        self.high_watermark = 0

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self._size >= self.maxsize

    # -- producers ------------------------------------------------------

    def put_nowait(self, item: object, priority: int = 0) -> None:
        """Enqueue or raise :class:`QueueFull` — the rejection path."""
        if self._closed:
            raise QueueClosed("queue is closed")
        if self.full:
            self.rejected += 1
            raise QueueFull(
                f"queue depth {self.maxsize} reached ({self.rejected} rejected)"
            )
        self._push(item, priority)

    async def put(self, item: object, priority: int = 0) -> None:
        """Enqueue, waiting for a free slot — the backpressure path."""
        while self.full and not self._closed:
            waiter = asyncio.get_running_loop().create_future()
            self._not_full_waiters.append(waiter)
            try:
                await waiter
            finally:
                if waiter in self._not_full_waiters:
                    self._not_full_waiters.remove(waiter)
        if self._closed:
            raise QueueClosed("queue closed while waiting to enqueue")
        self._push(item, priority)

    def _push(self, item: object, priority: int) -> None:
        heapq.heappush(self._heap, [priority, next(self._seq), item])
        self._size += 1
        self.enqueued += 1
        self.high_watermark = max(self.high_watermark, self._size)
        self._wake(self._not_empty_waiters)

    # -- consumers ------------------------------------------------------

    async def get(self) -> object:
        """Pop the highest-priority live item, waiting when empty."""
        while True:
            item = self._pop_live()
            if item is not None:
                return item
            if self._closed:
                raise QueueClosed("queue is closed and drained")
            waiter = asyncio.get_running_loop().create_future()
            self._not_empty_waiters.append(waiter)
            try:
                await waiter
            finally:
                if waiter in self._not_empty_waiters:
                    self._not_empty_waiters.remove(waiter)

    def _pop_live(self) -> Optional[object]:
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry[2] is self._TOMBSTONE:
                continue
            self._size -= 1
            self.dequeued += 1
            self._wake(self._not_full_waiters)
            return entry[2]
        return None

    # -- cancellation / shutdown ---------------------------------------

    def remove(self, predicate: Callable[[object], bool]) -> int:
        """Tombstone every queued item matching ``predicate``.

        Returns the number removed; used to cancel still-queued jobs.
        """
        removed = 0
        for entry in self._heap:
            if entry[2] is not self._TOMBSTONE and predicate(entry[2]):
                entry[2] = self._TOMBSTONE
                removed += 1
        self._size -= removed
        self.cancelled += removed
        for _ in range(removed):
            self._wake(self._not_full_waiters)
        return removed

    def drain(
        self, predicate: Callable[[object], bool], limit: Optional[int] = None
    ) -> List[object]:
        """Dequeue up to ``limit`` queued items matching ``predicate``.

        Matching entries are tombstoned in place and *returned*, in
        (priority, submission) order — unlike :meth:`remove` they count
        as dequeued, not cancelled.  The batch dispatcher uses this to
        pull shape-compatible siblings of a job out of the queue in one
        go, without disturbing non-matching entries' ordering.
        """
        drained: List[object] = []
        for entry in sorted(self._heap, key=lambda e: (e[0], e[1])):
            if limit is not None and len(drained) >= limit:
                break
            if entry[2] is self._TOMBSTONE:
                continue
            if predicate(entry[2]):
                drained.append(entry[2])
                entry[2] = self._TOMBSTONE
        self._size -= len(drained)
        self.dequeued += len(drained)
        for _ in range(len(drained)):
            self._wake(self._not_full_waiters)
        return drained

    def close(self) -> None:
        """Refuse new items and wake all waiters (they raise
        :class:`QueueClosed`); already-queued items remain gettable."""
        self._closed = True
        self._wake_all(self._not_full_waiters)
        self._wake_all(self._not_empty_waiters)

    @staticmethod
    def _wake(waiters: List[asyncio.Future]) -> None:
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)
                break

    @staticmethod
    def _wake_all(waiters: List[asyncio.Future]) -> None:
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    # -- telemetry ------------------------------------------------------

    def stats(self) -> dict:
        return {
            "depth": self._size,
            "maxsize": self.maxsize,
            "enqueued": self.enqueued,
            "dequeued": self.dequeued,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
            "high_watermark": self.high_watermark,
            "closed": self._closed,
        }
