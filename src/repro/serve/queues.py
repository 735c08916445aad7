"""Bounded FIFO admission queue for the verify server.

Admission control is the load-shedding half of the server's robustness
story: a queue that grows without bound converts overload into unbounded
latency for *everyone* and an eventual OOM kill; a bounded queue converts
it into an explicit, immediate ``rejected: overloaded`` reply for the
*marginal* request while every admitted request keeps its latency.  Queued
misses run in arrival order; cache hits never enter the queue.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, List


class QueueClosed(RuntimeError):
    """Raised to getters when the queue is closed and drained."""


class BoundedQueue:
    """An asyncio FIFO queue that *rejects* instead of blocking when full.

    ``try_put`` is the admission decision: it never awaits, returning
    ``False`` when the queue is at capacity so the caller can send the
    overload rejection while the event loop stays responsive.  ``get``
    awaits the oldest item.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("queue capacity must be at least 1")
        self.maxsize = maxsize
        self._items: Deque[object] = deque()
        self._closed = False
        self._waiters: List[asyncio.Future] = []
        self.admitted = 0
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._items)

    def _wake_one(self) -> None:
        while self._waiters:
            waiter = self._waiters.pop(0)
            if not waiter.done():
                waiter.set_result(None)
                return

    def try_put(self, item: object) -> bool:
        """Admit ``item`` or refuse immediately; never blocks."""
        if self._closed or len(self._items) >= self.maxsize:
            self.rejected += 1
            return False
        self._items.append(item)
        self.admitted += 1
        self._wake_one()
        return True

    async def get(self) -> object:
        """Await the oldest item; raises :class:`QueueClosed` once closed+empty."""
        while True:
            if self._items:
                return self._items.popleft()
            if self._closed:
                raise QueueClosed()
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            try:
                await waiter
            finally:
                if waiter in self._waiters:
                    self._waiters.remove(waiter)

    def close(self) -> None:
        """Stop admissions and wake every getter (drain mode)."""
        self._closed = True
        for waiter in list(self._waiters):
            if not waiter.done():
                waiter.set_result(None)
        self._waiters.clear()
