"""Adaptive concurrency throttle driven by observed attempt latency.

The server's worker pool faces a classic feedback problem: more concurrent
supervised verifications raise throughput until the machine saturates, after
which every computation just runs slower (and closer to its deadline).  The
throttle closes the loop the way Scrapy's AutoThrottle does for request
delay: observe the latency of completed work, keep an exponentially-weighted
moving average, and steer concurrency toward the level where observed
latency sits at the configured target — shrink while latency is above
target, grow back while it is comfortably below.

Adjustments are deliberately coarse (±1, at most once per observation
window) so a single slow verification cannot collapse the pool, and the
concurrency is clamped to ``[min_concurrency, max_concurrency]`` so the
server never throttles itself to a standstill nor grows past the configured
pool.
"""

from __future__ import annotations

import time
from typing import Dict, Optional


class AdaptiveThrottle:
    """EWMA-latency feedback controller for the worker-pool concurrency."""

    def __init__(
        self,
        min_concurrency: int = 1,
        max_concurrency: int = 4,
        target_latency_s: float = 5.0,
        alpha: float = 0.3,
        window: int = 4,
        idle_window_s: Optional[float] = None,
    ) -> None:
        if min_concurrency < 1 or max_concurrency < min_concurrency:
            raise ValueError("need 1 <= min_concurrency <= max_concurrency")
        self.min_concurrency = min_concurrency
        self.max_concurrency = max_concurrency
        self.target_latency_s = target_latency_s
        self.alpha = alpha
        self.window = max(1, window)
        #: a window that closes with zero completed requests; the stale EWMA
        #: sample must not keep steering, so it decays toward target instead
        self.idle_window_s = (
            idle_window_s if idle_window_s is not None else max(1.0, target_latency_s)
        )
        self.concurrency = max_concurrency
        self.ewma_latency_s: Optional[float] = None
        self.observations = 0
        self.adjustments = 0
        self.idle_windows = 0
        self._since_adjust = 0
        self._last_event = time.monotonic()

    def observe(self, latency_s: float) -> int:
        """Feed one completed computation's latency; returns the new target."""
        latency_s = max(0.0, float(latency_s))
        self._last_event = time.monotonic()
        if self.ewma_latency_s is None:
            self.ewma_latency_s = latency_s
        else:
            self.ewma_latency_s += self.alpha * (latency_s - self.ewma_latency_s)
        self.observations += 1
        self._since_adjust += 1
        if self._since_adjust < self.window:
            return self.concurrency
        return self._adjust()

    def tick(self, now: Optional[float] = None) -> int:
        """Close an observation window that saw zero completed requests.

        Without this, a burst of slow work followed by silence leaves the
        EWMA pinned at the stale overload sample and the pool shrunk forever.
        An idle window instead decays the EWMA toward the target, so the
        stale sample loses its grip and fresh (fast) observations can grow
        the pool back promptly.
        """
        now = time.monotonic() if now is None else now
        if now - self._last_event < self.idle_window_s:
            return self.concurrency
        self._last_event = now
        self.idle_windows += 1
        if self.ewma_latency_s is None:
            return self.concurrency
        self.ewma_latency_s += self.alpha * (self.target_latency_s - self.ewma_latency_s)
        return self._adjust()

    def _adjust(self) -> int:
        if self.ewma_latency_s > self.target_latency_s:
            proposed = self.concurrency - 1
        elif self.ewma_latency_s < self.target_latency_s / 2.0:
            proposed = self.concurrency + 1
        else:
            return self.concurrency
        proposed = min(self.max_concurrency, max(self.min_concurrency, proposed))
        if proposed != self.concurrency:
            self.concurrency = proposed
            self.adjustments += 1
        self._since_adjust = 0
        return self.concurrency

    def snapshot(self) -> Dict[str, object]:
        return {
            "concurrency": self.concurrency,
            "min": self.min_concurrency,
            "max": self.max_concurrency,
            "target_latency_s": self.target_latency_s,
            "ewma_latency_s": self.ewma_latency_s,
            "observations": self.observations,
            "adjustments": self.adjustments,
            "idle_windows": self.idle_windows,
        }
