"""Simulated clock.

All "time" in the library is simulated: device transfers, CPU work, and
write stalls advance this clock.  Benchmarks report ops per simulated
second, which makes runs deterministic and independent of the speed of the
Python interpreter executing them.
"""

from __future__ import annotations


class SimClock:
    """A monotonically advancing simulated clock (seconds, float)."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` (must be >= 0); returns now."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds}")
        self._now += seconds
        return self._now

    def advance_to(self, deadline: float) -> float:
        """Move time forward to ``deadline`` if it is in the future."""
        if deadline > self._now:
            self._now = deadline
        return self._now
