"""Deterministic token-bucket rate limiting on the simulated clock.

Real stores (RocksDB's ``RateLimiter``) throttle compaction I/O so
background merges cannot monopolize the device and starve foreground
reads.  Our background work is simulated, so instead of sleeping threads
we shape *job start times*: a caller asks the bucket when a job consuming
``amount`` units may begin, and submits the job to the
:class:`~repro.sim.executor.BackgroundExecutor` with ``at=`` that time.

The bucket is a pure function of its reservation sequence — no wall
clock, no randomness — so rate-limited schedules stay deterministic and
replayable like everything else in the simulation.
"""

from __future__ import annotations


class TokenBucket:
    """Paces reservations to ``rate`` units per simulated second.

    ``burst`` units of credit accumulate while the bucket sits idle, so a
    cold bucket admits a burst immediately instead of pacing from the
    first byte.  ``reserve`` never blocks and never refuses: it returns
    the earliest start time, which is in the future only when the bucket
    is in debt.  Start times are monotone in reservation order, so a
    stalled writer waiting on the earliest pending completion always has
    a finite deadline — the limiter can delay work but can never
    deadlock it.
    """

    def __init__(self, rate: float, burst: "float | None" = None) -> None:
        if rate <= 0:
            raise ValueError("rate must be > 0")
        self.rate = float(rate)
        #: Idle credit cap, in units (default: one second's worth).
        self.burst = float(rate if burst is None else burst)
        if self.burst < 0:
            raise ValueError("burst must be >= 0")
        #: Sim time at which the bucket next has zero debt and zero credit.
        #: Behind ``now`` = accumulated credit; ahead of ``now`` = debt.
        self._ready = 0.0
        # Accounting for observability.
        self.reservations = 0
        self.delayed = 0
        self.delay_seconds = 0.0

    def reserve(self, amount: float, now: float) -> float:
        """Earliest sim time a job consuming ``amount`` units may start."""
        if amount < 0:
            raise ValueError("amount must be >= 0")
        rate = self.rate
        cost = amount / rate
        # Refill while idle, capped at ``burst`` units of credit.
        ready = max(self._ready, now - self.burst / rate)
        start = max(now, ready)
        self._ready = ready + cost
        self.reservations += 1
        if start > now:
            self.delayed += 1
            self.delay_seconds += start - now
        return start
