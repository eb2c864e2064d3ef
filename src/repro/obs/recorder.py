"""Always-on flight recorder: a bounded ring of recent spans/events.

Full JSONL tracing is real host work on every operation and nobody has
it on when a store actually degrades.  The flight recorder is the cheap
always-on alternative, controlled by the ``trace_sample`` store knob:

* ``"off"`` — recorder disabled; nothing is captured or dumped.
* ``"errors"`` — the hot path stays completely uninstrumented (the
  store's ``tracer`` remains ``None``), but every degraded/faulted
  path records an event into the ring: transient-IO retries,
  background-error degradation, ``CorruptionError``, OVERLOADED
  shedding, supervisor restarts.  This is the default: near-zero cost,
  100% capture on the paths that matter.
* ``"1/N"`` (for example ``"1/64"``) — additionally installs a
  sampling tracer as the store's ``tracer``: every Nth *root* op is
  traced in full (children and the background work it schedules
  included) into the ring; the other N-1 ops pay one counter increment
  and get a shared no-op span.

Records use the exact span-JSON schema of :mod:`repro.obs.trace`
(sim-clock timestamps, ``{component}-{seed:x}-{ordinal:x}`` ids), so a
dump is a valid trace file: :func:`repro.obs.trace.read_trace` parses
it and ``repro-trace`` renders it.  Dumps happen automatically on
degradation, breaker trips, shedding, and corruption; the first line is
a ``flight.dump`` event record carrying the dump reason.
"""

from __future__ import annotations

import collections
import json
import os
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.trace import Span, Tracer, TraceSink


def parse_sample_mode(spec: str) -> Tuple[str, int]:
    """Parse a ``trace_sample`` knob into ``(mode, rate)``.

    Returns ``("off", 0)``, ``("errors", 0)``, or ``("sample", N)``.
    Raises ``ValueError`` on anything else.
    """
    if spec == "off":
        return ("off", 0)
    if spec == "errors":
        return ("errors", 0)
    if spec.startswith("1/"):
        try:
            rate = int(spec[2:])
        except ValueError:
            rate = 0
        if rate >= 1:
            return ("sample", rate)
    raise ValueError(
        f"trace_sample must be 'off', 'errors', or '1/N' (N >= 1): {spec!r}"
    )


class _RingSink:
    """The sink a recorder's tracer writes to: finished span records in a
    bounded deque (a :class:`Tracer` only ever calls ``write``)."""

    def __init__(self, capacity: int) -> None:
        self.records: Deque[Dict[str, object]] = collections.deque(maxlen=capacity)
        self.spans_written = 0

    def write(self, record: Dict[str, object]) -> None:
        self.records.append(record)
        self.spans_written += 1


class _NullSpan:
    """Shared no-op span handed to unsampled ops (one per process)."""

    __slots__ = ()

    context = None
    attrs: Dict[str, object] = {}

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def end(self, at: Optional[float] = None) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _SamplingTracer(Tracer):
    """Traces every Nth root op in full; others get the shared no-op span.

    The sampling decision is taken when a root span opens (empty stack,
    no adopted context) and sticks for everything nested under it —
    including background jobs it schedules — so a sampled op is always a
    complete trace, never a fragment.
    """

    def __init__(
        self,
        sink: TraceSink,
        clock: Optional[object],
        component: str,
        seed: int,
        rate: int,
    ) -> None:
        super().__init__(sink, clock=clock, component=component, seed=seed)
        self._rate = rate
        self._roots = 0
        self._sampling = False

    def span(self, name: str, kind: str = "internal", **attrs: object):
        if not self._stack and not self._adopted:
            self._roots += 1
            self._sampling = self._roots % self._rate == 0
        if not self._sampling:
            return _NULL_SPAN
        return super().span(name, kind=kind, **attrs)

    def start_span(self, name: str, kind: str = "internal", **kwargs):
        if not self._sampling and kwargs.get("parent") is None:
            return _NULL_SPAN
        return super().start_span(name, kind=kind, **kwargs)

    def point(self, name: str, at: Optional[float] = None, **attrs: object) -> None:
        # Error/degrade events are never sampled away.
        when = self.now() if at is None else at
        span = super(_SamplingTracer, self).start_span(
            name, kind="event", start=when
        )
        if attrs:
            span.attrs.update(attrs)
        span.end(at=when)


class FlightRecorder:
    """Bounded, deterministic ring buffer of recent spans and events.

    One recorder per store (or per supervisor).  ``clock`` is the
    simulated clock (or any object with ``now``); ids derive from
    ``(component, seed, ordinal)`` so same-seed runs produce
    byte-identical rings and dumps.
    """

    def __init__(
        self,
        component: str = "store",
        seed: int = 0,
        clock: Optional[object] = None,
        mode: str = "errors",
        capacity: int = 512,
        dump_dir: Optional[str] = None,
        max_dumps: int = 8,
    ) -> None:
        self.mode, self.sample_rate = parse_sample_mode(mode)
        self.component = component.strip("/").replace("/", "-") or "store"
        self.seed = seed
        self.capacity = capacity
        self.dump_dir = dump_dir
        self.max_dumps = max_dumps
        self._sink = _RingSink(capacity)
        if self.mode == "sample":
            self.tracer: Optional[Tracer] = _SamplingTracer(
                self._sink, clock, self.component, seed, self.sample_rate
            )
        elif self.mode == "errors":
            self.tracer = Tracer(
                self._sink, clock=clock, component=self.component, seed=seed
            )
        else:
            self.tracer = None
        self.dumps = 0
        self.dump_paths: List[str] = []
        self.last_dump: List[Dict[str, object]] = []
        self.last_reason: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    @property
    def sampling_tracer(self) -> Optional[Tracer]:
        """The tracer a store should install as its hot-path ``tracer``.

        Only ``"1/N"`` mode instruments the hot path; ``"errors"`` mode
        returns ``None`` so every per-op tracer check stays one failed
        ``is None`` test.
        """
        return self.tracer if self.mode == "sample" else None

    def point(self, name: str, at: Optional[float] = None, **attrs: object) -> None:
        """Record one event into the ring (error/degrade sites call this)."""
        if self.tracer is not None:
            self.tracer.point(name, at=at, **attrs)

    def records(self) -> List[Dict[str, object]]:
        """Current ring contents, oldest first."""
        return list(self._sink.records)

    def __len__(self) -> int:
        return len(self._sink.records)

    # ------------------------------------------------------------------
    def dump(self, reason: str, at: Optional[float] = None) -> Optional[str]:
        """Snapshot the ring to disk (or memory) on a degradation event.

        Returns the file path when ``dump_dir`` is set, else ``None``.
        Dumps are capped at ``max_dumps`` per recorder so repeated
        OVERLOADED shedding cannot flood the disk; the in-memory
        ``last_dump`` always reflects the most recent trigger.
        """
        if self.tracer is None:
            return None
        when = at if at is not None else self.tracer.now()
        header: Dict[str, object] = {
            "trace": f"t{self.component}-{self.seed:x}-dump{self.dumps:x}",
            "span": f"{self.component}-{self.seed:x}-dump{self.dumps:x}",
            "parent": None,
            "name": "flight.dump",
            "kind": "event",
            "start": when,
            "end": when,
            "attrs": {
                "reason": reason,
                "component": self.component,
                "records": len(self._sink.records),
            },
        }
        records = [header] + list(self._sink.records)
        self.last_dump = records
        self.last_reason = reason
        self.dumps += 1
        if self.dump_dir is None or self.dumps > self.max_dumps:
            return None
        os.makedirs(self.dump_dir, exist_ok=True)
        path = os.path.join(
            self.dump_dir,
            f"flight-{self.component}-{self.seed:x}-{self.dumps - 1:x}.jsonl",
        )
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(
                    json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
                )
        self.dump_paths.append(path)
        return path

    def summary(self) -> Dict[str, object]:
        """Small JSON-friendly status block for the admin plane."""
        return {
            "mode": self.mode,
            "sample_rate": self.sample_rate,
            "capacity": self.capacity,
            "recorded": self._sink.spans_written,
            "in_ring": len(self._sink.records),
            "dumps": self.dumps,
            "last_reason": self.last_reason,
            "dump_paths": list(self.dump_paths),
        }


__all__ = ["FlightRecorder", "parse_sample_mode"]
