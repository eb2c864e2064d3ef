"""Span-based tracing on the simulated clock with deterministic ids.

A :class:`Tracer` hands out spans whose ids derive purely from
``(component, seed, ordinal)`` — never from ``random`` or wall time — so
re-running the same seeded workload reproduces a byte-identical trace
file.  Timestamps come from the simulated clock; the tracer never
advances it or charges IO, so enabling tracing cannot perturb the
simulation (the MANIFEST/digest determinism tests stay bit-exact with
tracing on or off).

Span kinds:

* ``internal`` — synchronous work on the foreground path (get, write,
  stall, manifest rotation).  These nest via a per-tracer stack; the
  simulation is single-threaded so a stack is exact.
* ``background`` — flush/compaction work executed by the
  :class:`~repro.sim.executor.BackgroundExecutor`.  A background span
  records the *job's* start/completion times and links to the span that
  scheduled it, but since the job runs after its scheduler returns it is
  exempt from the containment nesting invariant.
* ``client`` / ``server`` — the two halves of one ``repro.net`` request.
  The client span's context travels in the wire frame; the server span
  adopts it so one trace id covers client retry → shard → engine →
  background work.
* ``event`` — zero-duration point spans (fault retries, degrade/resume
  transitions).

Spans are written to the sink when they *end*, as compact sorted-key
JSON lines; under the deterministic simulation that order is itself
deterministic.
"""

from __future__ import annotations

import io
import json
from typing import Dict, IO, List, Optional, Sequence, Tuple, Union

SpanContext = Tuple[str, str]  # (trace_id, span_id)


class TraceSink:
    """Appends finished spans as JSON lines to a file or stream.

    One sink can be shared by several tracers (the cluster client and
    every shard engine write into the same file, giving a single-file
    cross-layer trace).
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._file: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self.spans_written = 0

    def write(self, record: Dict[str, object]) -> None:
        self._file.write(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self.spans_written += 1

    def close(self) -> None:
        if self._owns_file and not self._file.closed:
            self._file.close()


class Span:
    """One timed unit of work; finished spans are immutable JSON records."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "kind",
        "start",
        "end_time",
        "attrs",
        "events",
        "_tracer",
        "_stacked",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        kind: str,
        start: float,
        stacked: bool,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start
        self.end_time: Optional[float] = None
        self.attrs: Dict[str, object] = {}
        self.events: List[Dict[str, object]] = []
        self._tracer = tracer
        self._stacked = stacked

    @property
    def context(self) -> SpanContext:
        return (self.trace_id, self.span_id)

    def set(self, **attrs: object) -> "Span":
        self.attrs.update(attrs)
        return self

    def event(self, name: str, at: Optional[float] = None, **attrs: object) -> None:
        record: Dict[str, object] = {
            "name": name,
            "t": self._tracer.now() if at is None else at,
        }
        if attrs:
            record["attrs"] = attrs
        self.events.append(record)

    def end(self, at: Optional[float] = None) -> None:
        if self.end_time is not None:
            return
        self.end_time = self._tracer.now() if at is None else at
        self._tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.attrs.setdefault("error", type(exc).__name__)
        self.end()


class Tracer:
    """Produces deterministically-identified spans for one component.

    ``clock`` is any object with a ``now`` attribute (the simulated
    clock, or a view of it); ``None`` means all times must be passed
    explicitly.  Ids are ``{component}-{seed:x}-{ordinal:x}`` with a
    single per-tracer ordinal counter shared by spans and root traces,
    so id assignment is a pure function of call order.
    """

    def __init__(
        self,
        sink: TraceSink,
        clock: Optional[object] = None,
        component: str = "store",
        seed: int = 0,
    ) -> None:
        self.sink = sink
        self.clock = clock
        self.component = component
        self.seed = seed
        self._ordinal = 0
        self._stack: List[Span] = []
        self._adopted: List[SpanContext] = []

    # ------------------------------------------------------------------
    def now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def _next_id(self, prefix: str = "") -> str:
        self._ordinal += 1
        return f"{prefix}{self.component}-{self.seed:x}-{self._ordinal:x}"

    def current(self) -> Optional[SpanContext]:
        """Context of the innermost open span (stacked or adopted)."""
        if self._stack:
            return self._stack[-1].context
        if self._adopted:
            return self._adopted[-1]
        return None

    # ------------------------------------------------------------------
    def span(self, name: str, kind: str = "internal", **attrs: object) -> Span:
        """Open a stacked span nested under the current context.

        Use as a context manager on the synchronous path; the simulation
        is single-threaded so the stack mirrors the call structure.
        """
        span = self.start_span(name, kind=kind, _stacked=True, **attrs)
        self._stack.append(span)
        return span

    def start_span(
        self,
        name: str,
        kind: str = "internal",
        parent: Optional[SpanContext] = None,
        start: Optional[float] = None,
        _stacked: bool = False,
        **attrs: object,
    ) -> Span:
        """Open a span; non-stacked spans must be ended explicitly.

        ``parent`` pins the span under a captured context (background
        jobs capture the scheduling span's context); otherwise the
        current context is used, and with no context at all the span
        starts a fresh trace.
        """
        if parent is None:
            parent = self.current()
        span_id = self._next_id()
        if parent is not None:
            trace_id, parent_id = parent
        else:
            trace_id, parent_id = self._next_id("t"), None
        span = Span(
            tracer=self,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            kind=kind,
            start=self.now() if start is None else start,
            stacked=_stacked,
        )
        if attrs:
            span.attrs.update(attrs)
        return span

    def point(self, name: str, at: Optional[float] = None, **attrs: object) -> None:
        """Record a zero-duration event span (fault retry, degrade...)."""
        when = self.now() if at is None else at
        span = self.start_span(name, kind="event", start=when)
        if attrs:
            # Attrs may legitimately be named "kind"/"start"/"parent";
            # set them on the span rather than into start_span's kwargs.
            span.attrs.update(attrs)
        span.end(at=when)

    # ------------------------------------------------------------------
    def adopt(self, context: SpanContext) -> "_AdoptedContext":
        """Nest subsequent spans under a remote (wire-carried) context."""
        return _AdoptedContext(self, context)

    # ------------------------------------------------------------------
    def _finish(self, span: Span) -> None:
        if span._stacked:
            # The single-threaded simulation always closes spans LIFO.
            if self._stack and self._stack[-1] is span:
                self._stack.pop()
            elif span in self._stack:  # pragma: no cover - defensive
                self._stack.remove(span)
        record: Dict[str, object] = {
            "trace": span.trace_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "kind": span.kind,
            "start": span.start,
            "end": span.end_time,
        }
        if span.attrs:
            record["attrs"] = span.attrs
        if span.events:
            record["events"] = span.events
        self.sink.write(record)


class _AdoptedContext:
    def __init__(self, tracer: Tracer, context: SpanContext) -> None:
        self._tracer = tracer
        self._context = context

    def __enter__(self) -> SpanContext:
        self._tracer._adopted.append(self._context)
        return self._context

    def __exit__(self, *exc) -> None:
        self._tracer._adopted.pop()


# ----------------------------------------------------------------------
# Reading and validating traces
# ----------------------------------------------------------------------
def read_trace(source: Union[str, IO[str]]) -> List[Dict[str, object]]:
    """Parse a trace JSONL file into span records; raises on bad lines."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = source.read()
    spans: List[Dict[str, object]] = []
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno}: invalid JSON: {exc}") from None
        for field in ("trace", "span", "name", "kind", "start", "end"):
            if field not in record:
                raise ValueError(f"trace line {lineno}: missing field {field!r}")
        spans.append(record)
    return spans


def verify_nesting(spans: Sequence[Dict[str, object]]) -> None:
    """Assert no span closes before its children (containment invariant).

    ``background`` spans run after the span that scheduled them returns,
    so they are linked for attribution but exempt from containment; the
    same applies to children of a background span's remote parent that
    the file does not contain (cross-file parents are skipped).
    ``server`` spans are timed on their shard's clock while the client
    parent is timed on the cluster clock view (the max over shards), so
    they too are linked but not containment-checked.
    """
    by_id = {record["span"]: record for record in spans}
    for record in spans:
        if record["kind"] in ("background", "event", "server"):
            continue
        parent_id = record.get("parent")
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None or parent["kind"] in ("background", "event"):
            continue
        if record["start"] < parent["start"] or record["end"] > parent["end"]:
            raise AssertionError(
                f"span {record['span']} ({record['name']}) "
                f"[{record['start']}, {record['end']}] escapes parent "
                f"{parent['span']} ({parent['name']}) "
                f"[{parent['start']}, {parent['end']}]"
            )
