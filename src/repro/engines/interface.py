"""The store interface every engine implements (paper section 2.1): put,
get, delete, iterators and range query, the stats plane's read entry point
and its views, read snapshots, and the key and value checks."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import BackgroundError, InvalidArgumentError, StoreClosedError
from repro.obs.admin import aggregate_admin
from repro.obs.ledger import IoLedger
from repro.obs.render import health_line, summary
from repro.obs.stats import STAT_METRICS, StoreStats
from repro.obs.trace import Tracer, TraceSink
from repro.util.keys import KIND_PUT


class Snapshot:
    """A consistent read view: all writes with sequence <= ``sequence``.

    Obtained from :meth:`LSMStoreBase.get_snapshot`; release it so
    compaction may reclaim the versions it pins.
    """

    __slots__ = ("sequence", "_released")

    def __init__(self, sequence: int) -> None:
        self.sequence = sequence
        self._released = False


class DBIterator:
    """A positioned iterator over visible ``(user_key, value)`` pairs."""

    def __init__(self, gen: Iterator[Tuple[bytes, bytes]], on_next=None) -> None:
        self._gen = gen
        self._on_next = on_next
        self._current: Optional[Tuple[bytes, bytes]] = next(gen, None)

    @property
    def valid(self) -> bool:
        return self._current is not None

    def key(self) -> bytes:
        if self._current is None:
            raise InvalidArgumentError("iterator exhausted")
        return self._current[0]

    def value(self) -> bytes:
        if self._current is None:
            raise InvalidArgumentError("iterator exhausted")
        return self._current[1]

    def next(self) -> bool:
        """Advance; returns True while positioned on an entry."""
        if self._on_next is not None:
            self._on_next()
        self._current = next(self._gen, None)
        return self._current is not None

    def close(self) -> None:
        self._gen.close()

    def __enter__(self) -> "DBIterator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class KeyValueStore(ABC):
    """The operations every engine provides (paper section 2.1)."""

    @abstractmethod
    def put(self, key: bytes, value: bytes) -> None:
        """Store ``key -> value`` (overwriting any previous value)."""

    @abstractmethod
    def get(self, key: bytes) -> Optional[bytes]:
        """Latest value of ``key``, or None if absent/deleted."""

    @abstractmethod
    def delete(self, key: bytes) -> None:
        """Remove ``key`` (a no-op if absent)."""

    @abstractmethod
    def seek(self, key: bytes) -> DBIterator:
        """Iterator positioned at the smallest key >= ``key``."""

    def seek_reverse(self, key: bytes) -> DBIterator:
        """Iterator over keys <= ``key`` in descending order.

        Optional: engines without backward iteration raise
        NotImplementedError.
        """
        raise NotImplementedError(f"{type(self).__name__} cannot iterate backward")

    @abstractmethod
    def close(self) -> None:
        """Finish background work and release the store."""

    #: Span tracer; None keeps every instrumentation site to one check.
    tracer: Optional[Tracer] = None
    #: Seed of the tracer's span ids.
    seed = 0
    _closed = False

    def enable_tracing(self, sink: TraceSink, component: str = "engine") -> Tracer:
        """Attach a span tracer writing to ``sink``; returns the tracer.

        Ids derive from ``(component, seed, op ordinal)`` and timestamps
        from the simulated clock, so the same seed and workload produce a
        byte-identical trace file.
        """
        self.tracer = Tracer(
            sink, clock=self.storage.clock, component=component, seed=self.seed
        )
        return self.tracer

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("store is closed")

    # ------------------------------------------------------------------
    # The stats plane: one read entry point, everything else a view of it
    # ------------------------------------------------------------------
    #: ``StoreStats.preset`` (LSM engines report their options preset).
    preset = ""

    #: The engine's :class:`~repro.engines.background.BackgroundErrors`;
    #: None where nothing can degrade it.
    _faults = None

    def background_error(self) -> Optional[BackgroundError]:
        """The sticky background error, or None when healthy."""
        return None if self._faults is None else self._faults.error

    @property
    def is_degraded(self) -> bool:
        """True while a sticky background error blocks writes (cheap
        enough for per-request checks; ``stats_part()`` is not)."""
        return self.background_error() is not None

    def _refresh_derived(self) -> None:
        """Set the engine's read-time metrics (memory, sstables, caches)."""

    def io_ledger(self) -> IoLedger:
        """Per-cause I/O attribution for this store's traffic."""
        return IoLedger.from_storage(self.storage, self.prefix)

    def stats_part(self) -> Dict[str, object]:
        """This store's stats *part*: the registry with every derived
        value computed once, plus health, I/O ledger and op windows.

        Plain data (it pickles; see :mod:`repro.obs.admin`).  ``stats()``,
        every ``repro.*`` property and the serving layer's admin sections
        are views of it, so a number has one definition: device bytes and
        syncs are the :class:`IoLedger` totals.
        """
        self._refresh_derived()
        reg = self.registry
        ledger = self.io_ledger()
        reg.gauge("io.device_bytes_written").set(ledger.total_write_bytes)
        reg.gauge("io.device_bytes_read").set(ledger.total_read_bytes)
        reg.gauge("io.device_syncs").set(ledger.total_syncs)
        error = self.background_error()
        reg.gauge("fault.degraded").set(0 if error is None else 1)
        return {
            "preset": self.preset,
            "registry": reg,
            "health": health_line(reg),
            "background_error": "" if error is None else str(error),
            "ledger": ledger.to_dict(),
            "windows": dict(getattr(self, "op_windows", {})),
        }

    def stats(self) -> StoreStats:
        """The flat counter view: ``STAT_METRICS`` read off the part."""
        part = self.stats_part()
        reg = part["registry"]
        s = StoreStats(
            preset=part["preset"], background_error=part["background_error"]
        )
        for attr, name in STAT_METRICS.items():
            setattr(s, attr, reg.value(name))
        s.degraded = bool(s.degraded)
        while (
            size := reg.get("store.level_bytes", level=len(s.level_sizes))
        ) is not None:
            s.level_sizes.append(size.value)
        return s

    #: ``get_property`` dispatch, LevelDB-style: name -> renderer(store).
    #: A name ending ``<N>`` takes a trailing integer, passed as a second
    #: argument.  Subclasses extend the table; ``property_names()`` is
    #: its keys.  ``repro.health`` leads with ``ok``/``degraded``.
    PROPERTIES: Dict[str, Callable[..., Optional[str]]] = {
        "repro.stats": lambda db: summary(db.stats()),
        "repro.health": lambda db: db.stats_part()["health"],
        "repro.background-error": lambda db: str(db.background_error() or ""),
        "repro.metrics": lambda db: aggregate_admin("metrics", [db.stats_part()]),
        "repro.ledger": lambda db: aggregate_admin("ledger", [db.stats_part()]),
        "repro.windows": lambda db: aggregate_admin("windows", [db.stats_part()]),
    }

    def get_property(self, name: str) -> Optional[str]:
        """Textual store property; None when unknown."""
        stem = name.rstrip("0123456789")
        if stem == name:
            render = self.PROPERTIES.get(name)
            return None if render is None or name.endswith("<N>") else render(self)
        render = self.PROPERTIES.get(stem + "<N>")
        return None if render is None else render(self, int(name[len(stem):]))

    def property_names(self) -> List[str]:
        """Property names :meth:`get_property` understands for this engine."""
        return list(self.PROPERTIES)

    # Optional lifecycle hooks (engines without background work inherit
    # these no-ops, keeping the harness engine-agnostic) -----------------
    def wait_idle(self) -> None:
        """Let background work finish; no-op for synchronous engines."""

    def flush_memtable(self) -> None:
        """Force buffered writes to storage; no-op where inapplicable."""

    def compact_all(self) -> None:
        """Drive compaction to a steady state; no-op where inapplicable."""

    def check_invariants(self) -> None:
        """Raise AssertionError on internal inconsistency."""

    # Convenience built on the primitives -------------------------------
    def write_batch(
        self, ops: List[Tuple[int, bytes, bytes]], sync: bool = False
    ) -> None:
        """Apply ``(kind, key, value)`` ops atomically where supported.

        ``sync=True`` asks for durability before returning; engines
        without a WAL (or whose options already force syncing) ignore it.
        """
        for kind, key, value in ops:
            if kind == KIND_PUT:
                self.put(key, value)
            else:
                self.delete(key)

    def range_query(self, lo: bytes, hi: bytes, limit: Optional[int] = None):
        """All pairs with lo <= key <= hi (paper section 2.1)."""
        out = []
        it = self.seek(lo)
        while it.valid and it.key() <= hi:
            out.append((it.key(), it.value()))
            if limit is not None and len(out) >= limit:
                break
            it.next()
        it.close()
        return out


def check_snapshot(snapshot: Optional[Snapshot]) -> None:
    # Compaction may already have dropped what only this snapshot could
    # see: a read through it would answer with a state that never existed.
    if snapshot is not None and snapshot._released:
        raise InvalidArgumentError("snapshot was released")



def validate_key(key: bytes) -> None:
    if not isinstance(key, (bytes, bytearray)) or len(key) == 0:
        raise InvalidArgumentError(f"keys must be non-empty bytes, got {key!r}")


def checked_bytes(data, *, key: bool = False) -> bytes:
    """``data`` as the ``bytes`` a write stores.  The type is checked before
    it is coerced (``bytes(5)`` is five zero bytes); a key is not empty."""
    if not isinstance(data, (bytes, bytearray, memoryview)) or (key and not len(data)):
        what = "keys must be non-empty bytes" if key else "values must be bytes"
        raise InvalidArgumentError(f"{what}, got {data!r}")
    return bytes(data)
