"""Wrapper-span tracer: host time per layer, measured from outside.

The program is not edited.  :meth:`Tracer.install` replaces the public
callables that form each layer's boundary with timing wrappers, *before*
the traced store or server is built (objects capture bound methods at
construction).  Module-level functions are replaced by identity in every
loaded ``repro.*`` module, because most call sites did ``from x import
f``; methods are replaced on their class.

Three wrapper kinds:

* **span** — times one call.
* **gen** — the target is a generator function; every ``next`` on the
  generator it returns is one span, so a merging iterator is charged for
  the time it runs, not for the time its consumer holds it.
* **count** — leaves too hot to time (``murmur3_32``, guard lookups):
  a call counter only; their time stays in the caller's self time.

Self time is span time minus the time of child spans.  The wrapper's own
cost that lands in the *parent* (argument packing, clock reads outside
the timed interval) is calibrated on an empty function at install time
and ``children x cost`` is subtracted from each parent's self time.

Spans nest on one stack, so the tracer is for single-threaded code;
asyncio is fine because only synchronous callables are wrapped and they
run to completion between awaits.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from bench.spec import COUNT_ONLY_LAYERS, SELF_ONLY_LAYERS, TIMED_LAYERS

SPAN, GEN, COUNT = "span", "gen", "count"

#: (layer, module, qualified name, kind) — the span boundaries.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("net.protocol", "repro.net.protocol", "Request.encode", SPAN),
    ("net.protocol", "repro.net.protocol", "Response.encode", SPAN),
    ("net.protocol", "repro.net.protocol", "encode_frame", SPAN),
    ("net.protocol", "repro.net.protocol", "FrameDecoder.feed", SPAN),
    ("net.protocol", "repro.net.protocol", "FrameDecoder.next_frame", SPAN),
    ("net.protocol", "repro.net.protocol", "decode_payload", SPAN),
    ("net.transport", "repro.net.transport", "LoopbackEndpoint.write", SPAN),
    ("net.transport", "repro.net.transport", "StreamEndpoint.write", SPAN),
    ("net.router", "repro.net.router", "ShardRouter.shard_for", SPAN),
    ("net.router", "repro.net.router", "ShardRouter.split_batch", SPAN),
    ("net.router", "repro.net.router", "ShardRouter.split_range", SPAN),
    ("engines.base", "repro.engines.base", "LSMStoreBase.put", SPAN),
    ("engines.base", "repro.engines.base", "LSMStoreBase.get", SPAN),
    ("engines.base", "repro.engines.base", "LSMStoreBase.seek", SPAN),
    ("engines.base", "repro.engines.base", "LSMStoreBase.write_batch", SPAN),
    ("engines.base", "repro.engines.base", "DBIterator.next", SPAN),
    ("core.pebbles", "repro.core.pebbles", "PebblesDBStore._get_from_tables", SPAN),
    ("core.pebbles", "repro.core.pebbles", "PebblesDBStore._table_iterators", SPAN),
    ("core.pebbles", "repro.core.pebbles", "PebblesDBStore._schedule_compactions", SPAN),
    ("core.pebbles", "repro.core.pebbles", "PebblesDBStore._install_flush", SPAN),
    ("core.guards", "repro.core.guards", "GuardedLevel.size_bytes", COUNT),
    ("core.guards", "repro.core.guards", "GuardedLevel.find_guard", COUNT),
    ("memtable", "repro.memtable.memtable", "Memtable.add", SPAN),
    ("memtable", "repro.memtable.memtable", "Memtable.get", SPAN),
    ("memtable", "repro.memtable.memtable", "Memtable.seek", SPAN),
    ("memtable", "repro.memtable.skiplist", "SkipList.seek", GEN),
    ("memtable", "repro.memtable.skiplist", "SkipList.__iter__", GEN),
    ("wal", "repro.wal.log", "encode_batch", SPAN),
    ("wal", "repro.wal.log", "LogWriter.append", SPAN),
    ("wal", "repro.wal.log", "LogWriter.sync", SPAN),
    ("bloom", "repro.bloom.bloom", "BloomFilter.add", SPAN),
    ("bloom", "repro.bloom.bloom", "BloomFilter.for_keys", SPAN),
    ("bloom", "repro.bloom.bloom", "BloomFilter.may_contain", SPAN),
    ("bloom", "repro.bloom.bloom", "BloomFilter.may_contain_hash", SPAN),
    ("util.murmur", "repro.util.murmur", "murmur3_32", COUNT),
    ("sstable.builder", "repro.sstable.builder", "SSTableBuilder.add", SPAN),
    ("sstable.builder", "repro.sstable.builder", "SSTableBuilder.finish", SPAN),
    ("sstable.reader", "repro.sstable.reader", "SSTableReader.open", SPAN),
    ("sstable.reader", "repro.sstable.reader", "SSTableReader.may_contain", SPAN),
    ("sstable.reader", "repro.sstable.reader", "SSTableReader.get", SPAN),
    ("sstable.reader", "repro.sstable.reader", "SSTableReader.seek", GEN),
    ("sstable.reader", "repro.sstable.reader", "SSTableReader.iter_all", GEN),
    ("sstable.format", "repro.sstable.format", "decode_block_with_keys", SPAN),
    ("sstable.format", "repro.sstable.format", "decode_block", SPAN),
    ("sstable.format", "repro.sstable.format", "decode_index", SPAN),
    ("sstable.block_cache", "repro.sstable.block_cache", "DecodedBlockCache.get", SPAN),
    ("sstable.block_cache", "repro.sstable.block_cache", "DecodedBlockCache.put", SPAN),
    ("sstable.merger", "repro.sstable.merger", "merging_iterator", GEN),
    ("sstable.merger", "repro.sstable.merger", "compaction_iterator", GEN),
    ("version.manifest", "repro.version.manifest", "ManifestWriter.append", SPAN),
    ("sim.storage", "repro.sim.storage", "SimulatedStorage.append", SPAN),
    ("sim.storage", "repro.sim.storage", "SimulatedStorage.read", SPAN),
    ("sim.storage", "repro.sim.storage", "SimulatedStorage.charge_read", SPAN),
    ("sim.storage", "repro.sim.storage", "SimulatedStorage.sync", SPAN),
    ("sim.cache", "repro.sim.cache", "PageCache.access_range", SPAN),
    ("sim.cache", "repro.sim.cache", "PageCache.populate_range", SPAN),
)

#: Rows kept for ``spans.jsonl``; later spans still count in the totals.
SPAN_CAP = 1_000_000


class _State:
    """The mutable hot-path state, kept off the Tracer for slot speed."""

    __slots__ = ("on", "child", "nchild", "cur", "n", "dropped")

    def __init__(self) -> None:
        self.on = False
        self.child = 0.0  # child-span seconds of the open span (or of the root)
        self.nchild = 0  # child spans of the open span
        self.cur = -1  # row index of the open span
        self.n = 0  # rows used
        self.dropped = 0


class Tracer:
    """Installs the wrappers, accumulates per-target self time and calls."""

    def __init__(self, record_spans: bool = False) -> None:
        self.names = [f"{module.rsplit('.', 1)[-1]}.{qual}" for _, module, qual, _ in TARGETS]
        self.layers = [layer for layer, _, _, _ in TARGETS]
        count = len(TARGETS)
        self.calls = [0] * count
        self._raw_self = [0.0] * count  # span seconds minus child seconds
        self._children = [0] * count  # child spans, for the calibration term
        self.frame_bytes = 0  # bytes returned by encode_frame
        self.cost = 0.0  # calibrated wrapper seconds charged to a parent
        self._state = _State()
        self._record = record_spans
        if record_spans:
            self._row_target = array("H", bytes(2 * SPAN_CAP))
            self._row_parent = array("l", bytes(array("l").itemsize * SPAN_CAP))
            self._row_start = array("d", bytes(8 * SPAN_CAP))
            self._row_end = array("d", bytes(8 * SPAN_CAP))
        self._undo: List[Tuple[object, str, object]] = []
        self._top_seconds = 0.0
        self._top_spans = 0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        for tid, (_, module_name, qual, kind) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            owner_name, _, attr = qual.rpartition(".")
            if owner_name:
                self._patch_method(getattr(module, owner_name), attr, tid, kind)
            else:
                self._patch_function(getattr(module, attr), tid, kind)
        self._calibrate()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, fn: Callable, tid: int, kind: str) -> Callable:
        if kind == COUNT:
            return self._count_wrapper(fn, tid)
        if kind == GEN:
            return self._gen_wrapper(fn, tid)
        return self._span_wrapper(fn, tid)

    def _patch_method(self, cls: type, attr: str, tid: int, kind: str) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement: object = classmethod(self._wrap(original.__func__, tid, kind))
        elif isinstance(original, property):
            replacement = property(self._wrap(original.fget, tid, kind))
        else:
            replacement = self._wrap(original, tid, kind)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, original))

    def _patch_function(self, original: Callable, tid: int, kind: str) -> None:
        replacement = self._wrap(original, tid, kind)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    # ------------------------------------------------------------------
    # Wrappers (closures over locals: this is the hot path)
    # ------------------------------------------------------------------
    def _enter_exit(self, tid: int, record: bool):
        """Shared row bookkeeping for span and gen wrappers."""
        st = self._state
        if not record:
            return None, None
        targets, parents = self._row_target, self._row_parent
        starts, ends = self._row_start, self._row_end

        def enter() -> int:
            row = st.n
            if row >= SPAN_CAP:
                st.dropped += 1
                return -1
            st.n = row + 1
            targets[row] = tid
            parents[row] = st.cur
            st.cur = row
            return row

        def leave(row: int, t0: float, t1: float) -> None:
            if row >= 0:
                starts[row] = t0
                ends[row] = t1
                st.cur = parents[row]

        return enter, leave

    def _span_wrapper(self, fn: Callable, tid: int, record: Optional[bool] = None) -> Callable:
        st = self._state
        calls, raw_self, children = self.calls, self._raw_self, self._children
        enter, leave = self._enter_exit(tid, self._record if record is None else record)
        sized = TARGETS[tid][2] == "encode_frame"
        tracer = self
        clock = perf_counter

        def span(*args, **kwargs):
            if not st.on:
                return fn(*args, **kwargs)
            outer_child, outer_n = st.child, st.nchild
            st.child, st.nchild = 0.0, 0
            row = enter() if enter is not None else -1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    tracer.frame_bytes += len(result)
                return result
            finally:
                t1 = clock()
                duration = t1 - t0
                calls[tid] += 1
                raw_self[tid] += duration - st.child
                children[tid] += st.nchild
                st.child, st.nchild = outer_child + duration, outer_n + 1
                if leave is not None:
                    leave(row, t0, t1)

        span.__wrapped__ = fn  # type: ignore[attr-defined]
        return span

    def _gen_wrapper(self, fn: Callable, tid: int) -> Callable:
        st = self._state
        calls, raw_self, children = self.calls, self._raw_self, self._children
        enter, leave = self._enter_exit(tid, self._record)
        clock = perf_counter

        def traced(inner):
            try:
                while True:
                    outer_child, outer_n = st.child, st.nchild
                    st.child, st.nchild = 0.0, 0
                    row = enter() if enter is not None else -1
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    else:
                        calls[tid] += 1  # one per entry yielded
                    finally:
                        t1 = clock()
                        duration = t1 - t0
                        raw_self[tid] += duration - st.child
                        children[tid] += st.nchild
                        st.child, st.nchild = outer_child + duration, outer_n + 1
                        if leave is not None:
                            leave(row, t0, t1)
                    yield item
            finally:
                inner.close()

        def gen(*args, **kwargs):
            inner = fn(*args, **kwargs)
            return traced(inner) if st.on else inner

        gen.__wrapped__ = fn  # type: ignore[attr-defined]
        return gen

    def _count_wrapper(self, fn: Callable, tid: int) -> Callable:
        st = self._state
        calls = self.calls

        def counted(*args, **kwargs):
            if st.on:
                calls[tid] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted

    def _calibrate(self, rounds: int = 20_000) -> None:
        """Seconds of wrapper cost that land in the parent, per child."""

        def noop() -> None:
            return None

        # Borrow target 0's slots for the probe, then restore them.
        saved = (self.calls[0], self._raw_self[0], self._children[0])
        wrapped = self._span_wrapper(noop, 0, record=False)
        st = self._state
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            for _ in range(rounds):
                pass
            empty_loop = perf_counter() - t0
            st.on, st.child, st.nchild = True, 0.0, 0
            t0 = perf_counter()
            for _ in range(rounds):
                wrapped()
            total = perf_counter() - t0
            st.on = False
            best = min(best, (total - st.child - empty_loop) / rounds)
        self.cost = max(0.0, best)
        st.child, st.nchild = 0.0, 0
        self.calls[0], self._raw_self[0], self._children[0] = saved

    # ------------------------------------------------------------------
    # Run control and reporting
    # ------------------------------------------------------------------
    def start(self) -> None:
        st = self._state
        st.child, st.nchild, st.cur = 0.0, 0, -1
        st.on = True

    def stop(self) -> None:
        st = self._state
        st.on = False
        self._top_seconds += st.child
        self._top_spans += st.nchild

    def self_seconds(self, tid: int) -> float:
        return max(0.0, self._raw_self[tid] - self._children[tid] * self.cost)

    def by_name(self, name: str) -> int:
        return self.names.index(name)

    def layer_metrics(self, traced_wall_s: float, untraced_wall_s: float) -> Dict[str, float]:
        """The (b)-column per-layer metrics plus the counts only the
        wrappers can see (tables built, blocks decoded, merged entries)."""
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for tid, layer in enumerate(self.layers):
            self_s[layer] = self_s.get(layer, 0.0) + self.self_seconds(tid)
            calls[layer] = calls.get(layer, 0) + self.calls[tid]
        out: Dict[str, float] = {}
        for layer in TIMED_LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
        for layer in SELF_ONLY_LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        for layer in COUNT_ONLY_LAYERS:
            out[f"{layer}.calls"] = calls[layer]
        n = lambda name: self.calls[self.by_name(name)]
        out["core.pebbles.schedule_self_s"] = self.self_seconds(
            self.by_name("pebbles.PebblesDBStore._schedule_compactions")
        )
        out["sstable.builder.tables_built"] = n("builder.SSTableBuilder.finish")
        out["sstable.format.blocks_decoded"] = n("format.decode_block_with_keys") + n(
            "format.decode_block"
        )
        out["sstable.merger.entries"] = calls["sstable.merger"]
        out["version.manifest.edits"] = n("manifest.ManifestWriter.append")
        out["net.protocol.frames"] = n("protocol.encode_frame")
        out["net.protocol.bytes"] = self.frame_bytes
        out["trace.residue_share"] = (
            self.residue_seconds(traced_wall_s) / traced_wall_s if traced_wall_s else 0.0
        )
        out["trace.overhead_ratio"] = (
            traced_wall_s / untraced_wall_s if untraced_wall_s else 0.0
        )
        return out

    def residue_seconds(self, traced_wall_s: float) -> float:
        """Traced host time that was under no span at all."""
        return max(0.0, traced_wall_s - self._top_seconds - self._top_spans * self.cost)

    def write_spans(self, path: str) -> None:
        """One JSON object per recorded span: name, layer, start, end,
        parent row and root row (the request the span belongs to)."""
        if not self._record:
            return
        st = self._state
        roots: List[int] = []
        with open(path, "w") as out:
            for row in range(st.n):
                parent = self._row_parent[row]
                root = row if parent < 0 else roots[parent]
                roots.append(root)
                tid = self._row_target[row]
                out.write(
                    json.dumps(
                        {
                            "id": row,
                            "name": self.names[tid],
                            "layer": self.layers[tid],
                            "start": self._row_start[row],
                            "end": self._row_end[row],
                            "parent": parent,
                            "root": root,
                        }
                    )
                )
                out.write("\n")
            if st.dropped:
                out.write(json.dumps({"dropped_spans": st.dropped}) + "\n")


__all__ = ["Tracer", "TARGETS", "SPAN", "GEN", "COUNT"]
