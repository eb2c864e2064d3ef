"""Store configuration and the per-system presets.

The paper compares four stores.  Three of them (LevelDB, HyperLevelDB,
RocksDB) share the leveled-LSM design and differ in configuration and
compaction policy, so we model them as presets of one engine.  All four
use the same 64 KiB (scaled) memtable.  The fields below hold the rest of
a preset's configuration; how it picks the inputs of a level compaction
is the leveled engine's policy table (``repro.engines.lsm.store``, keyed
by ``preset``):

* **leveldb** — one immutable memtable, one background worker; passes of
  up to four files from a per-level cursor, started at 75% of a level's
  target size; trivial moves.
* **hyperleveldb** — two immutable memtables, two workers; the four-file
  window overlapping the least below, started at the target size;
  trivial moves.  The paper's baseline.
* **rocksdb** — two immutable memtables, one worker, relaxed Level-0
  limits (20/24); three-file passes from the cursor at the target size,
  no trivial moves — the most rewrite IO of the group (Figure 1.1).
* **pebblesdb** — HyperLevelDB sizes plus the FLSM options (guard
  probability bits, ``max_sstables_per_guard``) and the section 4
  optimizations, each independently switchable for the ablation benchmark.

All byte sizes default to the DESIGN.md scaled values (~1/64 of the
paper's) so compaction dynamics appear at Python-friendly dataset sizes;
``scale`` lets a benchmark scale them together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

KiB = 1024
MiB = 1024 * 1024

#: Level i's size target is ``level1_max_bytes * LEVEL_SIZE_MULTIPLIER**(i-1)``.
LEVEL_SIZE_MULTIPLIER = 10


@dataclass
class StoreOptions:
    """Everything tunable about an engine instance."""

    # --- identification -------------------------------------------------
    preset: str = "pebblesdb"

    # --- write path ------------------------------------------------------
    memtable_bytes: int = 64 * KiB
    max_immutable_memtables: int = 2
    sync_writes: bool = False

    # --- shape of the level hierarchy -------------------------------------
    num_levels: int = 7
    level0_compaction_trigger: int = 4
    level0_slowdown_trigger: int = 8
    level0_stop_trigger: int = 12
    #: Target size of Level 1 (see ``LEVEL_SIZE_MULTIPLIER`` for level i).
    level1_max_bytes: int = 160 * KiB
    #: Max sstable produced by compaction (LevelDB's target_file_size).
    target_file_bytes: int = 64 * KiB

    # --- compaction policy -----------------------------------------------
    background_workers: int = 2
    #: Extra write delay while Level 0 is in the slowdown band (LevelDB
    #: sleeps 1 ms; scaled with everything else).
    slowdown_delay: float = 0.25e-3
    #: Compaction scheduling granularity for the FLSM engine: "guard"
    #: serializes in-flight jobs with a per-(level, key-range) conflict
    #: map so independent guards compact concurrently; "level" restores
    #: the historical whole-level locks.  Leveled engines schedule at
    #: file granularity and ignore this knob.
    compaction_scheduler: str = "guard"

    #: Device bytes per logical sstable byte; 1.0 = compression off (the
    #: paper's configuration, section 5.1), ~0.5 models snappy.  The WAL
    #: is never compressed, matching LevelDB.
    compression_ratio: float = 1.0

    # --- key–value separation (WiscKey/BVLSM-style value log) -------------
    #: Values at least this many bytes go to the append-only value log at
    #: WAL-append time; the tree then carries only a pointer.  ``None``
    #: disables separation entirely (byte-identical behaviour to a build
    #: without the value log).
    value_separation_bytes: "int | None" = None
    #: Rotate value-log segments at this size.
    vlog_segment_bytes: int = 256 * KiB
    #: A non-active segment whose dead-byte fraction reaches this ratio is
    #: *cold*: compactions rewriting a key range relocate live pointers out
    #: of cold segments, driving them to fully-dead and retirement.
    vlog_gc_dead_ratio: float = 0.5

    # --- read path ---------------------------------------------------------
    #: Open sstable readers kept cached.  The paper's stores cache 1000
    #: sstable index blocks; scaled by the same ~1/16 factor as file
    #: counts, so a store with many small sstables thrashes this cache
    #: (the Workload C / Table 5.1 effect) and a store with fewer, larger
    #: files keeps its indexes resident.
    table_cache_size: int = 64
    #: Host-side decoded-block cache budget in bytes; 0 disables it.  The
    #: cache memoizes *parsed* data blocks (entries + key array) to save
    #: the wall-clock cost of re-checksumming and re-parsing hot blocks;
    #: it is invisible to every simulated metric — device time, IO byte
    #: counts, and page-cache hit rates are identical with it on or off,
    #: so it never perturbs a reproduced figure.
    block_cache_bytes: int = 32 * MiB

    # --- observability -----------------------------------------------------
    #: Flight-recorder sampling mode: ``"off"`` disables the recorder,
    #: ``"errors"`` (default) records only degraded/faulted-path events
    #: at zero hot-path cost, ``"1/N"`` (e.g. ``"1/64"``) additionally
    #: traces every Nth root operation in full into the bounded ring.
    trace_sample: str = "errors"
    #: Directory for automatic flight-recorder dumps on degradation /
    #: corruption / shedding; ``None`` keeps dumps in memory only.
    trace_dump_dir: "str | None" = None

    # --- FLSM / PebblesDB -----------------------------------------------
    #: Consecutive set LSBs of murmur(key) required to guard Level 1.
    top_level_bits: int = 13
    #: Bits relaxed per level below Level 1.
    bit_decrement: int = 2
    #: Compact a guard into the next level at this many sstables.
    max_sstables_per_guard: int = 4
    enable_sstable_bloom: bool = True
    enable_parallel_seeks: bool = True
    enable_seek_based_compaction: bool = True

    # ----------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.memtable_bytes <= 0 or self.level1_max_bytes <= 0:
            raise ValueError("memtable and level sizes must be positive")
        if self.num_levels < 2:
            raise ValueError("need at least two levels")
        if not (
            self.level0_compaction_trigger
            <= self.level0_slowdown_trigger
            <= self.level0_stop_trigger
        ):
            raise ValueError(
                "level0 triggers must satisfy compaction <= slowdown <= stop"
            )
        if self.background_workers < 1:
            raise ValueError("need at least one background worker")
        if self.max_sstables_per_guard < 1:
            raise ValueError("max_sstables_per_guard must be >= 1")
        if not 0.0 < self.compression_ratio <= 1.0:
            raise ValueError("compression_ratio must be in (0, 1]")
        if self.block_cache_bytes < 0:
            raise ValueError("block_cache_bytes must be >= 0")
        if self.top_level_bits < 1 or self.bit_decrement < 0:
            raise ValueError("bad guard probability parameters")
        if self.compaction_scheduler not in ("guard", "level"):
            raise ValueError(
                f"unknown compaction scheduler: {self.compaction_scheduler!r}"
            )
        from repro.obs.recorder import parse_sample_mode

        parse_sample_mode(self.trace_sample)  # raises ValueError on bad specs
        if self.slowdown_delay < 0:
            raise ValueError("slowdown_delay must be >= 0")
        if self.value_separation_bytes is not None and self.value_separation_bytes < 1:
            raise ValueError("value_separation_bytes must be >= 1 (or None)")
        if self.vlog_segment_bytes <= 0:
            raise ValueError("vlog_segment_bytes must be positive")
        if not 0.0 < self.vlog_gc_dead_ratio <= 1.0:
            raise ValueError("vlog_gc_dead_ratio must be in (0, 1]")

    def level_target_bytes(self, level: int) -> int:
        """Size target for ``level`` (level 0 is file-count-triggered)."""
        if level <= 0:
            return self.level0_compaction_trigger * self.memtable_bytes
        return self.level1_max_bytes * LEVEL_SIZE_MULTIPLIER ** (level - 1)

    def scaled(self, factor: float) -> "StoreOptions":
        """Scale every byte-sized knob by ``factor`` (workload sizing aid)."""
        return replace(
            self,
            memtable_bytes=int(self.memtable_bytes * factor),
            level1_max_bytes=int(self.level1_max_bytes * factor),
            target_file_bytes=int(self.target_file_bytes * factor),
        )

    # ------------------------------------------------------------------
    # Presets (paper section 5.1 configurations, scaled)
    # ------------------------------------------------------------------
    @classmethod
    def leveldb(cls) -> "StoreOptions":
        # Single background thread and a single immutable memtable: the
        # write path stalls whenever flushing falls behind, giving the
        # low-throughput/high-stall profile of stock LevelDB.
        return cls(
            preset="leveldb",
            memtable_bytes=64 * KiB,
            max_immutable_memtables=1,
            background_workers=1,
            level0_slowdown_trigger=8,
            level0_stop_trigger=12,
        )

    @classmethod
    def hyperleveldb(cls) -> "StoreOptions":
        # Two workers, two immutable memtables, and HyperLevelDB's
        # min-overlap input selection: fewest rewrites per pass and few
        # stalls — the paper's strongest LSM baseline.
        return cls(
            preset="hyperleveldb",
            memtable_bytes=64 * KiB,
            max_immutable_memtables=2,
            background_workers=2,
            level0_slowdown_trigger=8,
            level0_stop_trigger=12,
        )

    @classmethod
    def rocksdb(cls) -> "StoreOptions":
        # Narrower passes, no trivial moves, one compaction thread in the
        # scaled configuration: the most rewrite IO of the group (the
        # paper's Figure 1.1 measures 42x amplification) and the slowest
        # random-write throughput despite relaxed Level-0 limits.
        return cls(
            preset="rocksdb",
            memtable_bytes=64 * KiB,
            max_immutable_memtables=2,
            background_workers=1,
            level0_slowdown_trigger=20,
            level0_stop_trigger=24,
        )

    @classmethod
    def pebblesdb(cls) -> "StoreOptions":
        return cls(
            preset="pebblesdb",
            memtable_bytes=64 * KiB,
            max_immutable_memtables=2,
            background_workers=2,
            level0_slowdown_trigger=8,
            level0_stop_trigger=12,
        )

    @classmethod
    def for_preset(cls, name: str) -> "StoreOptions":
        factories = {
            "leveldb": cls.leveldb,
            "hyperleveldb": cls.hyperleveldb,
            "rocksdb": cls.rocksdb,
            "pebblesdb": cls.pebblesdb,
        }
        if name not in factories:
            raise ValueError(f"unknown preset: {name!r} (have {sorted(factories)})")
        return factories[name]()
