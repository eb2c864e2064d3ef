"""Rebuild a store's metadata from its data files (LevelDB's RepairDB).

If the CURRENT pointer or MANIFEST is lost or corrupt, the sstables and
write-ahead logs still hold all the data.  ``repair_store``:

1. scans the store's directory for sstables, validating each one
   (corrupt tables are set aside and reported, not silently dropped);
2. replays the surviving write-ahead logs into one fresh sstable, the
   way recovery replays them into Level 0;
3. writes a brand-new MANIFEST placing every table in Level 0 — always
   legal, since Level 0 tolerates overlapping ranges — ordered so newer
   versions shadow older ones;
4. points CURRENT at the new MANIFEST.

Guard metadata (FLSM) is not reconstructed: the repaired store reopens
with everything in Level 0 and rebuilds its guard hierarchy through
normal compaction, exactly as a fresh store would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import ReproError
from repro.memtable import Memtable
from repro.sim.storage import SimulatedStorage
from repro.sstable import SSTableBuilder, SSTableReader
from repro.util.keys import KIND_VPTR
from repro.version import VersionEdit
from repro.version.files import FileMetadata
from repro.version.lifecycle import (
    MANIFEST,
    SEGMENT,
    TABLE,
    batch_pointers_intact,
    create_manifest,
    numbered_files,
    replay_wals,
    write_table,
)
from repro.version.manifest import CURRENT_NAME, GUARD_NONE
from repro.vlog.log import ValueLog


@dataclass
class RepairReport:
    """What the repair found and produced."""

    tables_recovered: int = 0
    tables_corrupt: int = 0
    logs_converted: int = 0
    entries_from_logs: int = 0
    last_sequence: int = 0
    corrupt_files: List[str] = field(default_factory=list)


def repair_store(storage: SimulatedStorage, prefix: str = "db/") -> RepairReport:
    """Rebuild ``prefix``'s MANIFEST from its data files."""
    acct = storage.foreground_account(prefix + "repair")
    report = RepairReport()

    tables: List[FileMetadata] = []
    # Value-log segments are data files too: they are kept as-is (the
    # reopened store re-registers them from disk), their numbers must not
    # be re-allocated, and pointers into them are validated as recovery
    # validates them.
    # (Read-only here: it never appends, so it never allocates a number.)
    vlog = ValueLog(storage, prefix, segment_bytes=0, gc_dead_ratio=1.0, alloc_number=int)
    data_files = numbered_files(storage, prefix, (TABLE, SEGMENT))
    next_number = max([0] + [number for number, _ in data_files]) + 1

    for number, name in data_files:
        if not name.endswith(TABLE):
            continue
        try:
            reader = SSTableReader.open(storage, name, acct)
            max_seq = 0
            entries = 0
            first_key = last_key = None
            for key, value in reader.iter_all(acct):
                if first_key is None:
                    first_key = key
                last_key = key
                max_seq = max(max_seq, key.sequence)
                entries += 1
                if key.kind == KIND_VPTR and not batch_pointers_intact(
                    vlog, key.sequence, [(key.kind, key.user_key, value)], acct, strict=False
                ):
                    raise ReproError("dangling value pointer")
            if first_key is None or last_key is None:
                raise ReproError("empty sstable")
        except (ReproError, AssertionError):
            report.tables_corrupt += 1
            report.corrupt_files.append(name)
            storage.rename(name, name + ".corrupt")
            continue
        meta = FileMetadata(
            number=number,
            smallest=first_key,
            largest=last_key,
            file_size=reader.file_size,
            num_entries=entries,
            largest_seq=max_seq,
        )
        tables.append(meta)
        report.tables_recovered += 1
        report.last_sequence = max(report.last_sequence, max_seq)

    # Replay the surviving WALs into a table so their data is not lost and
    # cannot be double-applied on a later recovery.
    mem = Memtable()
    logs, last_sequence = replay_wals(
        storage, prefix, 0, acct, mem, 0, strict=False, vlog=vlog
    )
    report.last_sequence = max(report.last_sequence, last_sequence)
    if len(mem):
        builder = SSTableBuilder()
        for ikey, value in mem:
            builder.add(ikey, value)
        tables.append(write_table(storage, prefix, next_number, builder, acct, bloom=False))
        next_number += 1
        report.entries_from_logs = len(mem)
    report.logs_converted = len(logs)
    for name in logs:
        storage.delete(name)

    # Remove the old metadata before writing fresh metadata.
    for _, name in numbered_files(storage, prefix, (MANIFEST,)):
        storage.delete(name)
    storage.delete(prefix + CURRENT_NAME, missing_ok=True)

    edit = VersionEdit(
        last_sequence=report.last_sequence,
        next_file_number=next_number + 1,
        log_number=next_number + 1,
    )
    # Level-0 recovery inserts each file at the front, so appending in
    # ascending max-sequence order leaves the newest data searched first.
    for meta in sorted(tables, key=lambda m: m.largest_seq):
        edit.add_file(0, meta, GUARD_NONE)
    create_manifest(storage, prefix, next_number, edit, acct)
    return report
