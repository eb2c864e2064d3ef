"""Rebuild a store's metadata from its data files (LevelDB's RepairDB).

If the CURRENT pointer or MANIFEST is lost or corrupt, the sstables and
write-ahead logs still hold all the data.  ``repair_store``:

1. scans the store's directory for sstables, validating each one
   (corrupt tables are set aside and reported, not silently dropped);
2. converts any surviving write-ahead logs into fresh sstables;
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
from typing import Dict, List

from repro.errors import ReproError
from repro.memtable import Memtable
from repro.sim.storage import SimulatedStorage
from repro.sstable import SSTableBuilder, SSTableReader
from repro.sstable.format import ValuePointer
from repro.util.keys import KIND_VPTR
from repro.version import ManifestWriter, VersionEdit, set_current
from repro.version.files import FileMetadata
from repro.version.manifest import CURRENT_NAME, GUARD_NONE
from repro.vlog.log import SEGMENT_SUFFIX
from repro.wal import LogReader, decode_batch


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
    max_number = 0

    # Value-log segments are data files too: they are kept as-is (the
    # reopened store re-registers them from disk), their numbers must not
    # be re-allocated, and pointers into them are validated below.
    segments: Dict[int, int] = {}
    for name in storage.list_files(prefix):
        if name.endswith(SEGMENT_SUFFIX):
            number = int(name[len(prefix) : -len(SEGMENT_SUFFIX)])
            segments[number] = storage.size(name)
            max_number = max(max_number, number)

    def pointer_ok(value: bytes) -> bool:
        try:
            pointer = ValuePointer.decode(bytes(value))
        except ReproError:
            return False
        return pointer.offset + pointer.record_length <= segments.get(
            pointer.segment, 0
        )

    for name in storage.list_files(prefix):
        if not name.endswith(".sst"):
            continue
        number = int(name[len(prefix) : -4])
        max_number = max(max_number, number)
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
                if key.kind == KIND_VPTR and not pointer_ok(value):
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

    next_number = max_number + 1

    # Convert surviving WALs into tables so their data is not lost and
    # cannot be double-applied on a later recovery.
    for name in sorted(storage.list_files(prefix)):
        if not name.endswith(".log"):
            continue
        mem = Memtable()
        recovered = 0
        for record in LogReader(storage, name).records(acct):
            try:
                seq, ops = decode_batch(record)
            except ReproError:
                break
            # A batch whose value pointers lead nowhere (torn vlog tail)
            # is dropped whole — batch atomicity — but its sequence range
            # is still burned so later writes cannot collide with any
            # phantom vlog records that carry those sequences.
            report.last_sequence = max(report.last_sequence, seq + len(ops) - 1)
            if any(
                kind == KIND_VPTR and not pointer_ok(value)
                for kind, _, value in ops
            ):
                continue
            for i, (kind, key, value) in enumerate(ops):
                try:
                    mem.add(seq + i, kind, key, value)
                    recovered += 1
                except ValueError:
                    pass  # duplicate (key, seq): already present
        if recovered:
            builder = SSTableBuilder()
            for ikey, value in mem:
                builder.add(ikey, value)
            blob, props, _ = builder.finish()
            number = next_number
            next_number += 1
            table_name = f"{prefix}{number:06d}.sst"
            storage.create(table_name)
            storage.append(table_name, blob, acct)
            storage.sync(table_name, acct)
            meta = FileMetadata(
                number=number,
                smallest=props.smallest,
                largest=props.largest,
                file_size=props.file_size,
                num_entries=props.num_entries,
                largest_seq=props.largest_seq,
            )
            tables.append(meta)
            report.last_sequence = max(report.last_sequence, props.largest_seq)
            report.entries_from_logs += recovered
            report.logs_converted += 1
        storage.delete(name)

    # Remove the old metadata before writing fresh metadata.
    for name in storage.list_files(prefix):
        base = name[len(prefix) :]
        if base.startswith("MANIFEST-") or base == CURRENT_NAME:
            storage.delete(name)

    manifest_name = f"{prefix}MANIFEST-{next_number:06d}"
    next_number += 1
    writer = ManifestWriter(storage, manifest_name)
    edit = VersionEdit(
        last_sequence=report.last_sequence,
        next_file_number=next_number,
        log_number=next_number,
    )
    # Level-0 recovery inserts each file at the front, so appending in
    # ascending max-sequence order leaves the newest data searched first.
    for meta in sorted(tables, key=lambda m: m.largest_seq):
        edit.add_file(0, meta, GUARD_NONE)
    writer.append(edit, acct)
    set_current(storage, manifest_name, acct, prefix)
    return report
