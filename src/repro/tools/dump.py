"""Low-level inspection of store files (LevelDB's ``sst_dump`` / ``ldb``).

Three inspectors, each returning printable text:

* :func:`dump_sstable` — footer, index, bloom stats, and (optionally)
  every record of one sstable.
* :func:`dump_manifest` — the VersionEdit history of a MANIFEST, i.e. the
  store's metadata timeline, including guard commits/deletions.
* :func:`dump_wal` — the batches of a write-ahead log.

All of them read through the simulated storage layer, so they also work
on crashed or torn files (reporting where replay stops).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import CorruptionError
from repro.sim.storage import SimulatedStorage
from repro.sstable import SSTableReader
from repro.util.keys import KIND_DELETE
from repro.version import ManifestReader
from repro.version.manifest import GUARD_KEY, GUARD_NONE, GUARD_SENTINEL
from repro.wal import LogReader, decode_batch


def _fmt_key(key: bytes, limit: int = 24) -> str:
    text = key.decode("ascii", errors="backslashreplace")
    return text if len(text) <= limit else text[: limit - 1] + "…"


def dump_sstable(
    storage: SimulatedStorage,
    name: str,
    *,
    records: bool = False,
    limit: int = 50,
) -> str:
    """Describe one sstable; with ``records``, list up to ``limit`` rows."""
    acct = storage.foreground_account("dump")
    reader = SSTableReader.open(storage, name, acct)
    lines = [
        f"sstable {name}",
        f"  file size    : {reader.file_size} bytes",
        f"  entries      : {reader.num_entries}",
        f"  data blocks  : {reader.num_blocks}",
        f"  bloom filter : "
        + (
            f"{reader.bloom.size_bytes} bytes, {reader.bloom.num_probes} probes, "
            f"fpr~{reader.bloom.expected_fpr():.4f}"
            if reader.bloom is not None
            else "(none)"
        ),
        f"  resident     : {reader.memory_bytes} bytes (index + filter: on open "
        "here; in an engine the filter is resident with the file's metadata "
        "and a reader holds the index only)",
    ]
    if records:
        lines.append("  records:")
        shown = 0
        for key, value in reader.iter_all(acct):
            kind = "DEL" if key.kind == KIND_DELETE else "PUT"
            lines.append(
                f"    {kind} {_fmt_key(key.user_key)} @seq={key.sequence} "
                f"({len(value)} bytes)"
            )
            shown += 1
            if shown >= limit:
                lines.append(f"    ... ({reader.num_entries - shown} more)")
                break
    return "\n".join(lines)


def dump_manifest(storage: SimulatedStorage, name: str) -> str:
    """The VersionEdit history of a MANIFEST file."""
    acct = storage.foreground_account("dump")
    lines = [f"manifest {name}"]
    marker_names = {GUARD_NONE: "", GUARD_SENTINEL: " [sentinel]", GUARD_KEY: ""}
    for i, edit in enumerate(ManifestReader(storage, name).edits(acct)):
        lines.append(f"  edit #{i}:")
        if edit.last_sequence is not None:
            lines.append(f"    last_sequence    = {edit.last_sequence}")
        if edit.next_file_number is not None:
            lines.append(f"    next_file_number = {edit.next_file_number}")
        if edit.log_number is not None:
            lines.append(f"    log_number       = {edit.log_number}")
        for level, meta, marker, guard_key in edit.new_files:
            guard = (
                f" guard={_fmt_key(guard_key)}" if marker == GUARD_KEY
                else marker_names.get(marker, "")
            )
            lines.append(
                f"    + L{level} file {meta.number} "
                f"[{_fmt_key(meta.smallest.user_key)}.."
                f"{_fmt_key(meta.largest.user_key)}] "
                f"{meta.file_size}B/{meta.num_entries}e "
                f"largest_seq={meta.largest_seq}{guard}"
            )
        for level, number in edit.deleted_files:
            lines.append(f"    - L{level} file {number}")
        for level, key in edit.new_guards:
            lines.append(f"    + L{level} guard {_fmt_key(key)}")
        for level, key in edit.deleted_guards:
            lines.append(f"    - L{level} guard {_fmt_key(key)}")
    return "\n".join(lines)


def dump_wal(storage: SimulatedStorage, name: str, limit: int = 100) -> str:
    """The write batches of a WAL, up to ``limit`` operations."""
    acct = storage.foreground_account("dump")
    lines = [f"wal {name}"]
    shown = 0
    try:
        for record in LogReader(storage, name).records(acct):
            seq, ops = decode_batch(record)
            lines.append(f"  batch @seq={seq} ({len(ops)} ops)")
            for kind, key, value in ops:
                verb = "DEL" if kind == KIND_DELETE else "PUT"
                lines.append(
                    f"    {verb} {_fmt_key(key)}"
                    + (f" ({len(value)} bytes)" if verb == "PUT" else "")
                )
                shown += 1
                if shown >= limit:
                    lines.append("    ... (truncated)")
                    return "\n".join(lines)
    except CorruptionError as exc:
        lines.append(f"  ! replay stopped: {exc}")
    return "\n".join(lines)


def dump_store(storage: SimulatedStorage, prefix: str = "db/") -> str:
    """One-line-per-file overview of everything under ``prefix``."""
    lines = [f"store files under {prefix!r}:"]
    for name in storage.list_files(prefix):
        lines.append(f"  {name}  ({storage.size(name)} bytes)")
    return "\n".join(lines)
